#include "congest/network.hpp"

#include <algorithm>
#include <stdexcept>

namespace fc::congest {

std::uint32_t Context::degree() const { return graph_->degree(id()); }
ArcId Context::arc_begin() const { return graph_->arc_begin(id()); }
ArcId Context::arc_end() const { return graph_->arc_end(id()); }
NodeId Context::neighbor(ArcId a) const { return graph_->arc_head(a); }
const Graph& Context::graph() const { return *graph_; }

void Context::send(ArcId via, const Message& m) {
  net_->do_send(*this, via, m);
}

Context Context::block_view(NodeId node_base, ArcId arc_base,
                            const Graph& local) const {
  Context sub = *this;
  sub.graph_ = &local;
  sub.node_base_ = node_base;
  sub.arc_base_ = arc_base;
  // The inbox lives in this worker's scratch and this handler is its only
  // reader, so the vias can be translated where they sit.
  const std::span<Incoming> items(const_cast<Incoming*>(inbox_.data()),
                                  inbox_.size());
  for (Incoming& in : items) in.via -= arc_base;
  return sub;
}

void Context::request_wakeup() {
  if (wakeup_ == nullptr || woke_) return;  // dense sweep or already queued
  woke_ = true;
  wakeup_->push_back(node_);
}

Network::Network(const Graph& g) : graph_(&g), arcs_(g.arc_count()) {
  slot_msg_.resize(std::size_t{2} * arcs_);
  slot_full_.assign(std::size_t{2} * arcs_, 0);
}

void Network::do_send(Context& ctx, ArcId via, const Message& m) {
  const Graph& g = *graph_;
  // `via` is in the context's view; a block view offsets it back into the
  // engine's arc space (the identity view has arc_base_ == 0).
  const ArcId at = ctx.arc_base_ + via;
  if (at < g.arc_begin(ctx.node_) || at >= g.arc_end(ctx.node_))
    throw std::logic_error("Context::send: arc does not leave this node");
  if (faults_on_ && arc_dead_[at]) {
    // A failed link (or a link into a crashed node) swallows the send: it
    // never occupies a slot and never enters the message ledger.
    fault_dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const std::size_t w = write_off_ + at;
  if (slot_full_[w])
    throw std::logic_error(
        "Context::send: second message on one arc in one round "
        "(CONGEST bandwidth violation)");
  slot_full_[w] = 1;
  if (faults_on_ && corrupt_stamp_[at] == ctx.round_ + 1) {
    Message c = m;
    c.a = corrupt_word(c.a);
    slot_msg_[w] = c;
    fault_corrupted_.fetch_add(1, std::memory_order_relaxed);
  } else {
    slot_msg_[w] = m;
  }
  ctx.recv_->push_back(g.arc_head(at));
  ++arc_sends_[at];
}

void Network::apply_faults(std::uint64_t round) {
  const Graph& g = *graph_;
  const std::size_t read_off = arcs_ - write_off_;
  while (fault_cursor_ < fault_queue_.size() &&
         fault_queue_[fault_cursor_].round == round) {
    const Fault& f = fault_queue_[fault_cursor_++];
    switch (f.kind) {
      case FaultKind::kNodeCrash: {
        const NodeId v = f.id;
        node_dead_[v] = 1;
        for (ArcId a = g.arc_begin(v); a < g.arc_end(v); ++a) {
          const ArcId in = g.arc_reverse(a);  // the direction INTO v
          arc_dead_[in] = 1;
          // Messages in flight toward the crashed node (sent last round,
          // sitting in the read half) are lost with it; clearing the flags
          // here also keeps the half clean for its next write role.
          const std::size_t slot = read_off + in;
          if (slot_full_[slot]) {
            slot_full_[slot] = 0;
            fault_dropped_.fetch_add(1, std::memory_order_relaxed);
          }
        }
        break;
      }
      case FaultKind::kArcDrop:
        arc_dead_[f.id] = 1;
        break;
      case FaultKind::kEdgeDrop: {
        const auto [a, b] = g.edge_arcs(f.id);
        arc_dead_[a] = 1;
        arc_dead_[b] = 1;
        break;
      }
      case FaultKind::kEdgeCorrupt: {
        const auto [a, b] = g.edge_arcs(f.id);
        corrupt_stamp_[a] = round + 1;
        corrupt_stamp_[b] = round + 1;
        break;
      }
    }
  }
}

std::uint64_t Network::run_handlers(Algorithm& alg, std::uint64_t round,
                                    Sweep sweep, bool record_wakeups,
                                    ThreadPool& pool) {
  const Graph& g = *graph_;
  const std::size_t read_off = arcs_ - write_off_;
  const std::size_t count = sweep == Sweep::kActiveList
                                ? active_.size()
                                : std::size_t{g.node_count()};
  // Full-mode telemetry hooks (inbox histogram, annotations) hang off tf.
  // Active-node accounting: kAll and kActiveList step exactly `count`
  // nodes, so their count is free; only the kActiveScan filter decides
  // per node and pays the per-worker stepped counters.
  Telemetry* const tf = tele_ != nullptr && tele_->full() ? tele_ : nullptr;
  const bool count_stepped =
      tele_ != nullptr && sweep == Sweep::kActiveScan;
  auto body = [&](std::size_t worker, std::size_t begin, std::size_t end) {
    Context ctx;
    ctx.net_ = this;
    ctx.graph_ = graph_;
    ctx.round_ = round;
    WorkerScratch& mine = worker_[worker];
    ctx.recv_ = &mine.recv;
    ctx.wakeup_ = record_wakeups ? &mine.wakeup : nullptr;
    ctx.notes_ = tf != nullptr ? tf->worker_notes(worker) : nullptr;
    auto& scratch = mine.inbox;
    std::uint64_t stepped = 0;
    for (std::size_t i = begin; i < end; ++i) {
      const NodeId v = sweep == Sweep::kActiveList
                           ? active_[i]
                           : static_cast<NodeId>(i);
      if (sweep == Sweep::kActiveScan && sched_stamp_[v] != round) continue;
      if (faults_on_ && node_dead_[v]) continue;  // crashed: never steps
      ctx.node_ = v;
      ctx.woke_ = false;
      ++stepped;
      if (round == 0) {
        ctx.inbox_ = {};
        alg.start(ctx);
        continue;
      }
      scratch.clear();
      if (sched_stamp_[v] == round) {
        // Materialize the inbox from the read half: scan the node's
        // contiguous arc range for full reverse-arc slots. Arc order makes
        // delivery arc-id-sorted for free; this worker is the slot's only
        // consumer, so clearing the flag here IS the per-worker cleanup
        // that readies the buffer half for its next write role.
        for (ArcId a = g.arc_begin(v); a < g.arc_end(v); ++a) {
          const std::size_t slot = read_off + g.arc_reverse(a);
          if (!slot_full_[slot]) continue;
          slot_full_[slot] = 0;
          scratch.push_back(Incoming{a, slot_msg_[slot]});
        }
        if (tf != nullptr && !scratch.empty())
          tf->record_inbox(worker, scratch.size());
      }
      ctx.inbox_ = scratch;
      alg.step(ctx);
    }
    if (count_stepped) tele_->add_active(worker, stepped);
  };
  if (count >= 512)
    pool.parallel_chunks(count, body);
  else if (count > 0)
    body(0, 0, count);
  if (tele_ == nullptr) return 0;
  return sweep == Sweep::kActiveScan ? tele_->take_active()
                                     : std::uint64_t{count};
}

RunResult Network::run(Algorithm& alg, const RunOptions& opts) {
  const Graph& g = *graph_;
  const NodeId n = g.node_count();
  ++runs_started_;
  messages_ = 0;
  arc_sends_.assign(arcs_, 0);  // also recovers the moved-from state
  std::fill(slot_full_.begin(), slot_full_.end(), 0);
  write_off_ = 0;
  sched_stamp_.assign(n, 0);
  active_.clear();

  faults_on_ = opts.faults != nullptr && !opts.faults->empty();
  fault_cursor_ = 0;
  fault_dropped_.store(0, std::memory_order_relaxed);
  fault_corrupted_.store(0, std::memory_order_relaxed);
  if (faults_on_) {
    fault_queue_ = opts.faults->faults;
    for (const Fault& f : fault_queue_) {
      const bool node = f.kind == FaultKind::kNodeCrash;
      const bool arc = f.kind == FaultKind::kArcDrop;
      const std::uint64_t limit =
          node ? n : arc ? arcs_ : g.edge_count();
      if (f.id >= limit)
        throw std::invalid_argument("FaultPlan: id out of range");
    }
    std::stable_sort(
        fault_queue_.begin(), fault_queue_.end(),
        [](const Fault& x, const Fault& y) { return x.round < y.round; });
    node_dead_.assign(n, 0);
    arc_dead_.assign(arcs_, 0);
    corrupt_stamp_.assign(arcs_, 0);
  } else {
    fault_queue_.clear();
  }

  const bool sparse = !opts.force_dense;
  ThreadPool& pool = opts.pool != nullptr ? *opts.pool : ThreadPool::global();
  const std::size_t workers = pool.size();
  // Clearing (not reallocating) keeps the lists' capacity for the next run
  // of a pooled Network; it also drops whatever a throwing run left behind.
  worker_.resize(workers);
  for (WorkerScratch& w : worker_) {
    w.recv.clear();
    w.wakeup.clear();
    w.inbox.clear();
  }

  // Telemetry: kRounds records counters only — no clock reads inside the
  // loop; kFull adds the three phase timers.
  tele_ = opts.telemetry;
  if (tele_ != nullptr && !tele_->enabled()) tele_ = nullptr;
  const bool timing = tele_ != nullptr && tele_->full();
  if (tele_ != nullptr) tele_->begin_run(alg.name(), workers);
  // kRounds recording appends through a bump-pointer cursor kept in this
  // frame — the per-round hook then touches no recorder state at all.
  Telemetry::CounterCursor cursor;
  if (tele_ != nullptr && !timing) cursor = tele_->counters_cursor();

  RunResult result;
  std::uint64_t round = 0;
  // Round 0 runs start() on every node, dense or sparse; sweep_next is the
  // strategy the NEXT sparse round will use, chosen during delivery.
  Sweep sweep_next = Sweep::kAll;
  // Telemetry carry: messages delivered this round == sent last round;
  // nodes with input this round were counted during last round's delivery.
  std::uint64_t delivered = 0, with_input = 0;
  // Sends of the most recent round: whatever is left here when the loop
  // exits (done() or max_rounds) sat in the flipped write half and was
  // never delivered — RunResult::undelivered, the counter that reconciles
  // result.messages with what handlers actually saw.
  std::uint64_t in_flight = 0;
  // Wakeups must be recorded whenever telemetry is on, even under the
  // dense sweep (where they don't gate scheduling): the `wakeups` series
  // column is meaningless in a dense-vs-sparse comparison otherwise.
  const bool record_wakeups = sparse || tele_ != nullptr;
  const CancelToken* const cancel = opts.cancel;
  for (; round < opts.max_rounds; ++round) {
    // Cancellation gate: checked BEFORE the round starts, so a round never
    // half-executes, and last round's sends — flipped into the read half
    // but never consumed — land in `undelivered` like any truncation.
    if (cancel != nullptr && cancel->expired()) {
      result.cancelled = true;
      break;
    }
    alg.round_started(round);
    // Faults land between rounds: state written here is only read by the
    // (possibly parallel) handler/send phases that follow.
    if (faults_on_) apply_faults(round);
    const Sweep sweep = sparse && round > 0 ? sweep_next : Sweep::kAll;
    const std::uint64_t t0 = timing ? Telemetry::now_ns() : 0;
    const std::uint64_t active =
        run_handlers(alg, round, sweep, record_wakeups, pool);
    const std::uint64_t t1 = timing ? Telemetry::now_ns() : 0;

    // Delivery — O(messages + wakeups), no copies: stamp each receiver
    // from the per-worker receiver lists, then flip the buffer halves.
    // The sweep decision is made up front from the sent + wakeup upper
    // bound on next round's active count: when >= 1/8 of the graph will
    // run anyway, stamping is a plain store (dense-equal delivery cost)
    // and the round sweeps in node order; only genuinely sparse rounds
    // pay the dedup branch that builds the active list.
    const std::uint64_t next = round + 1;
    std::size_t sent = 0, woken = 0;
    for (const WorkerScratch& w : worker_) {
      sent += w.recv.size();
      woken += w.wakeup.size();  // empty unless record_wakeups
    }
    messages_ += sent;
    in_flight = sent;
    std::uint64_t receivers = 0;  // unique message receivers (telemetry)
    const bool build_list = sparse && (sent + woken) * 8 < n;
    sweep_next = build_list ? Sweep::kActiveList : Sweep::kActiveScan;
    if (build_list) {
      active_.clear();
      for (WorkerScratch& w : worker_) {
        for (const NodeId to : w.recv) {
          if (sched_stamp_[to] != next) {
            sched_stamp_[to] = next;
            active_.push_back(to);
            ++receivers;
          }
        }
        w.recv.clear();
      }
      for (WorkerScratch& w : worker_) {
        for (const NodeId v : w.wakeup) {
          if (sched_stamp_[v] != next) {
            sched_stamp_[v] = next;
            active_.push_back(v);
          }
        }
        w.wakeup.clear();
      }
    } else {
      // Stamp all: a plain store per receiver, with the unique-receiver
      // count (telemetry's with_input) folded in branch-free. Wakeups are
      // stamped only after every receiver is counted, so a node that both
      // receives and wakes still counts as a receiver.
      for (WorkerScratch& w : worker_) {
        for (const NodeId to : w.recv) {
          receivers += sched_stamp_[to] != next;
          sched_stamp_[to] = next;
        }
        w.recv.clear();
      }
      for (WorkerScratch& w : worker_) {
        for (const NodeId v : w.wakeup) sched_stamp_[v] = next;
        w.wakeup.clear();
      }
    }
    write_off_ = arcs_ - write_off_;
    const std::uint64_t t2 = timing ? Telemetry::now_ns() : 0;

    const bool finished = alg.done();
    if (tele_ != nullptr) {
      const SweepMode mode = sweep == Sweep::kAll ? SweepMode::kDense
                             : sweep == Sweep::kActiveList
                                 ? SweepMode::kActiveList
                                 : SweepMode::kActiveScan;
      if (timing)
        tele_->record_round(round, mode, active, with_input, delivered, sent,
                            woken, t1 - t0, t2 - t1,
                            Telemetry::now_ns() - t2);
      else
        tele_->record_counters(cursor, mode, active, with_input, sent, woken);
      delivered = sent;
      with_input = receivers;
    }
    if (finished) {
      result.finished = true;
      ++round;
      break;
    }
  }
  result.rounds = round;
  result.messages = messages_;
  result.undelivered = in_flight;
  if (faults_on_) {
    result.fault_dropped = fault_dropped_.load(std::memory_order_relaxed);
    result.fault_corrupted = fault_corrupted_.load(std::memory_order_relaxed);
  }
  result.arc_sends = std::move(arc_sends_);
  if (tele_ != nullptr) {
    if (!timing) tele_->commit_counters(cursor);
    result.telemetry =
        tele_->end_run(result.messages, result.finished, result.arc_sends);
    tele_ = nullptr;
  }
  return result;
}

}  // namespace fc::congest
