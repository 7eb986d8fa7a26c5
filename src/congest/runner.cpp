#include "congest/runner.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

namespace fc::congest {

std::uint64_t CompositeResult::max_parent_edge_congestion() const {
  std::uint64_t best = 0;
  for (std::uint64_t c : parent_edge_congestion) best = std::max(best, c);
  return best;
}

namespace {

// The interleaved mode's composite Algorithm: the engine sees one
// algorithm on the union graph; every union node belongs to exactly one
// instance block, so each handler call is translated (Context::block_view)
// and forwarded to that instance. An instance whose done() has been
// observed is no longer dispatched — the engine still consumes any
// messages that were in flight toward it, exactly as the sequential mode's
// per-instance run would have left them undelivered.
class InterleavedComposite final : public Algorithm {
 public:
  InterleavedComposite(std::span<const EdgeDisjointInstance> work,
                       std::vector<NodeId> node_base,
                       std::vector<ArcId> arc_base,
                       std::vector<std::uint32_t> inst_of_node)
      : work_(work),
        node_base_(std::move(node_base)),
        arc_base_(std::move(arc_base)),
        inst_of_node_(std::move(inst_of_node)),
        finished_(work.size(), 0),
        finish_round_(work.size(), 0) {}

  std::string name() const override {
    return "edge-disjoint[" + std::to_string(work_.size()) + "]";
  }

  void round_started(std::uint64_t round) override {
    cur_round_ = round;
    // Finished instances get no more hooks — their sequential runs would
    // have ended already, and identity of the two modes depends on it.
    for (std::size_t i = 0; i < work_.size(); ++i)
      if (!finished_[i]) work_[i].algorithm->round_started(round);
  }

  void start(Context& ctx) override { dispatch(ctx, /*first=*/true); }
  void step(Context& ctx) override { dispatch(ctx, /*first=*/false); }

  // Polled single-threaded after each round; records the exact round each
  // instance finished, which IS that instance's sequential round count.
  bool done() const override {
    bool all = true;
    for (std::size_t i = 0; i < work_.size(); ++i) {
      if (finished_[i]) continue;
      if (work_[i].algorithm->done()) {
        finished_[i] = 1;
        finish_round_[i] = cur_round_ + 1;
      } else {
        all = false;
      }
    }
    return all;
  }

  std::uint64_t instance_rounds(std::size_t i,
                                std::uint64_t run_rounds) const {
    return finished_[i] ? finish_round_[i] : run_rounds;
  }
  bool instance_finished(std::size_t i) const { return finished_[i] != 0; }

 private:
  void dispatch(Context& ctx, bool first) {
    const std::uint32_t i = inst_of_node_[ctx.id()];
    if (finished_[i]) return;
    Context sub =
        ctx.block_view(node_base_[i], arc_base_[i], work_[i].part->graph);
    if (first)
      work_[i].algorithm->start(sub);
    else
      work_[i].algorithm->step(sub);
  }

  std::span<const EdgeDisjointInstance> work_;
  std::vector<NodeId> node_base_;
  std::vector<ArcId> arc_base_;
  std::vector<std::uint32_t> inst_of_node_;
  std::uint64_t cur_round_ = 0;
  // Written only from done()/round_started() (single-threaded, between
  // rounds); handlers read finished_ during rounds — ordered by the pool's
  // dispatch synchronization.
  mutable std::vector<std::uint8_t> finished_;
  mutable std::vector<std::uint64_t> finish_round_;
};

void verify_edge_disjoint(const Graph& parent,
                          std::span<const EdgeDisjointInstance> work) {
  // Each parent edge may belong to at most one instance, otherwise
  // concurrent execution would violate bandwidth.
  std::vector<std::uint8_t> claimed(parent.edge_count(), 0);
  for (const auto& inst : work) {
    if (!inst.part || !inst.algorithm)
      throw std::logic_error("run_edge_disjoint: null instance");
    for (EdgeId e : inst.part->parent_edge) {
      if (claimed[e])
        throw std::logic_error(
            "run_edge_disjoint: parent edge claimed by two instances");
      claimed[e] = 1;
    }
  }
}

CompositeResult run_sequential(const Graph& parent,
                               std::span<const EdgeDisjointInstance> work,
                               const RunOptions& opts) {
  CompositeResult out;
  out.finished = true;
  out.parent_edge_congestion.assign(parent.edge_count(), 0);
  out.per_instance.reserve(work.size());
  for (const auto& inst : work) {
    Network net(inst.part->graph);
    RunOptions local = opts;
    local.faults = inst.faults;
    RunResult res = net.run(*inst.algorithm, local);
    out.rounds = std::max(out.rounds, res.rounds);
    out.messages += res.messages;
    out.fault_dropped += res.fault_dropped;
    out.fault_corrupted += res.fault_corrupted;
    out.finished = out.finished && res.finished;
    const Graph& sub = inst.part->graph;
    for (EdgeId e = 0; e < sub.edge_count(); ++e)
      out.parent_edge_congestion[inst.part->parent_edge[e]] +=
          res.edge_congestion(sub, e);
    out.per_instance.push_back(std::move(res));
  }
  return out;
}

CompositeResult run_interleaved(const Graph& parent,
                                std::span<const EdgeDisjointInstance> work,
                                const RunOptions& opts) {
  // Build the block-diagonal union: instance i's subgraph occupies nodes
  // [node_base[i], node_base[i] + n_i) and — because from_edges lays a
  // node's arcs out in input-edge order, and the union edge list is the
  // concatenation of the instances' edge lists — arcs
  // [arc_base[i], arc_base[i] + 2 m_i), with union arc == arc_base[i] +
  // instance arc. All instance<->engine translation is therefore pure
  // offset arithmetic; no lookup tables cross the hot path.
  std::vector<NodeId> node_base(work.size());
  std::vector<ArcId> arc_base(work.size());
  NodeId total_n = 0;
  EdgeId total_m = 0;
  for (std::size_t i = 0; i < work.size(); ++i) {
    node_base[i] = total_n;
    arc_base[i] = 2 * total_m;
    total_n += work[i].part->graph.node_count();
    total_m += work[i].part->graph.edge_count();
  }
  std::vector<std::pair<NodeId, NodeId>> edges;
  edges.reserve(total_m);
  std::vector<std::uint32_t> inst_of_node(total_n);
  for (std::size_t i = 0; i < work.size(); ++i) {
    const Graph& sub = work[i].part->graph;
    for (EdgeId e = 0; e < sub.edge_count(); ++e)
      edges.emplace_back(node_base[i] + sub.edge_u(e),
                         node_base[i] + sub.edge_v(e));
    std::fill(inst_of_node.begin() + node_base[i],
              inst_of_node.begin() + node_base[i] + sub.node_count(),
              static_cast<std::uint32_t>(i));
  }
  const Graph uni = Graph::from_edges(total_n, edges);

  // Merge the per-instance fault plans into one union-id plan. Edge ids
  // translate by the edge prefix (= arc_base/2) because the union edge
  // list is the concatenation of the instance edge lists.
  FaultPlan merged;
  for (std::size_t i = 0; i < work.size(); ++i) {
    if (work[i].faults == nullptr) continue;
    for (Fault f : work[i].faults->faults) {
      if (f.kind == FaultKind::kNodeCrash)
        f.id += node_base[i];
      else if (f.kind == FaultKind::kArcDrop)
        f.id += arc_base[i];
      else
        f.id += arc_base[i] / 2;
      merged.faults.push_back(f);
    }
  }

  const std::vector<ArcId> arc_base_of = arc_base;
  InterleavedComposite comp(work, std::move(node_base), std::move(arc_base),
                            std::move(inst_of_node));
  Network net(uni);
  RunOptions local = opts;
  if (!merged.empty()) local.faults = &merged;
  const RunResult ures = net.run(comp, local);

  CompositeResult out;
  out.rounds = ures.rounds;
  out.messages = ures.messages;
  out.fault_dropped = ures.fault_dropped;
  out.fault_corrupted = ures.fault_corrupted;
  out.finished = ures.finished;
  out.parent_edge_congestion.assign(parent.edge_count(), 0);
  out.per_instance.reserve(work.size());
  for (std::size_t i = 0; i < work.size(); ++i) {
    const Graph& sub = work[i].part->graph;
    const ArcId abase = arc_base_of[i];
    RunResult res;
    res.rounds = comp.instance_rounds(i, ures.rounds);
    res.finished = comp.instance_finished(i);
    res.arc_sends.assign(ures.arc_sends.begin() + abase,
                         ures.arc_sends.begin() + abase + sub.arc_count());
    for (const std::uint64_t s : res.arc_sends) res.messages += s;
    for (EdgeId e = 0; e < sub.edge_count(); ++e)
      out.parent_edge_congestion[work[i].part->parent_edge[e]] +=
          res.edge_congestion(sub, e);
    out.per_instance.push_back(std::move(res));
  }
  return out;
}

}  // namespace

CompositeResult run_edge_disjoint(const Graph& parent,
                                  std::span<const EdgeDisjointInstance> work,
                                  const RunOptions& opts,
                                  CompositeMode mode) {
  if (opts.faults != nullptr && !opts.faults->empty())
    throw std::logic_error(
        "run_edge_disjoint: set per-instance EdgeDisjointInstance::faults, "
        "not RunOptions::faults (composite ids are internal)");
  verify_edge_disjoint(parent, work);
  if (work.empty()) {
    CompositeResult out;
    out.finished = true;
    out.parent_edge_congestion.assign(parent.edge_count(), 0);
    return out;
  }
  return mode == CompositeMode::kSequential
             ? run_sequential(parent, work, opts)
             : run_interleaved(parent, work, opts);
}

}  // namespace fc::congest
