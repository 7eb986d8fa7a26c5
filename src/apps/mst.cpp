#include "apps/mst.hpp"

#include <algorithm>
#include <atomic>
#include <utility>

#include "algo/convergecast.hpp"
#include "congest/network.hpp"
#include "congest/quiescence.hpp"

namespace fc::apps {

namespace {

constexpr std::uint32_t kTagFrag = 1;     // a = sender's fragment id
constexpr std::uint32_t kTagMoe = 2;      // a = key weight, b = key EdgeId
constexpr std::uint32_t kTagConnect = 3;  // a = sender's fragment id, b = edge
constexpr std::uint32_t kTagMerge = 4;    // a = candidate fragment id

/// MOE key: total order on edges, so fragment minima are unique.
using MoeKey = std::pair<Weight, EdgeId>;
constexpr MoeKey kNoMoe{kInfWeight, kInvalidEdge};

/// Phase step 1: every node announces its fragment id over every arc (one
/// round), and derives its local MOE candidate — the cheapest incident edge
/// whose far endpoint answered with a different fragment id. Exactly two
/// rounds; `silenced` nodes (finished fragments, kConvergecast mode only)
/// skip the announce, and since a finished fragment has no outgoing edges,
/// their neighbours are silenced too — the component costs nothing.
class AnnouncePhase : public congest::Algorithm {
 public:
  AnnouncePhase(const WeightedGraph& g, const std::vector<NodeId>& frag,
                const std::vector<std::uint8_t>& silenced,
                std::string phase_label)
      : g_(&g), frag_(&frag), silenced_(&silenced),
        phase_label_(std::move(phase_label)) {
    const NodeId n = g.graph().node_count();
    local_.assign(n, kNoMoe);
    candidate_arc_.assign(n, kInvalidArc);
  }

  std::string name() const override { return "mst/announce"; }

  void start(congest::Context& ctx) override {
    const NodeId v = ctx.id();
    if ((*silenced_)[v]) return;
    // Fragment leaders mark the phase in the trace; (round, label) dedup
    // collapses all leaders of one announce into a single instant event.
    if ((*frag_)[v] == v) ctx.annotate(phase_label_);
    for (ArcId a = ctx.arc_begin(); a < ctx.arc_end(); ++a)
      ctx.send(a, {kTagFrag, (*frag_)[v], 0});
  }

  void step(congest::Context& ctx) override {
    const NodeId v = ctx.id();
    for (const auto& in : ctx.inbox()) {
      if (static_cast<NodeId>(in.msg.a) == (*frag_)[v]) continue;
      const EdgeId e = ctx.graph().arc_edge(in.via);
      const MoeKey key{g_->weight(e), e};
      if (key < local_[v]) {
        local_[v] = key;
        candidate_arc_[v] = in.via;
      }
    }
    if (local_[v] != kNoMoe)
      any_candidate_.store(true, std::memory_order_relaxed);
  }

  bool done() const override {
    return last_round_.load(std::memory_order_relaxed) >= 1;
  }
  /// The two-round clock lives here, not in step(), so silent components
  /// and rounds where no node runs cannot stall done().
  void round_started(std::uint64_t round) override {
    last_round_.store(round, std::memory_order_relaxed);
  }

  /// True when any fragment still has an outgoing edge (more merges due).
  bool any_candidate() const {
    return any_candidate_.load(std::memory_order_relaxed);
  }
  const MoeKey& local(NodeId v) const { return local_[v]; }
  ArcId candidate_arc(NodeId v) const { return candidate_arc_[v]; }

 private:
  const WeightedGraph* g_;
  const std::vector<NodeId>* frag_;
  const std::vector<std::uint8_t>* silenced_;
  std::string phase_label_;
  std::vector<MoeKey> local_;
  std::vector<ArcId> candidate_arc_;
  std::atomic<bool> any_candidate_{false};
  std::atomic<std::uint64_t> last_round_{0};
};

/// Flood-baseline MOE aggregation: min-flood the local candidate keys over
/// the fragment's tree arcs until quiescence (every improvement re-announced
/// over every tree arc — the cost profile ForestEcho replaces).
class MoeFloodPhase : public congest::Algorithm {
 public:
  MoeFloodPhase(const std::vector<std::uint8_t>& tree_arc,
                std::vector<MoeKey> local)
      : tree_arc_(&tree_arc), best_(std::move(local)) {}

  std::string name() const override { return "mst/moe-flood"; }

  void start(congest::Context& ctx) override {
    const NodeId v = ctx.id();
    if (best_[v] == kNoMoe) return;
    send_best(ctx, v);
  }

  void step(congest::Context& ctx) override {
    const NodeId v = ctx.id();
    bool improved = false;
    for (const auto& in : ctx.inbox()) {
      const MoeKey key{static_cast<Weight>(in.msg.a),
                       static_cast<EdgeId>(in.msg.b)};
      if (key < best_[v]) {
        best_[v] = key;
        improved = true;
      }
    }
    if (!improved) return;
    quiescence_.note_activity(ctx.round());
    send_best(ctx, v);
  }

  bool done() const override { return quiescence_.quiescent(); }
  void round_started(std::uint64_t round) override {
    quiescence_.note_round(round);
  }

  /// v's converged fragment minimum.
  const MoeKey& best(NodeId v) const { return best_[v]; }

 private:
  void send_best(congest::Context& ctx, NodeId v) {
    for (ArcId a = ctx.arc_begin(); a < ctx.arc_end(); ++a)
      if ((*tree_arc_)[a])
        ctx.send(a, {kTagMoe, static_cast<std::uint64_t>(best_[v].first),
                     best_[v].second});
  }

  const std::vector<std::uint8_t>* tree_arc_;
  std::vector<MoeKey> best_;
  congest::QuiescenceDetector quiescence_;
};

/// kConvergecast merge, step 1 of 2: winners send CONNECT over their MOE
/// arc; both endpoints mark it a tree arc. Exactly two rounds. The naming
/// itself is a ForestEcho over the merged tree (run by the host).
class ConnectPhase : public congest::Algorithm {
 public:
  ConnectPhase(const std::vector<NodeId>& frag,
               const std::vector<ArcId>& winner_arc,
               std::vector<std::uint8_t>& tree_arc)
      : frag_(&frag), winner_arc_(&winner_arc), tree_arc_(&tree_arc) {}

  std::string name() const override { return "mst/connect"; }

  void start(congest::Context& ctx) override {
    const NodeId v = ctx.id();
    const ArcId moe = (*winner_arc_)[v];
    if (moe == kInvalidArc) return;
    (*tree_arc_)[moe] = 1;
    ctx.send(moe, {kTagConnect, (*frag_)[v], ctx.graph().arc_edge(moe)});
  }

  void step(congest::Context& ctx) override {
    for (const auto& in : ctx.inbox())
      if (in.msg.tag == kTagConnect) (*tree_arc_)[in.via] = 1;
  }

  bool done() const override {
    return last_round_.load(std::memory_order_relaxed) >= 1;
  }
  void round_started(std::uint64_t round) override {
    last_round_.store(round, std::memory_order_relaxed);
  }

 private:
  const std::vector<NodeId>* frag_;
  const std::vector<ArcId>* winner_arc_;
  std::vector<std::uint8_t>* tree_arc_;
  std::atomic<std::uint64_t> last_round_{0};
};

/// Flood-baseline merge: winners send CONNECT over their MOE arc (both
/// endpoints mark it a tree arc), then the merged component floods the
/// minimum member fragment id over tree arcs until quiescence. Nodes write
/// only their own per-node state and their own outgoing-arc flags, so
/// parallel rounds stay race-free.
class MergeFloodPhase : public congest::Algorithm {
 public:
  MergeFloodPhase(const std::vector<NodeId>& frag,
                  const std::vector<ArcId>& winner_arc,
                  std::vector<std::uint8_t>& tree_arc)
      : winner_arc_(&winner_arc), tree_arc_(&tree_arc), frag_(frag) {}

  std::string name() const override { return "mst/merge-flood"; }

  void start(congest::Context& ctx) override {
    const NodeId v = ctx.id();
    const ArcId moe = (*winner_arc_)[v];
    if (moe == kInvalidArc) return;
    (*tree_arc_)[moe] = 1;
    ctx.send(moe, {kTagConnect, frag_[v], ctx.graph().arc_edge(moe)});
  }

  void step(congest::Context& ctx) override {
    const NodeId v = ctx.id();
    bool changed = false;
    for (const auto& in : ctx.inbox()) {
      if (in.msg.tag == kTagConnect && !(*tree_arc_)[in.via]) {
        (*tree_arc_)[in.via] = 1;
        changed = true;  // tell the new neighbour our fragment id
      }
      if (static_cast<NodeId>(in.msg.a) < frag_[v]) {
        frag_[v] = static_cast<NodeId>(in.msg.a);
        changed = true;
      }
    }
    if (!changed) return;
    quiescence_.note_activity(ctx.round());
    for (ArcId a = ctx.arc_begin(); a < ctx.arc_end(); ++a)
      if ((*tree_arc_)[a]) ctx.send(a, {kTagMerge, frag_[v], 0});
  }

  bool done() const override { return quiescence_.quiescent(); }
  void round_started(std::uint64_t round) override {
    quiescence_.note_round(round);
  }

  std::vector<NodeId> take_fragments() { return std::move(frag_); }

 private:
  const std::vector<ArcId>* winner_arc_;
  std::vector<std::uint8_t>* tree_arc_;
  std::vector<NodeId> frag_;
  congest::QuiescenceDetector quiescence_;
};

void accumulate(MstReport& r, const congest::RunResult& cost) {
  r.rounds += cost.rounds;
  r.messages += cost.messages;
  r.finished = r.finished && cost.finished;
  r.cancelled = r.cancelled || cost.cancelled;
  if (r.arc_sends.empty()) r.arc_sends.assign(cost.arc_sends.size(), 0);
  for (std::size_t a = 0; a < cost.arc_sends.size(); ++a)
    r.arc_sends[a] += cost.arc_sends[a];
}

}  // namespace

std::uint64_t MstReport::max_arc_congestion() const {
  return congest::max_arc_congestion(arc_sends);
}

std::uint64_t MstReport::max_edge_congestion(const Graph& g) const {
  return congest::max_edge_congestion(g, arc_sends);
}

MstReport distributed_mst(const WeightedGraph& g, const MstOptions& opts) {
  const Graph& graph = g.graph();
  const NodeId n = graph.node_count();
  const bool echo = opts.merge == MstMerge::kConvergecast;
  MstReport r;
  r.finished = true;
  if (n == 0) return r;  // no node ever steps, so no phase would terminate
  r.fragment.resize(n);
  for (NodeId v = 0; v < n; ++v) r.fragment[v] = v;
  r.arc_sends.assign(graph.arc_count(), 0);
  std::vector<std::uint8_t> tree_arc(graph.arc_count(), 0);
  std::vector<std::uint8_t> in_msf(graph.edge_count(), 0);
  // Nodes of fragments proven complete (no outgoing edge). Only the
  // kConvergecast mode silences them; the flood baseline keeps the original
  // keep-announcing behaviour for a faithful comparison.
  std::vector<std::uint8_t> complete(n, 0);
  // ONE engine serves every phase execution: run() fully resets per-run
  // state, so this is bit-identical to the former per-phase Networks and
  // drops their repeated adjacency-sized allocations.
  congest::Network net(graph);

  // Fragment count at least halves per phase, so 2^40 nodes would be needed
  // to exceed this cap legitimately; hitting it means non-termination.
  constexpr std::uint32_t kPhaseCap = 40;
  while (true) {
    AnnouncePhase announce(g, r.fragment, complete,
                           "mst/phase=" + std::to_string(r.phases + 1));
    {
      const auto cost = net.run(announce, opts.engine);
      accumulate(r, cost);
      r.announce_messages += cost.messages;
    }
    if (!announce.any_candidate() || !r.finished) break;  // forest complete
    if (++r.phases > kPhaseCap) {
      r.finished = false;
      break;
    }

    std::vector<MoeKey> local(n);
    for (NodeId v = 0; v < n; ++v) local[v] = announce.local(v);

    // Fragment minimum per node: echo (≤ 2 messages per tree edge) or the
    // baseline min-flood.
    std::vector<MoeKey> best(n);
    if (echo) {
      std::vector<algo::EchoValue> vals(n);
      for (NodeId v = 0; v < n; ++v)
        vals[v] = {static_cast<std::uint64_t>(local[v].first),
                   local[v].second};
      algo::ForestEcho agg(graph, tree_arc, std::move(vals), &complete);
      const auto cost = net.run(agg, opts.engine);
      accumulate(r, cost);
      r.merge_messages += cost.messages;
      for (NodeId v = 0; v < n; ++v)
        best[v] = {static_cast<Weight>(agg.result(v).first),
                   static_cast<EdgeId>(agg.result(v).second)};
    } else {
      MoeFloodPhase agg(tree_arc, local);
      const auto cost = net.run(agg, opts.engine);
      accumulate(r, cost);
      r.merge_messages += cost.messages;
      for (NodeId v = 0; v < n; ++v) best[v] = agg.best(v);
    }
    if (!r.finished) break;

    // Winners: the unique node per fragment whose local candidate IS the
    // fragment minimum (keys are distinct across edges).
    std::vector<ArcId> winner_arc(n, kInvalidArc);
    for (NodeId v = 0; v < n; ++v) {
      if (local[v] == kNoMoe || local[v] != best[v]) continue;
      winner_arc[v] = announce.candidate_arc(v);
      const EdgeId e = graph.arc_edge(winner_arc[v]);
      if (!in_msf[e]) {
        in_msf[e] = 1;
        r.tree_edges.push_back(e);
      }
    }
    if (echo) {
      // Fragments without an outgoing edge are done for good (an MSF never
      // regrows one): silence them from here on.
      for (NodeId v = 0; v < n; ++v)
        if (best[v] == kNoMoe) complete[v] = 1;
      ConnectPhase connect(r.fragment, winner_arc, tree_arc);
      {
        const auto cost = net.run(connect, opts.engine);
        accumulate(r, cost);
        r.merge_messages += cost.messages;
      }
      std::vector<algo::EchoValue> vals(n);
      for (NodeId v = 0; v < n; ++v) vals[v] = {r.fragment[v], 0};
      algo::ForestEcho naming(graph, tree_arc, std::move(vals), &complete);
      const auto cost = net.run(naming, opts.engine);
      accumulate(r, cost);
      r.merge_messages += cost.messages;
      for (NodeId v = 0; v < n; ++v)
        r.fragment[v] = static_cast<NodeId>(naming.result(v).first);
    } else {
      MergeFloodPhase merge(r.fragment, winner_arc, tree_arc);
      const auto cost = net.run(merge, opts.engine);
      accumulate(r, cost);
      r.merge_messages += cost.messages;
      r.fragment = merge.take_fragments();
    }
    if (!r.finished) break;  // a run hit max_rounds
  }

  std::sort(r.tree_edges.begin(), r.tree_edges.end());
  r.total_weight = edge_set_weight(g, r.tree_edges);
  return r;
}

}  // namespace fc::apps
