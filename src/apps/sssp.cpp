#include "apps/sssp.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>

namespace fc::apps {

namespace {
constexpr std::uint32_t kTagDist = 1;  // a = sender's tentative distance
}

DistributedBellmanFord::DistributedBellmanFord(const WeightedGraph& g,
                                               NodeId source)
    : g_(&g), source_(source) {
  const NodeId n = g.graph().node_count();
  if (source >= n) throw std::invalid_argument("sssp: bad source");
  dist_.assign(n, kInfWeight);
  parent_arc_.assign(n, kInvalidArc);
}

void DistributedBellmanFord::start(congest::Context& ctx) {
  if (ctx.id() != source_) return;
  dist_[source_] = 0;
  for (ArcId a = ctx.arc_begin(); a < ctx.arc_end(); ++a)
    ctx.send(a, {kTagDist, 0, 0});
}

void DistributedBellmanFord::step(congest::Context& ctx) {
  const NodeId v = ctx.id();
  bool improved = false;
  // Strict relaxation over the arc-sorted inbox: the lowest arc id wins
  // ties, deterministically.
  for (const auto& in : ctx.inbox()) {
    const Weight cand =
        static_cast<Weight>(in.msg.a) + g_->arc_weight(in.via);
    if (cand < dist_[v]) {
      dist_[v] = cand;
      parent_arc_[v] = in.via;
      improved = true;
    }
  }
  if (!improved) return;
  quiescence_.note_activity(ctx.round());
  for (ArcId a = ctx.arc_begin(); a < ctx.arc_end(); ++a)
    if (a != parent_arc_[v])
      ctx.send(a, {kTagDist, static_cast<std::uint64_t>(dist_[v]), 0});
}

bool DistributedBellmanFord::done() const { return quiescence_.quiescent(); }

std::uint64_t SsspReport::max_arc_congestion() const {
  return congest::max_arc_congestion(arc_sends);
}

std::uint64_t SsspReport::max_edge_congestion(const Graph& g) const {
  return congest::max_edge_congestion(g, arc_sends);
}

SsspReport distributed_sssp(const WeightedGraph& g, NodeId source,
                            const SsspOptions& opts) {
  SsspReport r;
  DistributedBellmanFord alg(g, source);
  // Reuse the caller's warm engine only when it is bound to exactly this
  // topology; run() resets per-run state, so reuse is bit-identical.
  std::optional<congest::Network> local;
  congest::Network& net =
      opts.network != nullptr && &opts.network->graph() == &g.graph()
          ? *opts.network
          : local.emplace(g.graph());
  const auto cost = net.run(alg, opts.engine);
  r.dist = alg.distances();
  r.parent_arc.assign(g.graph().node_count(), kInvalidArc);
  for (NodeId v = 0; v < g.graph().node_count(); ++v)
    r.parent_arc[v] = alg.parent_arc(v);
  for (const Weight d : r.dist)
    if (d != kInfWeight) {
      ++r.reached;
      r.max_dist = std::max(r.max_dist, d);
    }
  r.rounds = cost.rounds;
  r.messages = cost.messages;
  r.arc_sends = cost.arc_sends;
  r.finished = cost.finished;
  r.cancelled = cost.cancelled;
  return r;
}

}  // namespace fc::apps
