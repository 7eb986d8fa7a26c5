#pragma once
// Distributed single-source shortest paths: synchronous Bellman–Ford on the
// CONGEST engine.
//
// The source announces distance 0; every node that improves its tentative
// distance re-announces the new value to its other neighbours next round
// (the arc the improvement arrived on is skipped — the parent cannot profit
// from it). Relaxation is strict and the inbox is sorted by arc id, so ties
// resolve to the lowest arc — the run is deterministic at every thread
// count. Terminates by quiescence (one full round without a send), like
// DistributedBfs; with nonnegative weights that happens within
// hop-diameter + O(1) rounds of the last improvement, at most O(n) rounds
// and O(n·m) messages in the classic Bellman–Ford accounting.
//
// The serial reference is fc::dijkstra: tests assert the distance vectors
// are identical entry for entry (kInfWeight for unreachable nodes).

#include <cstdint>
#include <string>
#include <vector>

#include "congest/network.hpp"
#include "congest/quiescence.hpp"
#include "graph/weighted_graph.hpp"

namespace fc::apps {

class DistributedBellmanFord : public congest::Algorithm {
 public:
  DistributedBellmanFord(const WeightedGraph& g, NodeId source);

  std::string name() const override { return "sssp/bellman-ford"; }
  void start(congest::Context& ctx) override;
  void step(congest::Context& ctx) override;
  bool done() const override;
  void round_started(std::uint64_t round) override {
    quiescence_.note_round(round);
  }

  NodeId source() const { return source_; }
  /// Distance from the source; kInfWeight when unreachable.
  Weight dist(NodeId v) const { return dist_[v]; }
  const std::vector<Weight>& distances() const { return dist_; }
  /// Outgoing arc towards the shortest-path parent; kInvalidArc for the
  /// source and unreachable nodes.
  ArcId parent_arc(NodeId v) const { return parent_arc_[v]; }

 private:
  const WeightedGraph* g_;
  NodeId source_;
  std::vector<Weight> dist_;
  std::vector<ArcId> parent_arc_;
  congest::QuiescenceDetector quiescence_;
};

struct SsspOptions {
  /// Engine knobs for the one run. Fault ids are in g.graph()'s id space.
  congest::RunOptions engine{.max_rounds = 10'000'000};
  /// Warm engine to reuse; engaged only when bound to EXACTLY g.graph()
  /// (the serve layer's pooled Network), otherwise a fresh engine is built.
  congest::Network* network = nullptr;
};

struct SsspReport {
  std::vector<Weight> dist;
  std::vector<ArcId> parent_arc;
  NodeId reached = 0;     // nodes with a finite distance (incl. the source)
  Weight max_dist = 0;    // eccentricity of the source in the weighted sense
  std::uint64_t rounds = 0;
  std::uint64_t messages = 0;
  std::vector<std::uint64_t> arc_sends;
  bool finished = false;
  /// The run was truncated by an expired engine.cancel token; the
  /// distances are a valid partial relaxation, not the fixpoint.
  bool cancelled = false;

  std::uint64_t max_arc_congestion() const;
  std::uint64_t max_edge_congestion(const Graph& g) const;
};

/// Run distributed Bellman–Ford from `source` and fold the engine costs
/// into a report. Throws std::invalid_argument when source >= n.
SsspReport distributed_sssp(const WeightedGraph& g, NodeId source,
                            const SsspOptions& opts = {});

}  // namespace fc::apps
