#pragma once
// Batch k-source shortest paths: one CONGEST execution answers k SSSP
// queries by pipelining per-source frontier announcements — the Theorem 1 /
// Lemma 1 broadcast discipline (one message per arc per round, FIFO relays)
// applied to k concurrent Bellman–Ford waves instead of k broadcast items.
//
// Every node keeps a per-source tentative distance and a FIFO of sources
// whose distance improved but has not been re-announced yet; each round it
// re-announces ONE queued source (always with the CURRENT distance, so a
// superseded improvement is never sent) over every arc except that source's
// parent arc. The k waves share every edge round-robin, which gives the
// pipelined bound: O(hop-eccentricity + k) rounds on unit-weight graphs —
// versus k·O(hop-eccentricity) for k independent executions — and the same
// O(depth + k) shape plus the usual Bellman–Ford correction terms on
// weighted graphs. Per-edge congestion is O(k) per relaxation wave instead
// of k times the single-source congestion; total messages match the sum of
// the k independent runs' message volumes asymptotically (every relaxation
// still has to cross every edge once).
//
// Relaxation is strict and the inbox is arc-sorted, so the execution is
// deterministic at every thread count; the FINAL distance vector of each
// query is the unique shortest-path distance, hence bit-identical to k
// independent apps::distributed_sssp runs (and to serial Dijkstra) —
// tests/test_batch_sssp.cpp enforces exactly that. Parent arcs are
// shortest-path-consistent but may break ties differently from the
// independent runs (waves arrive in a different round order).
//
// Terminates by quiescence, like DistributedBellmanFord.

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "congest/network.hpp"
#include "congest/quiescence.hpp"
#include "graph/weighted_graph.hpp"

namespace fc::apps {

class BatchBellmanFord : public congest::Algorithm {
 public:
  /// `sources[i]` is the source of query i. Throws std::invalid_argument
  /// when empty or any source is out of range. Duplicate sources are
  /// allowed (queries are answered independently).
  BatchBellmanFord(const WeightedGraph& g, std::vector<NodeId> sources);

  std::string name() const override { return "batch-sssp/bellman-ford"; }
  void start(congest::Context& ctx) override;
  void step(congest::Context& ctx) override;
  bool done() const override;
  void round_started(std::uint64_t round) override {
    quiescence_.note_round(round);
  }

  std::uint32_t k() const { return static_cast<std::uint32_t>(sources_.size()); }
  const std::vector<NodeId>& sources() const { return sources_; }
  /// Distance of v from sources()[s]; kInfWeight when unreachable.
  Weight dist(std::uint32_t s, NodeId v) const {
    return dist_[std::size_t{v} * sources_.size() + s];
  }
  /// The full distance vector of query s (n entries).
  std::vector<Weight> source_distances(std::uint32_t s) const;
  /// Outgoing arc towards query s's shortest-path parent; kInvalidArc for
  /// the source and unreachable nodes.
  ArcId parent_arc(std::uint32_t s, NodeId v) const {
    return parent_arc_[std::size_t{v} * sources_.size() + s];
  }

 private:
  const WeightedGraph* g_;
  std::vector<NodeId> sources_;
  std::vector<Weight> dist_;          // [v * k + s]
  std::vector<ArcId> parent_arc_;     // [v * k + s]
  std::vector<std::uint8_t> queued_;  // [v * k + s]: s in v's FIFO
  std::vector<std::deque<std::uint32_t>> queue_;  // per node: pending sources
  congest::QuiescenceDetector quiescence_;
};

struct BatchSsspOptions {
  /// Engine knobs for the one batched run. Under telemetry each query's
  /// launch is annotated "batch-sssp/gen=<s>", so the pipelined generations
  /// show up as instant events in exported traces.
  congest::RunOptions engine{.max_rounds = 10'000'000};
  /// Warm engine to reuse; engaged only when bound to EXACTLY g.graph()
  /// (the serve layer's pooled Network), otherwise a fresh engine is built.
  congest::Network* network = nullptr;
};

/// Per-query outcome plus the shared engine costs of the one batched run.
struct BatchSsspReport {
  std::vector<NodeId> sources;
  /// dist[s] is query s's full distance vector (kInfWeight = unreachable),
  /// bit-identical to distributed_sssp(g, sources[s]).dist.
  std::vector<std::vector<Weight>> dist;
  std::vector<NodeId> reached;   // per query: nodes with finite distance
  std::vector<Weight> max_dist;  // per query: weighted eccentricity
  std::uint64_t rounds = 0;
  std::uint64_t messages = 0;
  std::vector<std::uint64_t> arc_sends;
  bool finished = false;
  /// The run was truncated by an expired engine.cancel token;
  /// per-query distances are a valid partial relaxation, not the fixpoint.
  bool cancelled = false;

  std::uint64_t max_arc_congestion() const;
  std::uint64_t max_edge_congestion(const Graph& g) const;
};

/// Run the pipelined batch Bellman–Ford for all `sources` in ONE engine
/// execution and fold the costs into a report.
BatchSsspReport batch_sssp(const WeightedGraph& g, std::vector<NodeId> sources,
                           const BatchSsspOptions& opts = {});

/// The canonical source set for "--sources=k" style batch workloads: node
/// ids 0..k-1. Throws std::invalid_argument when k == 0 or k > n — batch
/// queries on a graph with fewer nodes than sources are a spec error.
std::vector<NodeId> default_sources(const Graph& g, std::uint64_t k);

/// Seed-keyed random source placement (`source_mode=random`): k DISTINCT
/// nodes drawn by a partial Fisher–Yates shuffle of [0, n) on an Rng seeded
/// from mix64(seed, n) — deterministic in (n, k, seed) alone, and
/// prefix-stable: the same (n, seed) at a larger k extends the smaller k's
/// placement instead of reshuffling it. Same validation as default_sources.
std::vector<NodeId> random_sources(const Graph& g, std::uint64_t k,
                                   std::uint64_t seed);

}  // namespace fc::apps
