#pragma once
// The communication-free edge decomposition (paper Theorem 2 / Lemma 5).
//
// Split G into λ' = max(1, ⌊λ/(C ln n)⌋) edge-disjoint subgraphs by giving
// each edge a uniformly random colour derived from a shared seed and the
// edge's endpoint ids — zero rounds of communication, because both
// endpoints evaluate the same hash. Theorem 2 says each part is then a
// spanning subgraph of diameter O((C n log n)/δ) with probability
// 1 - n^{-Ω(C)}.
//
// `decompose` also runs the distributed validity check from the paper's
// remark: one BFS per part, executed concurrently (the parts are
// edge-disjoint), each costing O((n log n)/δ) rounds, plus a convergecast
// of the validity votes up a parent-graph BFS tree.

#include <cstdint>
#include <vector>

#include "algo/bfs.hpp"
#include "congest/runner.hpp"
#include "graph/partition.hpp"

namespace fc::core {

struct DecompositionOptions {
  double C = 2.0;            // the constant of Theorem 2
  std::uint64_t seed = 1;    // shared randomness
  NodeId root = 0;           // BFS root used by the validity check
  /// Engine knobs for the validity check's per-part BFS composite
  /// (congest::run_edge_disjoint, which rejects a fault plan).
  congest::RunOptions engine{.max_rounds = 10'000'000};
};

struct Decomposition {
  std::uint32_t parts = 0;
  EdgePartition partition;                 // subgraphs + edge colours
  std::vector<algo::SpanningTree> trees;   // BFS tree per part (may not span)
  std::vector<bool> spanning;              // part covers all nodes?
  /// Distributed cost: max over parts of the BFS rounds (concurrent,
  /// edge-disjoint) plus the vote convergecast (2 * parent BFS depth).
  std::uint64_t check_rounds = 0;
  std::uint64_t messages = 0;

  bool all_spanning() const;
  /// Max BFS-tree depth among spanning parts; depth d implies the part's
  /// diameter is between d and 2d.
  std::uint32_t max_tree_depth() const;
  /// The Theorem 2 diameter budget O((C n log n)/δ) this instance promises.
  static double diameter_budget(NodeId n, std::uint32_t min_degree, double C);
};

/// Compute the decomposition, build one BFS tree per part, and validate.
Decomposition decompose(const Graph& g, std::uint32_t lambda,
                        const DecompositionOptions& opts = {});

}  // namespace fc::core
