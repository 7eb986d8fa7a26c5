#include "core/decomposition.hpp"

#include <algorithm>
#include <cmath>
#include <memory>

namespace fc::core {

bool Decomposition::all_spanning() const {
  for (bool s : spanning)
    if (!s) return false;
  return !spanning.empty();
}

std::uint32_t Decomposition::max_tree_depth() const {
  std::uint32_t d = 0;
  for (std::size_t i = 0; i < trees.size(); ++i)
    if (spanning[i]) d = std::max(d, trees[i].depth);
  return d;
}

double Decomposition::diameter_budget(NodeId n, std::uint32_t min_degree,
                                      double C) {
  if (n < 2 || min_degree == 0) return 0;
  return C * static_cast<double>(n) * std::log(static_cast<double>(n)) /
         static_cast<double>(min_degree);
}

Decomposition decompose(const Graph& g, std::uint32_t lambda,
                        const DecompositionOptions& opts) {
  Decomposition out;
  out.parts = theorem2_part_count(lambda, g.node_count(), opts.C);
  out.partition = random_edge_partition(g, out.parts, opts.seed);

  // One BFS per part from a common root. The parts are edge-disjoint, so
  // all BFS instances execute concurrently; the round cost is the max.
  std::vector<std::unique_ptr<algo::DistributedBfs>> algs;
  std::vector<congest::EdgeDisjointInstance> work;
  algs.reserve(out.parts);
  work.reserve(out.parts);
  for (auto& part : out.partition.parts) {
    algs.push_back(
        std::make_unique<algo::DistributedBfs>(part.graph, opts.root));
    work.push_back({&part, algs.back().get()});
  }
  const auto composite = congest::run_edge_disjoint(g, work, opts.engine);
  out.messages = composite.messages;

  out.trees.reserve(out.parts);
  out.spanning.reserve(out.parts);
  for (std::uint32_t i = 0; i < out.parts; ++i) {
    out.trees.push_back(
        algo::extract_tree(out.partition.parts[i].graph, *algs[i]));
    out.spanning.push_back(out.trees.back().covered == g.node_count());
  }

  // Vote convergecast cost: each node knows, per part, whether it was
  // reached within the depth budget; the AND of the votes travels up and
  // back down a parent-graph BFS tree. We charge the standard 2*depth(G)
  // rounds for it (one λ'-bit vote fits in O(λ'/log n) = O(1) messages per
  // tree edge when λ' = O(log n); for larger λ' the votes pipeline, adding
  // O(λ'/ log n) ≤ O(depth) extra rounds which the 2x already dominates).
  const auto parent_bfs = bfs_tree(g, opts.root);
  out.check_rounds = composite.rounds + 2ull * parent_bfs.depth();
  return out;
}

}  // namespace fc::core
