// The parallel CSR build's contract: bit-identical layout to the serial
// reference at every thread count, and the same validation errors — raised
// on the calling thread, never inside a pool worker.

#include "graph/graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "graph/generators.hpp"
#include "scenario/graph_io.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace fc {
namespace {

using EdgeList = std::vector<std::pair<NodeId, NodeId>>;

/// Every array the CSR is made of, including arc order and the arc/edge
/// cross-references.
void expect_identical(const Graph& a, const Graph& b) {
  ASSERT_EQ(a.node_count(), b.node_count());
  ASSERT_EQ(a.edge_count(), b.edge_count());
  ASSERT_EQ(a.arc_count(), b.arc_count());
  for (NodeId v = 0; v < a.node_count(); ++v) {
    ASSERT_EQ(a.arc_begin(v), b.arc_begin(v));
    ASSERT_EQ(a.arc_end(v), b.arc_end(v));
  }
  for (ArcId arc = 0; arc < a.arc_count(); ++arc) {
    ASSERT_EQ(a.arc_head(arc), b.arc_head(arc));
    ASSERT_EQ(a.arc_tail(arc), b.arc_tail(arc));
    ASSERT_EQ(a.arc_reverse(arc), b.arc_reverse(arc));
    ASSERT_EQ(a.arc_edge(arc), b.arc_edge(arc));
  }
  for (EdgeId e = 0; e < a.edge_count(); ++e) {
    ASSERT_EQ(a.edge_u(e), b.edge_u(e));
    ASSERT_EQ(a.edge_v(e), b.edge_v(e));
    ASSERT_EQ(a.edge_arcs(e), b.edge_arcs(e));
  }
  EXPECT_EQ(scenario::graph_checksum(a), scenario::graph_checksum(b));
}

EdgeList scrambled_edges(NodeId n, std::uint64_t seed) {
  Rng rng(seed);
  Graph g = gen::erdos_renyi(n, 8.0 / n, rng);
  EdgeList edges = g.edge_list();
  // Shuffle and flip orientations so the input is far from canonical.
  for (std::size_t i = edges.size(); i > 1; --i)
    std::swap(edges[i - 1], edges[rng.below(i)]);
  for (std::size_t i = 0; i < edges.size(); i += 3)
    std::swap(edges[i].first, edges[i].second);
  return edges;
}

TEST(ParallelCsr, MatchesSerialAcrossThreadCounts) {
  const NodeId n = 2000;
  const EdgeList edges = scrambled_edges(n, 42);
  const Graph serial = Graph::from_edges_serial(n, edges);
  for (const std::size_t threads : {1u, 2u, 8u}) {
    SCOPED_TRACE(threads);
    ThreadPool pool(threads);
    expect_identical(serial, Graph::from_edges(n, edges, pool));
  }
}

TEST(ParallelCsr, AutomaticPathMatchesSerialAboveThreshold) {
  // 40k edges crosses the internal serial/parallel cutover.
  Rng rng(7);
  const Graph g = gen::random_regular(10000, 8, rng);
  const EdgeList edges = g.edge_list();
  expect_identical(Graph::from_edges_serial(10000, edges),
                   Graph::from_edges(10000, edges));
}

TEST(ParallelCsr, EmptyAndTinyGraphs) {
  ThreadPool pool(4);
  const Graph empty = Graph::from_edges(0, EdgeList{}, pool);
  EXPECT_EQ(empty.node_count(), 0u);
  EXPECT_EQ(empty.arc_count(), 0u);
  const Graph one = Graph::from_edges(1, EdgeList{}, pool);
  EXPECT_EQ(one.node_count(), 1u);
  EXPECT_EQ(one.degree(0), 0u);
  const Graph pair = Graph::from_edges(2, EdgeList{{0, 1}}, pool);
  EXPECT_EQ(pair.edge_count(), 1u);
  EXPECT_EQ(pair.arc_reverse(0), 1u);
}

TEST(ParallelCsr, RejectsSelfLoop) {
  ThreadPool pool(4);
  EdgeList edges = scrambled_edges(500, 3);
  edges[edges.size() / 2] = {17, 17};
  try {
    Graph::from_edges(500, edges, pool);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& err) {
    EXPECT_STREQ(err.what(), "Graph: self-loop");
  }
}

TEST(ParallelCsr, RejectsOutOfRangeEndpoint) {
  ThreadPool pool(4);
  EdgeList edges = scrambled_edges(500, 4);
  edges.back() = {3, 500};
  try {
    Graph::from_edges(500, edges, pool);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& err) {
    EXPECT_STREQ(err.what(), "Graph: endpoint >= n");
  }
}

TEST(ParallelCsr, RejectsDuplicateEdgesEitherOrientation) {
  ThreadPool pool(4);
  for (const auto dup : {std::pair<NodeId, NodeId>{1, 2},
                         std::pair<NodeId, NodeId>{2, 1}}) {
    EdgeList edges = scrambled_edges(500, 5);
    edges.erase(std::remove(edges.begin(), edges.end(),
                            std::pair<NodeId, NodeId>{1, 2}),
                edges.end());
    edges.erase(std::remove(edges.begin(), edges.end(),
                            std::pair<NodeId, NodeId>{2, 1}),
                edges.end());
    edges.push_back({1, 2});
    edges.push_back(dup);
    try {
      Graph::from_edges(500, edges, pool);
      FAIL() << "expected invalid_argument";
    } catch (const std::invalid_argument& err) {
      EXPECT_STREQ(err.what(), "Graph: duplicate edge (simple graphs only)");
    }
  }
}

/// The message `build` throws, or "" when it succeeds.
template <typename Build>
std::string error_of(Build build) {
  try {
    build();
  } catch (const std::invalid_argument& err) {
    return err.what();
  }
  return "";
}

TEST(ParallelCsr, SerialAndParallelAgreeOnMixedBadInput) {
  // Self-loops and out-of-range endpoints win over duplicates wherever
  // they sit in the input: both paths validate every edge first, then
  // look for duplicates in the finished CSR.
  struct Case {
    NodeId n;
    EdgeList edges;
    const char* expected;
  };
  EdgeList dup_then_loop = scrambled_edges(500, 8);
  dup_then_loop.insert(dup_then_loop.begin(), dup_then_loop[5]);
  dup_then_loop.back() = {42, 42};
  EdgeList dup_then_range = scrambled_edges(500, 9);
  dup_then_range.insert(dup_then_range.begin() + 1,
                        {dup_then_range[0].second, dup_then_range[0].first});
  dup_then_range[dup_then_range.size() - 2] = {500, 3};
  const std::vector<Case> cases = {
      {5, {{1, 2}, {2, 1}, {3, 3}}, "Graph: self-loop"},
      {5, {{0, 1}, {1, 0}, {2, 9}}, "Graph: endpoint >= n"},
      {5,
       {{1, 2}, {3, 4}, {2, 1}},
       "Graph: duplicate edge (simple graphs only)"},
      {500, dup_then_loop, "Graph: self-loop"},
      {500, dup_then_range, "Graph: endpoint >= n"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.expected);
    EXPECT_EQ(error_of([&] { Graph::from_edges_serial(c.n, c.edges); }),
              c.expected);
    EXPECT_EQ(error_of([&] { Graph::from_edges(c.n, c.edges); }),
              c.expected);
    for (const std::size_t threads : {1u, 2u, 8u}) {
      SCOPED_TRACE(threads);
      ThreadPool pool(threads);
      EXPECT_EQ(error_of([&] { Graph::from_edges(c.n, c.edges, pool); }),
                c.expected);
    }
  }
}

TEST(ParallelCsr, ChecksumStableAcrossThreadCounts) {
  // The corpus checksum is over the CSR identity, so it must be invariant
  // under the build's parallelism (the determinism contract end to end).
  const EdgeList edges = scrambled_edges(3000, 99);
  std::uint64_t expected = 0;
  for (const std::size_t threads : {1u, 3u, 8u}) {
    ThreadPool pool(threads);
    const auto checksum =
        scenario::graph_checksum(Graph::from_edges(3000, edges, pool));
    if (expected == 0) expected = checksum;
    EXPECT_EQ(checksum, expected) << threads << " threads";
  }
}

TEST(ParallelWeightedGraph, FromEdgesMatchesConstructor) {
  const NodeId n = 1200;
  const EdgeList edges = scrambled_edges(n, 11);
  std::vector<Weight> weights(edges.size());
  Rng rng(12);
  for (auto& w : weights) w = static_cast<Weight>(rng.below(1000));
  const WeightedGraph direct(Graph::from_edges_serial(n, edges), weights);
  for (const std::size_t threads : {1u, 8u}) {
    ThreadPool pool(threads);
    const WeightedGraph parallel =
        WeightedGraph::from_edges(n, edges, weights, &pool);
    expect_identical(direct.graph(), parallel.graph());
    for (EdgeId e = 0; e < direct.graph().edge_count(); ++e)
      ASSERT_EQ(direct.weight(e), parallel.weight(e));
  }
}

TEST(ParallelWeightedGraph, RejectsNegativeWeightAndCountMismatch) {
  ThreadPool pool(4);
  const EdgeList edges = scrambled_edges(800, 21);
  std::vector<Weight> weights(edges.size(), 1);
  weights[weights.size() - 3] = -5;
  EXPECT_THROW(WeightedGraph::from_edges(800, edges, weights, &pool),
               std::invalid_argument);
  weights.assign(edges.size() - 1, 1);
  EXPECT_THROW(WeightedGraph::from_edges(800, edges, weights, &pool),
               std::invalid_argument);
}

}  // namespace
}  // namespace fc
