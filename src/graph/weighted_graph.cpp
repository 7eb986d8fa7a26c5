#include "graph/weighted_graph.hpp"

#include <algorithm>
#include <numeric>
#include <queue>
#include <stdexcept>

#include "util/thread_pool.hpp"

namespace fc {

namespace {

// The same value as Graph::from_edges' cutover, so a weighted build is
// either serial or parallel throughout. The scan alone would not need it
// this low: a serial scan keeps up with a 4-thread scan up to about 2^17
// weights.
constexpr std::size_t kParallelWeightThreshold = std::size_t{1} << 15;

// Workers only record a flag; the calling thread throws after the join.
void check_nonnegative(std::span<const Weight> weights, ThreadPool* pool) {
  bool negative = false;
  if (pool == nullptr && weights.size() < kParallelWeightThreshold) {
    for (const Weight w : weights) negative = negative || w < 0;
  } else {
    ThreadPool& p = pool != nullptr ? *pool : ThreadPool::global();
    std::vector<std::uint8_t> bad(p.size(), 0);
    p.parallel_chunks(weights.size(), [&](std::size_t w, std::size_t begin,
                                          std::size_t end) {
      for (std::size_t i = begin; i < end; ++i)
        if (weights[i] < 0) bad[w] = 1;
    });
    for (const std::uint8_t b : bad) negative = negative || b != 0;
  }
  if (negative)
    throw std::invalid_argument("WeightedGraph: negative weight");
}

}  // namespace

WeightedGraph::WeightedGraph(Graph g, std::vector<Weight> weights)
    : graph_(std::move(g)), weights_(std::move(weights)) {
  if (weights_.size() != graph_.edge_count())
    throw std::invalid_argument("WeightedGraph: weight count != edge count");
  check_nonnegative(weights_, nullptr);
}

WeightedGraph WeightedGraph::from_edges(
    NodeId n, std::span<const std::pair<NodeId, NodeId>> edges,
    std::vector<Weight> weights, ThreadPool* pool) {
  if (weights.size() != edges.size())
    throw std::invalid_argument("WeightedGraph: weight count != edge count");
  Graph g = pool != nullptr ? Graph::from_edges(n, edges, *pool)
                            : Graph::from_edges(n, edges);
  check_nonnegative(weights, pool);
  WeightedGraph out;
  out.graph_ = std::move(g);
  out.weights_ = std::move(weights);
  return out;
}

Weight WeightedGraph::total_weight() const {
  Weight sum = 0;
  for (Weight w : weights_) sum += w;
  return sum;
}

std::vector<Weight> dijkstra(const WeightedGraph& g, NodeId source) {
  const Graph& graph = g.graph();
  std::vector<Weight> dist(graph.node_count(), kInfWeight);
  using Item = std::pair<Weight, NodeId>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;
  dist[source] = 0;
  pq.emplace(0, source);
  while (!pq.empty()) {
    auto [d, v] = pq.top();
    pq.pop();
    if (d != dist[v]) continue;
    for (ArcId a = graph.arc_begin(v); a < graph.arc_end(v); ++a) {
      const NodeId w = graph.arc_head(a);
      const Weight nd = d + g.arc_weight(a);
      if (nd < dist[w]) {
        dist[w] = nd;
        pq.emplace(nd, w);
      }
    }
  }
  return dist;
}

namespace {

// Union-find with path halving; small enough to keep local to Kruskal.
struct DisjointSets {
  std::vector<NodeId> parent;
  explicit DisjointSets(NodeId n) : parent(n) {
    std::iota(parent.begin(), parent.end(), NodeId{0});
  }
  NodeId find(NodeId v) {
    while (parent[v] != v) {
      parent[v] = parent[parent[v]];
      v = parent[v];
    }
    return v;
  }
  bool unite(NodeId a, NodeId b) {
    a = find(a);
    b = find(b);
    if (a == b) return false;
    parent[std::max(a, b)] = std::min(a, b);
    return true;
  }
};

}  // namespace

std::vector<EdgeId> kruskal_msf(const WeightedGraph& g) {
  const Graph& graph = g.graph();
  std::vector<EdgeId> order(graph.edge_count());
  std::iota(order.begin(), order.end(), EdgeId{0});
  std::sort(order.begin(), order.end(), [&](EdgeId a, EdgeId b) {
    return std::make_pair(g.weight(a), a) < std::make_pair(g.weight(b), b);
  });
  DisjointSets sets(graph.node_count());
  std::vector<EdgeId> out;
  out.reserve(graph.node_count() > 0 ? graph.node_count() - 1 : 0);
  for (const EdgeId e : order)
    if (sets.unite(graph.edge_u(e), graph.edge_v(e))) out.push_back(e);
  std::sort(out.begin(), out.end());
  return out;
}

Weight edge_set_weight(const WeightedGraph& g, std::span<const EdgeId> edges) {
  Weight sum = 0;
  for (const EdgeId e : edges) sum += g.weight(e);
  return sum;
}

std::vector<std::vector<Weight>> weighted_apsp_exact(const WeightedGraph& g) {
  std::vector<std::vector<Weight>> out(g.graph().node_count());
  for (NodeId v = 0; v < g.graph().node_count(); ++v) out[v] = dijkstra(g, v);
  return out;
}

}  // namespace fc
