#include "graph/graph.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "util/thread_pool.hpp"

namespace fc {

namespace {

// Below this size the serial path wins: the parallel build's per-thread
// histograms and extra passes cost more than they save. On a 4-thread pool
// the two paths tie from 32k to 122k edges, and the parallel one is 1.5-2x
// faster from 131k up. A cutover of 2^17 instead gained no speed and raised
// perfbench broadcast-k's peak RSS by about 1 MiB (its 32k-edge builds).
constexpr std::size_t kParallelEdgeThreshold = std::size_t{1} << 15;

// Validation outcomes, so every path and thread count reports the same
// error for the same input. Workers must NOT throw (an exception escaping
// a pool worker would terminate); they record a code, and the calling
// thread throws after the join.
enum class EdgeError : std::uint8_t {
  kNone = 0,
  kSelfLoop,
  kOutOfRange,
  kDuplicate
};

[[noreturn]] void throw_edge_error(EdgeError err) {
  switch (err) {
    case EdgeError::kSelfLoop:
      throw std::invalid_argument("Graph: self-loop");
    case EdgeError::kDuplicate:
      throw std::invalid_argument("Graph: duplicate edge (simple graphs only)");
    default:
      throw std::invalid_argument("Graph: endpoint >= n");
  }
}

// A duplicate edge {u, v} shows up as a repeated head in u's adjacency.
// Stamps mark[head] = v over the arcs of nodes [begin, end); `mark` is
// overwritten (size n), so callers may pass scratch they are done with.
// O(n + arcs scanned), no hashing and no sorting.
bool has_duplicate_edge(const Graph& g, NodeId begin, NodeId end,
                        std::vector<std::uint32_t>& mark) {
  mark.assign(g.node_count(), kInvalidNode);
  for (NodeId v = begin; v < end; ++v)
    for (ArcId a = g.arc_begin(v); a < g.arc_end(v); ++a) {
      const NodeId head = g.arc_head(a);
      if (mark[head] == v) return true;
      mark[head] = v;
    }
  return false;
}

}  // namespace

Graph Graph::from_edges(NodeId n,
                        const std::vector<std::pair<NodeId, NodeId>>& edges) {
  return from_edges(n, std::span<const std::pair<NodeId, NodeId>>(edges));
}

Graph Graph::from_edges(NodeId n,
                        std::span<const std::pair<NodeId, NodeId>> edges) {
  // The parallel build pays O(threads * n) histogram scratch and node
  // passes; only worth it when edges dominate nodes (connected-ish
  // graphs). Ultra-sparse inputs (n >> m) stay serial.
  if (edges.size() >= kParallelEdgeThreshold && n <= 4 * edges.size())
    return from_edges(n, edges, ThreadPool::global());
  return from_edges_serial(n, edges);
}

Graph Graph::from_edges_serial(
    NodeId n, std::span<const std::pair<NodeId, NodeId>> edges) {
  // Serial reference path. The parallel path below must produce a
  // bit-identical CSR; tests/test_parallel_csr.cpp holds it to that.
  Graph g;
  g.n_ = n;
  const auto m = static_cast<EdgeId>(edges.size());
  g.edge_u_.resize(m);
  g.edge_v_.resize(m);
  g.edge_arc_.assign(m, kInvalidArc);

  // Pass 1 — validate in input order, canonicalize (u < v), count degrees.
  std::vector<std::uint32_t> deg(n, 0);
  for (EdgeId e = 0; e < m; ++e) {
    auto [u, v] = edges[e];
    if (u == v) throw_edge_error(EdgeError::kSelfLoop);
    if (u >= n || v >= n) throw_edge_error(EdgeError::kOutOfRange);
    if (u > v) std::swap(u, v);
    g.edge_u_[e] = u;
    g.edge_v_[e] = v;
    ++deg[u];
    ++deg[v];
  }

  g.offsets_.resize(n + 1);
  g.offsets_[0] = 0;
  for (NodeId v = 0; v < n; ++v) g.offsets_[v + 1] = g.offsets_[v] + deg[v];

  const ArcId arcs = 2 * m;
  g.arc_head_.resize(arcs);
  g.arc_tail_.resize(arcs);
  g.arc_rev_.resize(arcs);
  g.arc_edge_.resize(arcs);

  // Pass 2 — scatter in input order.
  std::vector<ArcId> cursor(g.offsets_.begin(), g.offsets_.end() - 1);
  for (EdgeId e = 0; e < m; ++e) {
    const NodeId u = g.edge_u_[e];
    const NodeId v = g.edge_v_[e];
    const ArcId a_uv = cursor[u]++;
    const ArcId a_vu = cursor[v]++;
    g.arc_head_[a_uv] = v;
    g.arc_tail_[a_uv] = u;
    g.arc_head_[a_vu] = u;
    g.arc_tail_[a_vu] = v;
    g.arc_rev_[a_uv] = a_vu;
    g.arc_rev_[a_vu] = a_uv;
    g.arc_edge_[a_uv] = e;
    g.arc_edge_[a_vu] = e;
    g.edge_arc_[e] = a_uv;
  }

  // Pass 3 — duplicate check, reusing `cursor` as the stamp array.
  if (has_duplicate_edge(g, 0, n, cursor))
    throw_edge_error(EdgeError::kDuplicate);
  return g;
}

Graph Graph::from_edges(NodeId n,
                        std::span<const std::pair<NodeId, NodeId>> edges,
                        ThreadPool& pool) {
  Graph g;
  g.n_ = n;
  const auto m = static_cast<EdgeId>(edges.size());
  g.edge_u_.resize(m);
  g.edge_v_.resize(m);
  g.edge_arc_.assign(m, kInvalidArc);

  const std::size_t threads = pool.size();

  // Pass 1 — validate, canonicalize (u < v), and count degrees into one
  // histogram per worker. parallel_chunks assigns worker w the fixed range
  // [w*ceil(m/T), ...), so hist[w] covers a contiguous, ordered slice of the
  // edge list — the property the deterministic scatter below builds on.
  std::vector<std::vector<std::uint32_t>> hist(
      threads, std::vector<std::uint32_t>(n, 0));
  std::vector<EdgeError> error(threads, EdgeError::kNone);
  pool.parallel_chunks(m, [&](std::size_t w, std::size_t begin,
                              std::size_t end) {
    auto& deg = hist[w];
    for (std::size_t e = begin; e < end; ++e) {
      auto [u, v] = edges[e];
      if (u == v) {
        if (error[w] == EdgeError::kNone) error[w] = EdgeError::kSelfLoop;
        continue;
      }
      if (u >= n || v >= n) {
        if (error[w] == EdgeError::kNone) error[w] = EdgeError::kOutOfRange;
        continue;
      }
      if (u > v) std::swap(u, v);
      g.edge_u_[e] = u;
      g.edge_v_[e] = v;
      ++deg[u];
      ++deg[v];
    }
  });
  for (const EdgeError err : error)
    if (err != EdgeError::kNone) throw_edge_error(err);

  // Pass 2 — per-node exclusive scan across workers: hist[w][v] becomes the
  // number of incident edges v has in chunks before w; deg_total holds the
  // full degree. Parallel over nodes (each node's column is private).
  std::vector<std::uint32_t> deg_total(n, 0);
  pool.parallel_chunks(n, [&](std::size_t, std::size_t begin,
                              std::size_t end) {
    for (std::size_t v = begin; v < end; ++v) {
      std::uint32_t running = 0;
      for (std::size_t w = 0; w < threads; ++w) {
        const std::uint32_t count = hist[w][v];
        hist[w][v] = running;
        running += count;
      }
      deg_total[v] = running;
    }
  });

  // Offsets: a serial O(n) scan (the passes around it dominate).
  g.offsets_.resize(n + 1);
  g.offsets_[0] = 0;
  for (NodeId v = 0; v < n; ++v)
    g.offsets_[v + 1] = g.offsets_[v] + deg_total[v];

  // Pass 3 — turn the per-worker scans into absolute CSR cursors.
  pool.parallel_chunks(n, [&](std::size_t, std::size_t begin,
                              std::size_t end) {
    for (std::size_t v = begin; v < end; ++v)
      for (std::size_t w = 0; w < threads; ++w) hist[w][v] += g.offsets_[v];
  });

  const ArcId arcs = 2 * m;
  g.arc_head_.resize(arcs);
  g.arc_tail_.resize(arcs);
  g.arc_rev_.resize(arcs);
  g.arc_edge_.resize(arcs);

  // Pass 4 — scatter. Worker w walks the SAME chunk as in pass 1 in input
  // order, so edge e lands at offsets[u] + #(earlier input edges incident to
  // u): exactly the serial layout, for every thread count. No two workers
  // share a cursor, so the pass is data-race-free by construction.
  pool.parallel_chunks(m, [&](std::size_t w, std::size_t begin,
                              std::size_t end) {
    auto& cursor = hist[w];
    for (std::size_t e = begin; e < end; ++e) {
      const NodeId u = g.edge_u_[e];
      const NodeId v = g.edge_v_[e];
      const ArcId a_uv = cursor[u]++;
      const ArcId a_vu = cursor[v]++;
      g.arc_head_[a_uv] = v;
      g.arc_tail_[a_uv] = u;
      g.arc_head_[a_vu] = u;
      g.arc_tail_[a_vu] = v;
      g.arc_rev_[a_uv] = a_vu;
      g.arc_rev_[a_vu] = a_uv;
      g.arc_edge_[a_uv] = static_cast<EdgeId>(e);
      g.arc_edge_[a_vu] = static_cast<EdgeId>(e);
      g.edge_arc_[e] = a_uv;
    }
  });

  // Pass 5 — duplicate detection, parallel over nodes. Each worker's
  // histogram is spent after the scatter and becomes its stamp array.
  pool.parallel_chunks(n, [&](std::size_t w, std::size_t begin,
                              std::size_t end) {
    if (has_duplicate_edge(g, static_cast<NodeId>(begin),
                           static_cast<NodeId>(end), hist[w]))
      error[w] = EdgeError::kDuplicate;
  });
  for (const EdgeError err : error)
    if (err != EdgeError::kNone) throw_edge_error(err);
  return g;
}

ArcId Graph::find_arc(NodeId v, NodeId w) const {
  for (ArcId a = arc_begin(v); a < arc_end(v); ++a)
    if (arc_head_[a] == w) return a;
  return kInvalidArc;
}

std::vector<std::pair<NodeId, NodeId>> Graph::edge_list() const {
  std::vector<std::pair<NodeId, NodeId>> out(edge_count());
  for (EdgeId e = 0; e < edge_count(); ++e) out[e] = {edge_u_[e], edge_v_[e]};
  return out;
}

std::string Graph::describe() const {
  std::uint32_t dmin = n_ ? degree(0) : 0, dmax = dmin;
  for (NodeId v = 0; v < n_; ++v) {
    dmin = std::min(dmin, degree(v));
    dmax = std::max(dmax, degree(v));
  }
  std::ostringstream os;
  os << "Graph(n=" << n_ << ", m=" << edge_count() << ", deg=[" << dmin << ","
     << dmax << "])";
  return os.str();
}

Subgraph make_subgraph(const Graph& parent, std::span<const EdgeId> keep) {
  std::vector<std::pair<NodeId, NodeId>> edges;
  edges.reserve(keep.size());
  Subgraph out;
  out.parent_edge.reserve(keep.size());
  for (EdgeId e : keep) {
    edges.emplace_back(parent.edge_u(e), parent.edge_v(e));
    out.parent_edge.push_back(e);
  }
  out.graph = Graph::from_edges(parent.node_count(), edges);
  return out;
}

}  // namespace fc
