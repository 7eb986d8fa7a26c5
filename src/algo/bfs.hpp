#pragma once
// Distributed breadth-first search (paper Lemma 2).
//
// Classic synchronous flood: the root announces level 0; every node adopts
// the first announcement it hears (lowest arc id on ties, which is
// deterministic), records the arc to its parent, and re-announces. Because
// rounds are synchronous the resulting tree is a true BFS tree: a node at
// distance d is reached exactly in round d.
//
// Terminates by quiescence in depth+O(1) rounds; on a disconnected graph it
// spans only the root's component (callers check `reached_count`), which is
// exactly the behaviour the Theorem 2 validity check needs.
//
// BatchBfs below is the k-source batch sibling: one engine run answers k
// BFS queries by pipelining per-source frontier announcements (see the
// class note).

#include <atomic>
#include <cstdint>
#include <deque>
#include <vector>

#include "congest/network.hpp"
#include "congest/quiescence.hpp"
#include "graph/properties.hpp"

namespace fc::algo {

class DistributedBfs : public congest::Algorithm {
 public:
  DistributedBfs(const Graph& g, NodeId root);

  std::string name() const override { return "bfs"; }
  void start(congest::Context& ctx) override;
  void step(congest::Context& ctx) override;
  bool done() const override;
  void round_started(std::uint64_t round) override {
    quiescence_.note_round(round);
  }

  NodeId root() const { return root_; }
  /// Distance from root; kUnreached if the flood never arrived.
  std::uint32_t dist(NodeId v) const { return dist_[v]; }
  const std::vector<std::uint32_t>& distances() const { return dist_; }
  /// Outgoing arc towards the parent; kInvalidArc for root/unreached.
  ArcId parent_arc(NodeId v) const { return parent_arc_[v]; }
  NodeId parent(NodeId v) const;
  /// Nodes reached (== n iff the graph is connected).
  NodeId reached_count() const {
    return reached_.load(std::memory_order_relaxed);
  }
  /// Tree depth (max distance among reached nodes).
  std::uint32_t depth() const;

 private:
  const Graph* graph_;
  NodeId root_;
  std::vector<std::uint32_t> dist_;
  std::vector<ArcId> parent_arc_;
  std::atomic<NodeId> reached_{0};
  congest::QuiescenceDetector quiescence_;
};

/// k-source batch BFS: one engine run answers k BFS queries by pipelining
/// per-source frontier announcements, the Theorem 1 / Lemma 1 discipline
/// (one message per arc per round, FIFO relays) applied to k concurrent
/// BFS waves instead of k broadcast items.
///
/// Every node keeps a per-source hop distance and a FIFO of sources whose
/// distance improved but has not been re-announced yet; each round it
/// re-announces ONE queued source (carrying the CURRENT distance, so a
/// superseded improvement is never sent) over every arc except that
/// source's parent arc. k waves therefore share each edge round-robin:
/// the run takes O(depth + k) pipelined rounds instead of the k·O(depth)
/// of k independent executions, with per-edge congestion O(k).
///
/// Because a wave can be delayed behind other waves, the FIRST announcement
/// a node hears for a source is not necessarily the shortest — so unlike
/// DistributedBfs, adoption is label-correcting (strictly smaller hop
/// counts win; ties keep the incumbent, lowest arc first within a round).
/// The final distances are exact BFS distances for every source —
/// identical to k independent DistributedBfs runs — and deterministic at
/// every thread count. Terminates by quiescence.
class BatchBfs : public congest::Algorithm {
 public:
  /// `sources[i]` is the root of query i. Throws std::invalid_argument when
  /// empty or any source is out of range. Duplicate sources are allowed
  /// (the queries are answered independently).
  BatchBfs(const Graph& g, std::vector<NodeId> sources);

  std::string name() const override { return "batch-bfs"; }
  void start(congest::Context& ctx) override;
  void step(congest::Context& ctx) override;
  bool done() const override;
  void round_started(std::uint64_t round) override {
    quiescence_.note_round(round);
  }

  std::uint32_t k() const { return static_cast<std::uint32_t>(sources_.size()); }
  const std::vector<NodeId>& sources() const { return sources_; }
  /// Hop distance of v from sources()[s]; kUnreached when unreachable.
  std::uint32_t dist(std::uint32_t s, NodeId v) const {
    return dist_[std::size_t{v} * sources_.size() + s];
  }
  /// The full distance vector of query s (n entries).
  std::vector<std::uint32_t> source_distances(std::uint32_t s) const;
  /// Nodes reached by query s / its BFS depth (valid once done).
  NodeId reached_count(std::uint32_t s) const;
  std::uint32_t depth(std::uint32_t s) const;

 private:
  const Graph* graph_;
  std::vector<NodeId> sources_;
  std::vector<std::uint32_t> dist_;      // [v * k + s]
  std::vector<ArcId> parent_arc_;        // [v * k + s]
  std::vector<std::uint8_t> queued_;     // [v * k + s]: s in v's FIFO
  std::vector<std::deque<std::uint32_t>> queue_;  // per node: sources to announce
  congest::QuiescenceDetector quiescence_;
};

/// A rooted spanning tree extracted from parent arcs, with child lists;
/// the common input of the pipelined broadcast and convergecast algorithms.
struct SpanningTree {
  NodeId root = kInvalidNode;
  std::vector<ArcId> parent_arc;              // node -> arc to parent
  std::vector<std::vector<ArcId>> child_arcs;  // node -> arcs to children
  std::vector<std::uint32_t> depth_of;        // node -> depth
  std::uint32_t depth = 0;
  NodeId covered = 0;  // nodes in the tree

  /// Edge ids (in the tree's graph) of all tree edges.
  std::vector<EdgeId> tree_edges(const Graph& g) const;
  bool contains(NodeId v) const {
    return v == root || parent_arc[v] != kInvalidArc;
  }
};

/// Build the tree structure from a finished BFS run.
SpanningTree extract_tree(const Graph& g, const DistributedBfs& bfs);

/// Convenience: run a distributed BFS and return (tree, rounds used).
struct BfsOutcome {
  SpanningTree tree;
  congest::RunResult cost;
};
BfsOutcome run_bfs(const Graph& g, NodeId root,
                   const congest::RunOptions& opts = {});

}  // namespace fc::algo
