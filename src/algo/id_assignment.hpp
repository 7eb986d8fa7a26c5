#pragma once
// Item id assignment over a spanning tree (paper Lemma 3).
//
// Each node holds x_v items. Pass 1 (up): subtree item counts converge to
// the root. Pass 2 (down): the root takes ids [0, x_root) and hands each
// child a disjoint id range sized by the child's subtree count; every node
// recursively does the same. After O(depth) rounds each node knows a
// globally unique id interval [first(v), first(v)+x_v) for its items, and
// every node can learn the total X as well.

#include <atomic>
#include <cstdint>
#include <vector>

#include "algo/bfs.hpp"
#include "congest/network.hpp"

namespace fc::algo {

class IdAssignment : public congest::Algorithm {
 public:
  IdAssignment(const Graph& g, const SpanningTree& tree,
               std::vector<std::uint64_t> item_counts);

  std::string name() const override { return "id-assignment"; }
  void start(congest::Context& ctx) override;
  /// Purely message-driven: a node acts only when a child count or a
  /// parent range arrives (send_up_if_ready re-fires only on the step
  /// that retired the last waiting child), so the empty-inbox step is
  /// already a no-op and no wakeups are needed.
  void step(congest::Context& ctx) override;
  bool done() const override;

  /// First id assigned to node v's items (valid once done()).
  std::uint64_t first_id(NodeId v) const { return first_[v]; }
  std::uint64_t item_count(NodeId v) const { return count_[v]; }
  /// Total number of items X (as known by the root).
  std::uint64_t total() const { return subtree_[tree_->root]; }

 private:
  void send_up_if_ready(congest::Context& ctx);
  void assign_children(congest::Context& ctx);

  const SpanningTree* tree_;
  std::vector<std::uint64_t> count_;     // x_v
  std::vector<std::uint64_t> subtree_;   // subtree totals (accumulating)
  std::vector<std::uint64_t> child_sub_; // per child-arc subtree counts
  std::vector<std::uint32_t> child_off_; // offset into child_sub_ per node
  std::vector<std::uint32_t> waiting_;
  std::vector<std::uint8_t> sent_up_;
  std::vector<std::uint64_t> first_;
  std::vector<std::uint8_t> assigned_;
  std::atomic<NodeId> completed_{0};
  NodeId n_;
};

}  // namespace fc::algo
