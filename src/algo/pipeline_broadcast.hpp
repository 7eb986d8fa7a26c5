#pragma once
// Pipelined k-message broadcast over a rooted spanning tree (paper Lemma 1).
//
// Phase UP: every non-root node streams its items (and its subtree's items)
// to its parent, one message per round per tree edge. Phase DOWN: the root
// re-emits items in arrival order, one per round, to all children; interior
// nodes relay FIFO. The phases overlap freely — the root starts re-emitting
// as soon as the first item arrives — which gives the textbook O(D + k)
// round bound with congestion O(k) per edge.
//
// Accounting of "received": the root counts items on arrival (plus its own);
// every other node counts only the DOWN copy, which the tree delivers
// exactly once. Hence no per-id dedup state is needed, and each node ends
// with exactly k items. A per-node checksum (sum of mixed id/payload words)
// lets tests verify content integrity without storing n*k payloads.

#include <atomic>
#include <cstdint>
#include <deque>
#include <vector>

#include "algo/bfs.hpp"
#include "congest/network.hpp"
#include "util/rng.hpp"

namespace fc::algo {

/// A broadcast item: a unique id plus one payload word, initially stored at
/// `origin`. Ids need not be dense; they only need to be distinct.
struct PlacedMessage {
  NodeId origin = kInvalidNode;
  std::uint64_t id = 0;
  std::uint64_t payload = 0;
};

/// Mixed checksum of an item; order-independent (summed per node).
inline std::uint64_t message_digest(std::uint64_t id, std::uint64_t payload) {
  return mix64(id, payload, 0x9d8f3afc1c5ed21bULL);
}

class PipelineBroadcast : public congest::Algorithm {
 public:
  PipelineBroadcast(const Graph& g, const SpanningTree& tree,
                    std::vector<PlacedMessage> messages);

  std::string name() const override { return "pipeline-broadcast"; }
  void start(congest::Context& ctx) override;
  void step(congest::Context& ctx) override;
  bool done() const override;

  std::uint64_t k() const { return k_; }
  std::uint64_t received_count(NodeId v) const { return received_[v]; }
  /// Order-independent digest of everything node v received (+ its own
  /// items at the root). Equal across nodes iff contents match.
  std::uint64_t digest(NodeId v) const { return digest_[v]; }
  /// The digest all nodes must converge to.
  std::uint64_t expected_digest() const { return expected_digest_; }

 private:
  struct Item {
    std::uint64_t id;
    std::uint64_t payload;
  };
  void record(NodeId v, const Item& it);

  const SpanningTree* tree_;
  std::uint64_t k_;
  std::uint64_t expected_digest_ = 0;
  std::vector<std::deque<Item>> up_queue_;
  std::vector<std::deque<Item>> down_queue_;
  std::vector<std::uint64_t> received_;
  std::vector<std::uint64_t> digest_;
  std::atomic<NodeId> completed_{0};
  NodeId n_;
};

/// Run Lemma 1 end to end on `g`: build a BFS tree from `root`, broadcast
/// the messages, and report total rounds (BFS + broadcast) and congestion.
struct BroadcastOutcome {
  std::uint64_t rounds = 0;
  std::uint64_t messages = 0;
  std::uint64_t max_edge_congestion = 0;
  bool complete = false;
};
BroadcastOutcome broadcast_via_tree(const Graph& g, NodeId root,
                                    std::vector<PlacedMessage> messages,
                                    std::uint64_t max_rounds = 10'000'000);

}  // namespace fc::algo
