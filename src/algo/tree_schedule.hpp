#pragma once
// Store-and-forward co-scheduling of tree broadcasts on the CONGEST engine
// (paper Theorem 12, Ghaffari PODC'15 "Near-optimal scheduling of
// distributed algorithms").
//
// When the trees of several broadcast jobs SHARE edges (unlike Theorem 1's
// edge-disjoint case) the jobs contend for bandwidth. Ghaffari's result
// says any collection of algorithms with total per-edge congestion C and
// max dilation d can be co-scheduled in O(C + d log^2 n) rounds via random
// start delays. TreeSchedule is the packet-level experiment: job j floods
// packets 0..packets-1 down its own rooted tree, injecting packet s at its
// root in round start_delay + s; every arc forwards at most one packet per
// round (the engine's own one-message-per-arc rule), FIFO among jobs.
//
// Tie rule (the FIFO order when several packets join one arc's queue in the
// same round): a node first enqueues what arrived this round, in inbox
// (arc-id) order, then its own due injections in job order, then sends the
// head of every non-empty queue.
//
// A packet travels as {tag = seq, a = packet_word(seq), b = job}. A fault
// (congest::FaultPlan kEdgeCorrupt) alters only `a`; relays forward the word
// they received, so a hit anywhere on a packet's path shows at every node
// below it. Each node counts, per seq, the copies that arrived and the
// copies whose word differs from packet_word(seq) — the raw material of
// apps::resilient_broadcast's majority decode.
//
// Termination: done() once every injection has happened and every copy has
// arrived (the network is quiescent). schedule_tree_broadcasts() wraps one
// engine run and reports makespan, per-arc congestion, dilation and hops
// (bench_scheduler, experiment E10).

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "algo/bfs.hpp"
#include "congest/network.hpp"
#include "util/rng.hpp"

namespace fc::algo {

struct TreeJob {
  const SpanningTree* tree = nullptr;  // spans the shared graph
  std::uint32_t packets = 0;           // broadcast k_j packets from root
  std::uint64_t start_delay = 0;       // first injection round
};

/// Deterministic payload word of packet `seq`. corrupt_word is a bijection,
/// so any odd chain of hits (and, outside astronomically rare permutation
/// cycles, any chain at all) arrives as a different word.
inline std::uint64_t packet_word(std::uint64_t seq) {
  return mix64(0x7265736c69656e74ULL, seq);
}

class TreeSchedule final : public congest::Algorithm {
 public:
  /// All trees must span `g`, the graph the engine runs on.
  TreeSchedule(const Graph& g, std::vector<TreeJob> jobs);

  std::string name() const override { return "tree-schedule"; }
  void start(congest::Context& ctx) override { tick(ctx); }
  void step(congest::Context& ctx) override { tick(ctx); }
  bool done() const override {
    return pending_.load(std::memory_order_relaxed) == 0;
  }

  /// 1 + the last round in which a packet was injected or sent (0 when no
  /// job has packets).
  std::uint64_t makespan() const;
  /// Max tree depth among the jobs.
  std::uint32_t dilation() const { return dilation_; }
  /// Copies of packet `seq` that reached v, one per job broadcasting it
  /// (the roots count nothing for their own jobs).
  std::uint32_t arrived(NodeId v, std::uint32_t seq) const {
    return arrived_[slot(v, seq)];
  }
  /// Of those, the copies whose payload word was altered on the way.
  std::uint32_t altered(NodeId v, std::uint32_t seq) const {
    return altered_[slot(v, seq)];
  }

 private:
  struct Packet {
    std::uint32_t job;
    std::uint32_t seq;
    std::uint64_t word;
  };
  /// One arc's FIFO: packets [head, items.size()) are queued.
  struct Fifo {
    std::vector<Packet> items;
    std::size_t head = 0;
  };

  void tick(congest::Context& ctx);
  std::size_t slot(NodeId v, std::uint32_t seq) const {
    return static_cast<std::size_t>(v) * max_packets_ + seq;
  }

  std::vector<TreeJob> jobs_;
  std::vector<std::vector<std::uint32_t>> rooted_;  // node -> its jobs
  std::vector<Fifo> fifo_;                          // per arc
  std::vector<std::uint64_t> last_event_;  // per node: 1 + last busy round
  std::vector<std::uint32_t> arrived_;     // per (node, seq)
  std::vector<std::uint32_t> altered_;     // per (node, seq)
  std::uint32_t max_packets_ = 0;
  std::uint32_t dilation_ = 0;
  // Injections plus arrivals still to happen; each handler subtracts its
  // own in one relaxed update.
  std::atomic<std::uint64_t> pending_{0};
};

struct ScheduleResult {
  std::uint64_t makespan = 0;    // last delivery round + 1
  std::uint64_t congestion = 0;  // max over arcs of packets crossing
  std::uint64_t dilation = 0;    // max tree depth among jobs
  std::uint64_t total_packet_hops = 0;
};

/// Run the jobs on a fresh engine over `g`. Throws std::runtime_error when
/// the schedule needs more than `max_rounds` rounds.
ScheduleResult schedule_tree_broadcasts(const Graph& g,
                                        std::vector<TreeJob> jobs,
                                        std::uint64_t max_rounds = 50'000'000);

/// Assign each job an independent uniform delay in [0, max_delay].
void randomize_delays(std::vector<TreeJob>& jobs, std::uint64_t max_delay,
                      Rng& rng);

}  // namespace fc::algo
