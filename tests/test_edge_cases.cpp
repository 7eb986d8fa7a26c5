// Cross-cutting edge-case and robustness tests: simulator semantics under
// unusual inputs, determinism guarantees, and boundary parameter values
// that the per-module suites don't reach.

#include <gtest/gtest.h>

#include "algo/pipeline_broadcast.hpp"
#include "algo/tree_schedule.hpp"
#include "apps/weighted_apsp.hpp"
#include "congest/network.hpp"
#include "core/fast_broadcast.hpp"
#include "graph/generators.hpp"
#include "graph/partition.hpp"
#include "graph/properties.hpp"
#include "lb/hard_families.hpp"
#include "util/rng.hpp"

namespace fc {
namespace {

/// Echo algorithm: forwards the exact message it receives back and records
/// everything seen; used to verify content integrity through the engine.
class Echo : public congest::Algorithm {
 public:
  explicit Echo(int max_hops) : max_hops_(max_hops) {}
  void start(congest::Context& ctx) override {
    if (ctx.id() == 0)
      ctx.send(ctx.arc_begin(), {0xABCD, 0x1122334455667788ULL, 99});
  }
  void step(congest::Context& ctx) override {
    for (const auto& in : ctx.inbox()) {
      seen_.push_back(in.msg);
      if (++hops_ < max_hops_) ctx.send(in.via, in.msg);
    }
  }
  bool done() const override { return hops_ >= max_hops_; }
  std::vector<congest::Message> seen_;
  int hops_ = 0;
  int max_hops_;
};

TEST(EdgeCases, MessageContentSurvivesTransit) {
  const Graph g = gen::path(2);
  congest::Network net(g);
  Echo alg(6);
  net.run(alg);
  ASSERT_EQ(alg.seen_.size(), 6u);
  for (const auto& m : alg.seen_) {
    EXPECT_EQ(m.tag, 0xABCDu);
    EXPECT_EQ(m.a, 0x1122334455667788ULL);
    EXPECT_EQ(m.b, 99u);
  }
}

TEST(EdgeCases, NodeWithNoEdgesIsHarmless) {
  // Node 2 is isolated: handlers run for it but it can neither send nor
  // receive; the rest of the graph proceeds normally.
  const Graph g = Graph::from_edges(3, {{0, 1}});
  congest::Network net(g);
  Echo alg(2);
  const auto res = net.run(alg);
  EXPECT_TRUE(res.finished);
  EXPECT_EQ(g.degree(2), 0u);
}

TEST(EdgeCases, FastBroadcastDeterministicInSeed) {
  Rng rng(5);
  const Graph g = gen::random_regular(96, 24, rng);
  std::vector<algo::PlacedMessage> msgs;
  for (std::uint64_t i = 0; i < 128; ++i)
    msgs.push_back({static_cast<NodeId>(i % 96), i, i * 7});
  core::FastBroadcastOptions opts;
  opts.seed = 42;
  const auto a = core::run_fast_broadcast(g, 24, msgs, opts);
  const auto b = core::run_fast_broadcast(g, 24, msgs, opts);
  EXPECT_EQ(a.total_rounds, b.total_rounds);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.max_edge_congestion, b.max_edge_congestion);
}

TEST(EdgeCases, FastBroadcastWithLambdaAboveDeltaEventuallyFails) {
  // Claiming λ far above the true connectivity makes parts non-spanning;
  // after max_retries the algorithm must report the failure loudly rather
  // than lose messages.
  const Graph g = gen::dumbbell(24, 1);  // λ = 1, δ = 23
  std::vector<algo::PlacedMessage> msgs{{0, 0, 1}};
  core::FastBroadcastOptions opts;
  opts.C = 0.4;          // force >= 2 parts even for modest λ̃
  opts.max_retries = 2;
  EXPECT_THROW(core::run_fast_broadcast(g, 23, msgs, opts),
               std::runtime_error);
}

TEST(EdgeCases, TwoNodeGraphBroadcast) {
  const Graph g = gen::path(2);
  std::vector<algo::PlacedMessage> msgs{{0, 0, 5}, {1, 1, 6}, {0, 2, 7}};
  const auto report = core::run_fast_broadcast(g, 1, msgs);
  EXPECT_TRUE(report.complete);
}

TEST(EdgeCases, StarGraphBroadcast) {
  // Star = complete bipartite K_{1,n}: λ = 1, hub bottleneck.
  const Graph g = gen::complete_bipartite(1, 12);
  std::vector<algo::PlacedMessage> msgs;
  for (std::uint64_t i = 0; i < 24; ++i)
    msgs.push_back({static_cast<NodeId>(1 + i % 12), i, i});
  const auto report = core::run_textbook_broadcast(g, msgs);
  EXPECT_TRUE(report.complete);
  // Hub edge carries everything: congestion ~ 2k.
  EXPECT_GE(report.max_edge_congestion, 24u);
}

TEST(EdgeCases, Theorem9EstimatesDecodeKValues) {
  // The heart of the Theorem 9 argument: ANY α-approximate distance
  // estimate at v1 pins down k_i exactly, because consecutive candidate
  // distances 1 + (2α)^k are more than an α factor apart. Verify with a
  // real α-approximation (the spanner pipeline).
  const NodeId n = 24;
  const std::uint32_t lambda = 4;
  const double alpha = 3.0;  // spanner stretch 2k-1 = 3 for k = 2
  const auto inst =
      lb::build_theorem9_instance(n, lambda, alpha, 100'000'000, 7);
  apps::WeightedApspOptions wopts;
  wopts.seed = 3;
  const auto report =
      apps::approximate_apsp_weighted(inst.graph, lambda, /*k=*/2, wopts);
  const auto est = report.distances_from(0);  // v1's estimates
  for (std::size_t i = 0; i < inst.k_values.size(); ++i) {
    // Decode: the unique k with d(k) <= est < alpha * d(k) ... candidates
    // are separated enough that scanning works.
    std::uint32_t decoded = 0;
    for (std::uint32_t kk = 1; kk <= inst.kmax; ++kk) {
      Weight pow = 1;
      for (std::uint32_t t = 0; t < kk; ++t)
        pow *= static_cast<Weight>(2 * alpha);
      const Weight d = 1 + pow;
      if (est[i + 2] >= d && est[i + 2] <= static_cast<Weight>(alpha) * d) {
        decoded = kk;
        break;
      }
    }
    EXPECT_EQ(decoded, inst.k_values[i]) << "clique node " << i;
  }
}

TEST(EdgeCases, PartitionWithMorePartsThanEdges) {
  // parts > m leaves some parts empty; they are disconnected subgraphs and
  // the decomposition must report that rather than crash.
  const Graph g = gen::path(4);  // 3 edges
  const auto part = random_edge_partition(g, 10, 3);
  EXPECT_EQ(part.parts.size(), 10u);
  std::size_t nonempty = 0;
  for (const auto& p : part.parts) nonempty += p.graph.edge_count() > 0;
  EXPECT_LE(nonempty, 3u);
}

TEST(EdgeCases, PipelineBroadcastManyMessagesFewNodes) {
  // k >> n: pure pipelining throughput.
  const Graph g = gen::path(4);
  const auto tree = algo::run_bfs(g, 0).tree;
  std::vector<algo::PlacedMessage> msgs;
  for (std::uint64_t i = 0; i < 1000; ++i)
    msgs.push_back({static_cast<NodeId>(i % 4), i, i});
  congest::Network net(g);
  algo::PipelineBroadcast alg(g, tree, msgs);
  const auto res = net.run(alg);
  EXPECT_TRUE(res.finished);
  // Rounds ~ 2k, dominated by bandwidth, not depth.
  EXPECT_LE(res.rounds, 2ull * 1000 + 20);
}

TEST(EdgeCases, SchedulerZeroPacketJob) {
  const Graph g = gen::path(3);
  const auto tree = algo::run_bfs(g, 0).tree;
  std::vector<algo::TreeJob> jobs{{&tree, 0, 0}};
  const auto res = algo::schedule_tree_broadcasts(g, jobs);
  EXPECT_EQ(res.makespan, 0u);
  EXPECT_EQ(res.total_packet_hops, 0u);
}

TEST(EdgeCases, SchedulerSingleNode) {
  // Nothing to send: delivery is the injection itself, so the makespan is
  // the last injection round + 1.
  const Graph g = gen::path(1);
  const auto tree = algo::run_bfs(g, 0).tree;
  std::vector<algo::TreeJob> jobs{{&tree, 3, 2}};
  const auto res = algo::schedule_tree_broadcasts(g, jobs);
  EXPECT_EQ(res.makespan, 5u);
  EXPECT_EQ(res.total_packet_hops, 0u);
  EXPECT_EQ(res.congestion, 0u);
}

}  // namespace
}  // namespace fc
