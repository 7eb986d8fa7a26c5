#include "core/fast_broadcast.hpp"

#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "graph/properties.hpp"
#include "lb/bit_meter.hpp"
#include "scenario/spec.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace fc::core {
namespace {

std::vector<algo::PlacedMessage> random_messages(const Graph& g,
                                                 std::uint64_t k, Rng& rng) {
  std::vector<algo::PlacedMessage> msgs;
  msgs.reserve(k);
  for (std::uint64_t i = 0; i < k; ++i)
    msgs.push_back({static_cast<NodeId>(rng.below(g.node_count())), i, rng()});
  return msgs;
}

TEST(FastBroadcast, CompletesOnRandomRegular) {
  Rng rng(1);
  const Graph g = gen::random_regular(128, 32, rng);
  const auto msgs = random_messages(g, 256, rng);
  const auto report = run_fast_broadcast(g, 32, msgs);
  EXPECT_TRUE(report.complete) << report.str();
  EXPECT_EQ(report.k, 256u);
  EXPECT_GE(report.parts, 2u);
}

TEST(FastBroadcast, CompletesOnHypercube) {
  Rng rng(2);
  const Graph g = gen::hypercube(8);  // n=256, λ=8
  const auto msgs = random_messages(g, 128, rng);
  FastBroadcastOptions opts;
  opts.C = 1.0;
  const auto report = run_fast_broadcast(g, 8, msgs, opts);
  EXPECT_TRUE(report.complete) << report.str();
}

TEST(FastBroadcast, RoundsWithinTheorem1Envelope) {
  // Theorem 1: O((n log n)/δ + (k log n)/λ) rounds. Check measured rounds
  // against the prediction with a generous constant.
  Rng rng(3);
  const Graph g = gen::random_regular(256, 64, rng);
  for (std::uint64_t k : {256ull, 1024ull}) {
    const auto msgs = random_messages(g, k, rng);
    FastBroadcastOptions opts;
    const auto report = run_fast_broadcast(g, 64, msgs, opts);
    ASSERT_TRUE(report.complete);
    const double predicted = theorem1_prediction(256, 64, 64, k);
    EXPECT_LE(static_cast<double>(report.total_rounds), 40.0 * predicted)
        << report.str();
  }
}

TEST(FastBroadcast, NeverBeatsUniversalLowerBound) {
  // Theorem 3: any algorithm needs Omega(k/λ) rounds.
  Rng rng(4);
  const Graph g = gen::random_regular(128, 16, rng);
  for (std::uint64_t k : {64ull, 512ull}) {
    const auto msgs = random_messages(g, k, rng);
    const auto report = run_fast_broadcast(g, 16, msgs);
    ASSERT_TRUE(report.complete);
    EXPECT_GE(static_cast<double>(report.total_rounds),
              theorem3_lower_bound(k, 16));
  }
}

TEST(FastBroadcast, BeatsTextbookWhenKLargeAndLambdaHigh) {
  // The headline claim: for k = Ω(n) on a high-connectivity graph, the
  // decomposition broadcast beats the O(D + k) single-tree pipeline.
  Rng rng(5);
  const Graph g = gen::random_regular(256, 64, rng);
  const auto msgs = random_messages(g, 2048, rng);
  FastBroadcastOptions opts;
  opts.C = 1.5;
  const auto fast = run_fast_broadcast(g, 64, msgs, opts);
  const auto slow = run_textbook_broadcast(g, msgs, opts);
  ASSERT_TRUE(fast.complete);
  ASSERT_TRUE(slow.complete);
  EXPECT_LT(fast.total_rounds, slow.total_rounds)
      << "fast=" << fast.str() << "\nslow=" << slow.str();
}

TEST(TextbookBroadcast, MatchesLemma1Bound) {
  Rng rng(6);
  const Graph g = gen::circulant(64, 2);
  const auto msgs = random_messages(g, 100, rng);
  const auto report = run_textbook_broadcast(g, msgs);
  ASSERT_TRUE(report.complete);
  const auto d = diameter_exact(g);
  EXPECT_LE(report.broadcast_rounds, 2 * (static_cast<std::uint64_t>(d) + 100) + 8);
  EXPECT_LE(report.max_edge_congestion, 2u * 100 + 2);
}

TEST(FastBroadcast, LambdaOneDegradesToTextbook) {
  Rng rng(7);
  const Graph g = gen::circulant(40, 2);
  const auto msgs = random_messages(g, 30, rng);
  const auto report = run_fast_broadcast(g, 1, msgs);
  EXPECT_TRUE(report.complete);
  EXPECT_EQ(report.parts, 1u);
}

TEST(FastBroadcast, EmptyMessageSet) {
  const Graph g = gen::cycle(8);
  const auto report = run_fast_broadcast(g, 2, {});
  EXPECT_TRUE(report.complete);
  EXPECT_EQ(report.k, 0u);
}

TEST(FastBroadcast, MessagesConcentratedAtOneNode) {
  Rng rng(8);
  const Graph g = gen::random_regular(64, 16, rng);
  std::vector<algo::PlacedMessage> msgs;
  for (std::uint64_t i = 0; i < 200; ++i) msgs.push_back({7, i, i * 3});
  const auto report = run_fast_broadcast(g, 16, msgs);
  EXPECT_TRUE(report.complete);
}

TEST(FastBroadcast, DisconnectedGraphThrows) {
  const Graph g = Graph::from_edges(4, {{0, 1}, {2, 3}});
  EXPECT_THROW(run_fast_broadcast(g, 1, {}), std::invalid_argument);
}

TEST(FastBroadcast, ZeroLambdaThrows) {
  const Graph g = gen::cycle(5);
  EXPECT_THROW(run_fast_broadcast(g, 0, {}), std::invalid_argument);
}

TEST(FastBroadcastOblivious, FindsWorkingLambdaOnDumbbell) {
  // δ = 31 but λ = 1: the first guess λ̃ = 31 yields 3 parts, and since the
  // single bridge lives in exactly one part the other two cannot span. The
  // search must halve until the decomposition collapses to one part.
  Rng rng(9);
  const Graph g = gen::dumbbell(32, 1);
  const auto msgs = random_messages(g, 64, rng);
  const auto report = run_fast_broadcast_oblivious(g, msgs);
  EXPECT_TRUE(report.complete) << report.str();
  EXPECT_GE(report.search_iterations, 2u);
  EXPECT_EQ(report.parts, 1u);
  EXPECT_LE(report.lambda_used, 15u);
  EXPECT_GT(report.search_rounds, 0u);
}

TEST(FastBroadcastOblivious, FastPathOnRegularGraphs) {
  // When λ = δ the first guess usually validates.
  Rng rng(10);
  const Graph g = gen::random_regular(128, 32, rng);
  const auto msgs = random_messages(g, 128, rng);
  const auto report = run_fast_broadcast_oblivious(g, msgs);
  EXPECT_TRUE(report.complete);
  EXPECT_LE(report.search_iterations, 3u);
}

TEST(FastBroadcast, CutTrafficRespectsInformationBound) {
  // Measure actual bits across a minimum cut and compare with the Theorem 3
  // requirement: a complete broadcast must move >= k/2 messages worth of
  // payload across the cut... our meter checks the run did cross the cut.
  Rng rng(11);
  const Graph g = gen::dumbbell(16, 3);
  const std::uint64_t k = 64;
  std::vector<algo::PlacedMessage> msgs;
  for (std::uint64_t i = 0; i < k; ++i)
    msgs.push_back({static_cast<NodeId>(rng.below(16)), i, rng()});  // left side
  const auto report = run_fast_broadcast(g, 3, msgs);
  ASSERT_TRUE(report.complete);
  // All k messages originated on the left clique; at least k messages must
  // have crossed the 3-edge bridge cut, so rounds >= k/3.
  EXPECT_GE(static_cast<double>(report.total_rounds),
            theorem3_lower_bound(k, 3));
}

TEST(FastBroadcast, ReportIdenticalAcrossEnginePoolsAndSweeps) {
  // Every engine execution of Theorem 1 (leader election, BFS, numbering,
  // per-part BFS, pipelined broadcasts, and the oblivious variant's
  // validation sweeps) takes the one embedded RunOptions: the report must
  // not depend on the pool size or on the dense sweep.
  const Graph g = scenario::build_graph("random_regular:n=256,d=32,seed=1");
  Rng rng(7);
  const auto msgs = random_messages(g, 512, rng);
  const auto expect_same = [](const FastBroadcastReport& got,
                              const FastBroadcastReport& want) {
    EXPECT_EQ(got.parts, want.parts);
    EXPECT_EQ(got.lambda_used, want.lambda_used);
    EXPECT_EQ(got.setup_rounds, want.setup_rounds);
    EXPECT_EQ(got.part_bfs_rounds, want.part_bfs_rounds);
    EXPECT_EQ(got.broadcast_rounds, want.broadcast_rounds);
    EXPECT_EQ(got.search_rounds, want.search_rounds);
    EXPECT_EQ(got.search_iterations, want.search_iterations);
    EXPECT_EQ(got.total_rounds, want.total_rounds);
    EXPECT_EQ(got.messages, want.messages);
    EXPECT_EQ(got.max_edge_congestion, want.max_edge_congestion);
    EXPECT_EQ(got.retries, want.retries);
    EXPECT_EQ(got.complete, want.complete);
  };
  const FastBroadcastReport want = run_fast_broadcast(g, 32, msgs);
  ASSERT_TRUE(want.complete) << want.str();
  const FastBroadcastReport want_oblivious =
      run_fast_broadcast_oblivious(g, msgs);
  ASSERT_TRUE(want_oblivious.complete) << want_oblivious.str();
  for (const std::size_t threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads);
    for (const bool dense : {false, true}) {
      SCOPED_TRACE(std::to_string(threads) + (dense ? " dense" : " sparse"));
      FastBroadcastOptions opts;
      opts.engine.pool = &pool;
      opts.engine.force_dense = dense;
      expect_same(run_fast_broadcast(g, 32, msgs, opts), want);
    }
    SCOPED_TRACE(std::to_string(threads) + " oblivious");
    FastBroadcastOptions opts;
    opts.engine.pool = &pool;
    expect_same(run_fast_broadcast_oblivious(g, msgs, opts), want_oblivious);
  }
}

TEST(Predictions, Formulas) {
  EXPECT_DOUBLE_EQ(theorem3_lower_bound(100, 10), 10.0);
  EXPECT_EQ(theorem3_lower_bound(5, 0), 0.0);
  EXPECT_GT(theorem1_prediction(256, 16, 16, 1024),
            theorem1_prediction(256, 32, 32, 1024));
  EXPECT_EQ(theorem1_prediction(1, 0, 0, 5), 0.0);
}

class FastBroadcastSweep
    : public ::testing::TestWithParam<std::tuple<NodeId, std::uint32_t, std::uint64_t>> {};

TEST_P(FastBroadcastSweep, CompleteAcrossParameterGrid) {
  auto [n, d, k] = GetParam();
  Rng rng(mix64(n, d, k));
  const Graph g = gen::random_regular(n, d, rng);
  const auto msgs = random_messages(g, k, rng);
  FastBroadcastOptions opts;
  opts.C = 1.5;
  const auto report = run_fast_broadcast(g, d, msgs, opts);
  EXPECT_TRUE(report.complete) << report.str();
  EXPECT_GE(static_cast<double>(report.total_rounds),
            theorem3_lower_bound(k, d));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, FastBroadcastSweep,
    ::testing::Values(std::tuple<NodeId, std::uint32_t, std::uint64_t>{64, 16, 64},
                      std::tuple<NodeId, std::uint32_t, std::uint64_t>{128, 16, 512},
                      std::tuple<NodeId, std::uint32_t, std::uint64_t>{128, 48, 128},
                      std::tuple<NodeId, std::uint32_t, std::uint64_t>{256, 32, 1024},
                      std::tuple<NodeId, std::uint32_t, std::uint64_t>{96, 24, 7}));

}  // namespace
}  // namespace fc::core
