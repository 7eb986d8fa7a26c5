// Per-round traffic traces read from a counter-mode Telemetry recorder's
// series(): one RoundSample per executed round, whose receive-side totals
// must agree with the Network's own metering.

#include <gtest/gtest.h>

#include "algo/bfs.hpp"
#include "algo/pipeline_broadcast.hpp"
#include "congest/telemetry.hpp"
#include "graph/generators.hpp"
#include "util/rng.hpp"

namespace fc::congest {
namespace {

RunResult run_traced(const Graph& g, Algorithm& alg, Telemetry& tele) {
  Network net(g);
  return net.run(alg, {.telemetry = &tele});
}

std::uint64_t total_delivered(const Telemetry& tele) {
  std::uint64_t total = 0;
  for (const RoundSample& s : tele.series()) total += s.delivered;
  return total;
}

/// The round with the most delivered messages (peak load).
RoundSample peak(const Telemetry& tele) {
  RoundSample best;
  for (const RoundSample& s : tele.series())
    if (s.delivered > best.delivered) best = s;
  return best;
}

TEST(Trace, TotalsMatchNetworkMetering) {
  Rng rng(1);
  const Graph g = gen::random_regular(64, 6, rng);
  algo::DistributedBfs bfs(g, 0);
  Telemetry tele(TelemetryMode::kRounds);
  const auto res = run_traced(g, bfs, tele);
  EXPECT_TRUE(res.finished);
  // Every delivered message was sent exactly once; messages sent in the
  // final executed round are counted as sent but never reach a handler
  // (the run stops), so the receive-side total is at most the send count
  // and misses at most one round's worth of traffic.
  EXPECT_LE(total_delivered(tele), res.messages);
  EXPECT_GE(total_delivered(tele), res.messages * 9 / 10);
}

TEST(Trace, RoundZeroHasNoDeliveries) {
  const Graph g = gen::cycle(10);
  algo::DistributedBfs bfs(g, 0);
  Telemetry tele(TelemetryMode::kRounds);
  run_traced(g, bfs, tele);
  ASSERT_FALSE(tele.series().empty());
  EXPECT_EQ(tele.series()[0].delivered, 0u);
}

TEST(Trace, BfsWaveShape) {
  // The BFS flood's delivered-messages curve rises then dies out.
  const Graph g = gen::grid(6, 6);
  algo::DistributedBfs bfs(g, 0);
  Telemetry tele(TelemetryMode::kRounds);
  run_traced(g, bfs, tele);
  const RoundSample top = peak(tele);
  EXPECT_GT(top.delivered, 0u);
  EXPECT_GT(top.round, 0u);
  // The peak lands strictly inside the run, not at its very end: the wave
  // rises and dies out.
  EXPECT_LT(top.round + 1, tele.series().size());
}

TEST(Trace, PipelinedBroadcastSustainsLoad) {
  const Graph g = gen::cycle(16);
  const auto tree = algo::run_bfs(g, 0).tree;
  std::vector<algo::PlacedMessage> msgs;
  for (std::uint64_t i = 0; i < 40; ++i) msgs.push_back({0, i, i});
  algo::PipelineBroadcast bc(g, tree, msgs);
  Telemetry tele(TelemetryMode::kRounds);
  const auto res = run_traced(g, bc, tele);
  EXPECT_TRUE(res.finished);
  // Steady state: with the root feeding one message per round into two
  // children, many consecutive rounds deliver >= 2 messages.
  std::size_t busy = 0;
  for (const RoundSample& s : tele.series())
    if (s.delivered >= 2) ++busy;
  EXPECT_GE(busy, 30u);
}

}  // namespace
}  // namespace fc::congest
