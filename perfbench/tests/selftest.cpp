// Tests for the benchmark's own code: seeded request streams, nearest-rank
// percentiles with the ten-beyond rule, span self-time arithmetic, and the
// payload digest the answer check compares.

#include <gtest/gtest.h>

#include <numeric>

#include "answers.hpp"
#include "ledger.hpp"
#include "serve/protocol.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

std::vector<Target> churn_targets() {
  std::vector<Target> targets;
  std::vector<fc::NodeId> nodes(100);
  std::iota(nodes.begin(), nodes.end(), 0);
  const std::vector<std::string> specs = churn_specs();
  for (std::size_t t = 0; t < specs.size(); ++t)
    targets.push_back(make_target(specs[t], nodes, 7 + t, 16));
  return targets;
}

std::string joined(const std::vector<RequestLine>& lines) {
  std::string out;
  for (const RequestLine& l : lines) out += l.text + '\n';
  return out;
}

TEST(Streams, SameSeedGivesByteIdenticalStreams) {
  std::vector<fc::NodeId> nodes{3, 5, 8, 13, 21, 34};
  const Target a = make_target(kWarmSpec, nodes, 42, 32);
  const Target b = make_target(kWarmSpec, nodes, 42, 32);
  EXPECT_EQ(a.roots, b.roots);
  EXPECT_EQ(joined(serve_warm_stream(42, a, 500)),
            joined(serve_warm_stream(42, b, 500)));
  EXPECT_NE(joined(serve_warm_stream(42, a, 500)),
            joined(serve_warm_stream(43, a, 500)));

  const std::vector<Target> t = churn_targets();
  EXPECT_EQ(joined(serve_churn_stream(9, t, kChurnDynamicIndex, 400)),
            joined(serve_churn_stream(9, t, kChurnDynamicIndex, 400)));
  EXPECT_NE(joined(serve_churn_stream(9, t, kChurnDynamicIndex, 400)),
            joined(serve_churn_stream(10, t, kChurnDynamicIndex, 400)));

  const auto p1 = broadcast_placements(5, 1024, 4096);
  const auto p2 = broadcast_placements(5, 1024, 4096);
  ASSERT_EQ(p1.size(), p2.size());
  for (std::size_t i = 0; i < p1.size(); ++i) {
    EXPECT_EQ(p1[i].origin, p2[i].origin);
    EXPECT_EQ(p1[i].id, p2[i].id);
    EXPECT_EQ(p1[i].payload, p2[i].payload);
  }
}

TEST(Streams, WarmMixAndChurnShape) {
  const Target t = make_target(kWarmSpec, {1, 2, 3}, 1, 8);
  const auto lines = serve_warm_stream(1, t, 9000);
  // Every block of nine holds the exact 4:4:1 mix.
  for (std::size_t b = 0; b < lines.size(); b += 9) {
    std::size_t bfs = 0, sssp = 0, mst = 0;
    for (std::size_t i = b; i < b + 9; ++i) {
      bfs += lines[i].algo == "bfs";
      sssp += lines[i].algo == "sssp";
      mst += lines[i].algo == "mst";
      EXPECT_EQ(lines[i].kind, LineKind::kQuery);
    }
    EXPECT_EQ(bfs, 4u);
    EXPECT_EQ(sssp, 4u);
    EXPECT_EQ(mst, 1u);
  }

  const std::vector<Target> targets = churn_targets();
  const auto churn = serve_churn_stream(1, targets, kChurnDynamicIndex, 40);
  std::size_t query = 0;
  for (std::size_t i = 0; i < churn.size(); ++i) {
    EXPECT_EQ(churn[i].id, i + 1);
    if (i % 4 == 3) {
      EXPECT_EQ(churn[i].kind, LineKind::kUpdate);
      EXPECT_NE(churn[i].text.find("\"update\""), std::string::npos);
    } else {
      EXPECT_EQ(churn[i].target, query++ % targets.size());
    }
  }
}

TEST(Percentiles, NearestRank) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  EXPECT_EQ(nearest_rank(50, 100), 50u);
  EXPECT_EQ(nearest_rank(99, 100), 99u);
  EXPECT_EQ(nearest_rank(100, 100), 100u);
  EXPECT_EQ(nearest_rank(1, 100), 1u);
  EXPECT_EQ(nearest_rank(50, 5), 3u);
  EXPECT_DOUBLE_EQ(percentile(v, 50).value, 50);
  EXPECT_DOUBLE_EQ(median({5, 1, 3}), 3);
  EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2);  // nearest rank, no averaging
}

TEST(Percentiles, TenBeyondRule) {
  std::vector<double> v(999);
  std::iota(v.begin(), v.end(), 1.0);
  // n = 999: p99 sits at rank 990 with only 9 samples beyond it.
  Percentile p = percentile(v, 99);
  EXPECT_EQ(p.beyond, 9u);
  EXPECT_FALSE(p.valid);
  // The tail falls back to rank n - 10 = 989.
  Percentile t = tail_percentile(v);
  EXPECT_TRUE(t.valid);
  EXPECT_EQ(t.beyond, 10u);
  EXPECT_DOUBLE_EQ(t.value, 989);
  EXPECT_LT(t.pct, 99);

  v.push_back(1000);  // n = 1000: p99 is rank 990 with 10 beyond.
  p = percentile(v, 99);
  EXPECT_TRUE(p.valid);
  EXPECT_EQ(p.beyond, 10u);
  EXPECT_DOUBLE_EQ(p.value, 990);
  t = tail_percentile(v);
  EXPECT_DOUBLE_EQ(t.pct, 99);
  EXPECT_DOUBLE_EQ(t.value, 990);

  EXPECT_FALSE(tail_percentile({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}).valid);
  const Percentile t11 = tail_percentile({1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11});
  EXPECT_TRUE(t11.valid);
  EXPECT_DOUBLE_EQ(t11.value, 1);
}

TEST(Spans, SelfTimeSubtractsChildren) {
  // op [0, 100) with children parse [10, 20) and run [30, 90); run has a
  // child [40, 50) and one overrunning its parent [85, 95).
  std::vector<Span> s(5);
  s[0] = {"op", 1, 0, 100, -1};
  s[1] = {"parse", 1, 10, 20, 0};
  s[2] = {"run", 1, 30, 90, 0};
  s[3] = {"inner", 1, 40, 50, 2};
  s[4] = {"late", 1, 85, 95, 2};
  const std::vector<std::int64_t> self = self_times(s);
  EXPECT_EQ(self[0], 100 - 10 - 60);
  EXPECT_EQ(self[1], 10);
  EXPECT_EQ(self[2], 60 - 10 - 5);  // the overrun is clipped to [85, 90)
  EXPECT_EQ(self[3], 10);
  EXPECT_EQ(self[4], 10);

  // Overlapping children are counted once.
  std::vector<Span> o(3);
  o[0] = {"op", 2, 0, 50, -1};
  o[1] = {"a", 2, 5, 25, 0};
  o[2] = {"b", 2, 15, 35, 0};
  EXPECT_EQ(self_times(o)[0], 50 - 30);
}

TEST(Spans, RecorderNestsAndCanBeOff) {
  SpanRecorder on(true);
  {
    auto outer = on.scope("outer", 7);
    {
      auto inner = on.scope("inner", 7);
      inner.rename("renamed");
    }
  }
  ASSERT_EQ(on.spans().size(), 2u);
  EXPECT_EQ(on.spans()[1].parent, 0);
  EXPECT_STREQ(on.spans()[1].name, "renamed");
  EXPECT_GE(on.spans()[0].end_ns, on.spans()[1].end_ns);
  EXPECT_EQ(on.durations_ms("renamed").size(), 1u);

  SpanRecorder off(false);
  { auto s = off.scope("outer", 1); }
  EXPECT_TRUE(off.spans().empty());
}

TEST(Answers, PayloadDigestMatchesSerializedResponse) {
  fc::serve::Response r;
  r.ok = true;
  r.has_payload = true;
  r.payload.sources = {4};
  r.payload.distances = {{0, 7, fc::kInfWeight, 12}};
  r.payload.hops = {{0, 1, fc::kUnreached}};
  r.payload.mst_edges = {{0, 1}, {1, 3}};
  const fc::JsonValue v = fc::parse_json(fc::serve::serialize(r));
  EXPECT_EQ(payload_digest(v), payload_digest(r.payload));

  fc::scenario::ScenarioPayload other = r.payload;
  other.distances[0][1] = 8;
  EXPECT_NE(payload_digest(v), payload_digest(other));
  other = r.payload;
  other.mst_edges.pop_back();
  EXPECT_NE(payload_digest(v), payload_digest(other));
}

}  // namespace
}  // namespace perfbench
