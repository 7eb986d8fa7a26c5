#include "scenario/runner.hpp"

#include <gtest/gtest.h>

#include "congest/faults.hpp"
#include "scenario/spec.hpp"

namespace fc::scenario {
namespace {

TEST(ScenarioRunner, RegistersBuiltInAlgorithms) {
  const ScenarioRunner runner;
  const auto algos = runner.algorithms();
  for (const std::string expected :
       {"bfs", "batch-bfs", "broadcast", "convergecast", "leader-election"})
    EXPECT_TRUE(runner.has(expected)) << expected;
  EXPECT_EQ(algos.size(), 5u);
  const auto weighted = runner.weighted_algorithms();
  for (const std::string expected :
       {"weighted-apsp", "mst", "sssp", "batch-sssp"}) {
    EXPECT_TRUE(runner.has(expected)) << expected;
    EXPECT_TRUE(runner.is_weighted(expected)) << expected;
  }
  EXPECT_EQ(weighted.size(), 4u);
}

TEST(ScenarioRunner, BatchBfsReportsPerQueryRange) {
  const ScenarioRunner runner;
  ScenarioConfig cfg;
  cfg.sources = 4;
  const auto r = runner.run_spec("batch-bfs", "grid:rows=6,cols=6", cfg);
  ASSERT_TRUE(r.finished);
  EXPECT_NE(r.note.find("k=4"), std::string::npos) << r.note;
  EXPECT_NE(r.note.find("reached=36..36"), std::string::npos) << r.note;
  // Spec-level sources= is picked up when the config leaves it unset.
  const auto r2 = runner.run_spec("batch-bfs", "grid:rows=6,cols=6,sources=9");
  EXPECT_NE(r2.note.find("k=9"), std::string::npos) << r2.note;
  // Default is a single query.
  const auto r3 = runner.run_spec("batch-bfs", "grid:rows=6,cols=6");
  EXPECT_NE(r3.note.find("k=1"), std::string::npos) << r3.note;
}

TEST(ScenarioRunner, BatchSsspMatchesSingleSourceForOneQuery) {
  const ScenarioRunner runner;
  const std::string spec = "circulant:n=40,k=3,weights=1..100";
  const auto batch = runner.run_spec("batch-sssp", spec);
  const auto single = runner.run_spec("sssp", spec);
  ASSERT_TRUE(batch.finished);
  // Same query (source 0): the reach and max distance agree.
  EXPECT_NE(batch.note.find("reached=40..40"), std::string::npos)
      << batch.note;
  const auto pos = single.note.find("max_dist=");
  ASSERT_NE(pos, std::string::npos);
  EXPECT_NE(batch.note.find(single.note.substr(pos)), std::string::npos)
      << batch.note << " vs " << single.note;
}

TEST(ScenarioRunner, BatchSourcesBeyondNodeCountThrow) {
  const ScenarioRunner runner;
  ScenarioConfig cfg;
  cfg.sources = 99;
  EXPECT_THROW(runner.run_spec("batch-bfs", "cycle:n=8", cfg),
               std::invalid_argument);
  EXPECT_THROW(runner.run_spec("batch-sssp", "cycle:n=8", cfg),
               std::invalid_argument);
}

TEST(ScenarioRunner, UnknownAlgorithmIsActionable) {
  const ScenarioRunner runner;
  try {
    runner.run_spec("quicksort", "cycle:n=8");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& err) {
    const std::string what = err.what();
    EXPECT_NE(what.find("quicksort"), std::string::npos);
    EXPECT_NE(what.find("bfs"), std::string::npos);
  }
}

TEST(ScenarioRunner, BfsOnRmatSpec) {
  const ScenarioRunner runner;
  const auto r = runner.run_spec("bfs", "rmat:n=256,deg=8,seed=1");
  EXPECT_EQ(r.graph, "rmat:deg=8,n=256,seed=1");
  EXPECT_EQ(r.algo, "bfs");
  EXPECT_EQ(r.nodes, 256u);
  EXPECT_TRUE(r.finished);
  EXPECT_GT(r.rounds, 0u);
  EXPECT_GT(r.messages, 0u);
  EXPECT_NE(r.note.find("depth="), std::string::npos);
}

TEST(ScenarioRunner, EveryAlgorithmFinishesOnEveryNewFamily) {
  const ScenarioRunner runner;
  ScenarioConfig cfg;
  cfg.k = 32;
  for (const std::string spec :
       {"rmat:n=64,deg=6,seed=2", "barabasi_albert:n=64,m=2,seed=2",
        "watts_strogatz:n=64,k=4,p=0.2,seed=2",
        "random_geometric:n=64,radius=0.3,seed=2"}) {
    for (const auto& algo : runner.algorithms()) {
      SCOPED_TRACE(spec + " / " + algo);
      const auto r = runner.run_spec(algo, spec, cfg);
      EXPECT_TRUE(r.finished);
      EXPECT_GT(r.rounds, 0u);
      // Any sent message is counted somewhere, and per-edge congestion
      // dominates per-arc congestion by construction.
      EXPECT_GE(r.max_edge_congestion, r.max_arc_congestion);
      EXPECT_GE(r.messages, r.max_arc_congestion);
    }
  }
}

TEST(ScenarioRunner, ConvergecastComputesIdSum) {
  const ScenarioRunner runner;
  const auto r = runner.run_spec("convergecast", "cycle:n=32");
  EXPECT_TRUE(r.finished);
  EXPECT_EQ(r.note, "sum=" + std::to_string(32 * 31 / 2));
}

TEST(ScenarioRunner, LeaderIsMaxId) {
  const ScenarioRunner runner;
  const auto r = runner.run_spec("leader-election", "dumbbell:s=8,bridges=2");
  EXPECT_TRUE(r.finished);
  EXPECT_EQ(r.note, "leader=15");
}

TEST(ScenarioRunner, BroadcastDeliversAllMessages) {
  const ScenarioRunner runner;
  ScenarioConfig cfg;
  cfg.k = 64;
  cfg.seed = 9;
  const auto r = runner.run_spec("broadcast", "complete:n=16", cfg);
  EXPECT_TRUE(r.finished);
  EXPECT_EQ(r.note, "k=64 delivered");
  // k messages must each cross the root edge region at least once; the
  // pipelined tree bound says congestion is O(k).
  EXPECT_GE(r.max_edge_congestion, 1u);
}

TEST(ScenarioRunner, RootOutOfRangeThrows) {
  const ScenarioRunner runner;
  ScenarioConfig cfg;
  cfg.root = 1000;
  EXPECT_THROW(runner.run_spec("bfs", "cycle:n=8", cfg),
               std::invalid_argument);
}

TEST(ScenarioRunner, DeterministicAcrossRuns) {
  const ScenarioRunner runner;
  ScenarioConfig cfg;
  cfg.k = 48;
  const auto a = runner.run_spec("broadcast", "rmat:n=128,deg=6,seed=4", cfg);
  const auto b = runner.run_spec("broadcast", "rmat:n=128,deg=6,seed=4", cfg);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.max_arc_congestion, b.max_arc_congestion);
  EXPECT_EQ(a.max_edge_congestion, b.max_edge_congestion);
}

TEST(ScenarioRunner, WeightedApspOnWeightedSpec) {
  const ScenarioRunner runner;
  EXPECT_TRUE(runner.is_weighted("weighted-apsp"));
  EXPECT_FALSE(runner.is_weighted("bfs"));
  ScenarioConfig cfg;
  cfg.stretch_k = 2;
  const auto r = runner.run_spec(
      "weighted-apsp", "random_regular:n=64,d=6,seed=1,weights=1..100", cfg);
  EXPECT_TRUE(r.finished);
  EXPECT_EQ(r.nodes, 64u);
  EXPECT_GT(r.rounds, 0u);
  EXPECT_NE(r.note.find("stretch<=3"), std::string::npos);
  EXPECT_NE(r.note.find("lambda=6"), std::string::npos);
}

TEST(ScenarioRunner, WeightedApspRestrictsToRootComponent) {
  const ScenarioRunner runner;
  // rmat:n=64 is typically disconnected; the run must restrict and note it.
  const auto r = runner.run_spec("weighted-apsp",
                                 "rmat:n=64,deg=4,seed=2,weights=1..9");
  EXPECT_LE(r.nodes, 64u);
  if (r.nodes < 64u)
    EXPECT_NE(r.note.find("cc="), std::string::npos);
}

TEST(ScenarioRunner, CompositeAppsIgnoreFaults) {
  // ScenarioConfig::engine's table: mst, batch-sssp and weighted-apsp run
  // without the fault plan, so their reports equal the fault-free ones.
  const ScenarioRunner runner;
  const std::string spec = "random_regular:n=64,d=6,seed=1,weights=1..100";
  congest::FaultPlan plan;
  plan.crash_node(1, 5);
  plan.drop_edge(0, 0);
  plan.corrupt_edge(2, 7);
  ScenarioConfig clean;
  clean.sources = 3;
  ScenarioConfig faulted = clean;
  faulted.engine.faults = &plan;
  // The plan is not a no-op: a faultable scenario does see it.
  EXPECT_NE(runner.run_spec("sssp", spec, clean).note,
            runner.run_spec("sssp", spec, faulted).note);
  for (const char* algo : {"mst", "batch-sssp", "weighted-apsp"}) {
    SCOPED_TRACE(algo);
    const auto want = runner.run_spec(algo, spec, clean);
    const auto got = runner.run_spec(algo, spec, faulted);
    EXPECT_EQ(got.rounds, want.rounds);
    EXPECT_EQ(got.messages, want.messages);
    EXPECT_EQ(got.max_arc_congestion, want.max_arc_congestion);
    EXPECT_EQ(got.max_edge_congestion, want.max_edge_congestion);
    EXPECT_EQ(got.arc_p50, want.arc_p50);
    EXPECT_EQ(got.arc_p99, want.arc_p99);
    EXPECT_EQ(got.finished, want.finished);
    EXPECT_EQ(got.cancelled, want.cancelled);
    EXPECT_EQ(got.note, want.note);
  }
}

TEST(ScenarioRunner, TopologyAlgorithmAcceptsWeightedGraphAndViceVersa) {
  const ScenarioRunner runner;
  // bfs on a weighted spec runs on the topology.
  const auto bfs = runner.run_spec("bfs", "cycle:n=16,weights=2..5");
  EXPECT_TRUE(bfs.finished);
  EXPECT_EQ(bfs.nodes, 16u);
  // weighted-apsp through the Graph overload sees unit weights.
  const Graph g = build_graph("cycle:n=16");
  const auto apsp = runner.run("weighted-apsp", g, "cycle:n=16");
  EXPECT_TRUE(apsp.finished);
  EXPECT_EQ(apsp.nodes, 16u);
}

TEST(ScenarioRunner, UnknownAlgorithmListsWeightedNames) {
  const ScenarioRunner runner;
  try {
    runner.run_spec("frobnicate", "cycle:n=8");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& err) {
    const std::string what = err.what();
    EXPECT_NE(what.find("weighted-apsp"), std::string::npos);
    EXPECT_NE(what.find("bfs"), std::string::npos);
  }
}

TEST(ScenarioReport, OneRowPerResult) {
  const ScenarioRunner runner;
  std::vector<ScenarioResult> results;
  results.push_back(runner.run_spec("bfs", "cycle:n=16"));
  results.push_back(runner.run_spec("leader-election", "cycle:n=16"));
  const Table table = make_report(results);
  EXPECT_EQ(table.rows(), 2u);
  EXPECT_EQ(table.row(0)[0], "cycle:n=16");
  EXPECT_EQ(table.row(0)[1], "bfs");
  EXPECT_EQ(table.row(1)[1], "leader-election");
}

}  // namespace
}  // namespace fc::scenario
