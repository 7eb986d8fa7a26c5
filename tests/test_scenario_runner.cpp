#include "scenario/runner.hpp"

#include <gtest/gtest.h>

#include <optional>

#include "apps/sssp.hpp"
#include "congest/cancel.hpp"
#include "congest/faults.hpp"
#include "congest/telemetry.hpp"
#include "graph/properties.hpp"
#include "scenario/spec.hpp"
#include "util/thread_pool.hpp"

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

// ------------------------------------------ sssp on the full graph ------
//
// The sssp scenario runs Bellman–Ford on the full graph and reports the
// root's component. The oracle below is the restrict-then-run-then-scatter
// path it replaced: relabel the component, run on the copy, report the
// copy, and scatter the distances back to full-graph ids. Every field and
// the payload must be equal on disconnected graphs.

struct SsspAnswer {
  ScenarioResult result;
  std::vector<Weight> distances;
  std::vector<NodeId> sources;
};

SsspAnswer restricted_sssp_oracle(const WeightedGraph& full,
                                  const std::string& name,
                                  const ScenarioConfig& cfg) {
  const NodeId n = full.graph().node_count();
  ComponentRestriction cr = restrict_to_component(full.graph(), cfg.root);
  const bool identity = cr.is_identity(full.graph());
  std::optional<WeightedGraph> induced;
  NodeId root = cfg.root;
  std::string cc;
  if (!identity) {
    std::vector<Weight> weights;
    for (const EdgeId e : cr.kept_edges) weights.push_back(full.weight(e));
    induced.emplace(std::move(cr.graph), std::move(weights));
    root = cr.root;
    cc = " cc=" + std::to_string(cr.reached) + "/" + std::to_string(n);
  }
  const WeightedGraph& g = induced ? *induced : full;

  SsspAnswer out;
  ScenarioResult& r = out.result;
  r.graph = name;
  r.algo = "sssp";
  r.nodes = g.graph().node_count();
  out.sources = {cfg.root};
  out.distances.assign(n, kInfWeight);
  if (r.nodes < 2) {
    r.finished = true;
    r.note = "trivial component" + cc;
    out.distances[cfg.root] = 0;
    return out;
  }
  const auto rep = apps::distributed_sssp(
      g, root, {.engine = cfg.engine, .network = cfg.network});
  r.edges = g.graph().edge_count();
  r.rounds = rep.rounds;
  r.messages = rep.messages;
  r.finished = rep.finished;
  r.cancelled = rep.cancelled;
  r.max_arc_congestion = rep.max_arc_congestion();
  r.max_edge_congestion = rep.max_edge_congestion(g.graph());
  const congest::HistogramSummary h = congest::summarize_counts(rep.arc_sends);
  r.arc_p50 = h.p50;
  r.arc_p99 = h.p99;
  for (NodeId v = 0; v < n; ++v) {
    const NodeId id = identity ? v : cr.new_id[v];
    if (id != kInvalidNode) out.distances[v] = rep.dist[id];
  }
  r.note = "reached=" + std::to_string(rep.reached) +
           " max_dist=" + std::to_string(rep.max_dist) + cc;
  return out;
}

SsspAnswer runner_sssp(const WeightedGraph& g, const std::string& name,
                       ScenarioConfig cfg) {
  SsspAnswer out;
  ScenarioPayload payload;
  cfg.payload = &payload;
  out.result = ScenarioRunner().run("sssp", g, name, cfg);
  EXPECT_EQ(payload.distances.size(), 1u);
  if (!payload.distances.empty()) out.distances = payload.distances.front();
  out.sources = payload.sources;
  return out;
}

void expect_same_answer(const SsspAnswer& got, const SsspAnswer& want) {
  const ScenarioResult& g = got.result;
  const ScenarioResult& w = want.result;
  EXPECT_EQ(g.graph, w.graph);
  EXPECT_EQ(g.algo, w.algo);
  EXPECT_EQ(g.nodes, w.nodes);
  EXPECT_EQ(g.edges, w.edges);
  EXPECT_EQ(g.rounds, w.rounds);
  EXPECT_EQ(g.messages, w.messages);
  EXPECT_EQ(g.max_arc_congestion, w.max_arc_congestion);
  EXPECT_EQ(g.max_edge_congestion, w.max_edge_congestion);
  EXPECT_EQ(g.arc_p50, w.arc_p50);
  EXPECT_EQ(g.arc_p99, w.arc_p99);
  EXPECT_EQ(g.finished, w.finished);
  EXPECT_EQ(g.cancelled, w.cancelled);
  EXPECT_EQ(g.note, w.note);
  EXPECT_EQ(got.distances, want.distances);
  EXPECT_EQ(got.sources, want.sources);
}

/// First node of degree 0, or kInvalidNode.
NodeId isolated_node(const Graph& g) {
  for (NodeId v = 0; v < g.node_count(); ++v)
    if (g.degree(v) == 0) return v;
  return kInvalidNode;
}

/// First node of a component with 2..n/4 members, or kInvalidNode. Rooted
/// there, most of the graph's arcs lie outside the root's component.
NodeId small_component_member(const Graph& g) {
  const std::vector<std::uint32_t> label = components(g);
  std::vector<NodeId> size(g.node_count(), 0);
  for (const std::uint32_t c : label) ++size[c];
  for (NodeId v = 0; v < g.node_count(); ++v)
    if (size[label[v]] >= 2 && size[label[v]] <= g.node_count() / 4) return v;
  return kInvalidNode;
}

TEST(SsspFullGraph, MatchesRestrictedOracleOnDisconnectedSpecs) {
  // Disconnected R-MATs (no largest_cc), one of them past the engine's
  // 512-node parallel-round threshold, plus a connected control.
  const char* const specs[] = {
      "rmat:n=256,deg=3,seed=2,weights=1..9",
      "rmat:n=2048,deg=4,seed=5,weights=1..100",
      "random_regular:n=96,d=6,seed=3,weights=1..100",
  };
  for (const char* spec : specs) {
    SCOPED_TRACE(spec);
    const WeightedGraph g = build_weighted_graph(spec);
    const NodeId n = g.graph().node_count();
    std::vector<NodeId> roots = {0, n / 3, n - 1};
    for (const NodeId extra :
         {isolated_node(g.graph()), small_component_member(g.graph())})
      if (extra != kInvalidNode) roots.push_back(extra);
    congest::Network warm(g.graph());
    for (const std::size_t threads : {1u, 2u, 8u}) {
      ThreadPool pool(threads);
      for (const bool dense : {false, true}) {
        for (const bool bound : {false, true}) {
          for (const NodeId root : roots) {
            SCOPED_TRACE(::testing::Message()
                         << "threads=" << threads << " dense=" << dense
                         << " bound=" << bound << " root=" << root);
            ScenarioConfig cfg;
            cfg.root = root;
            cfg.engine.pool = &pool;
            cfg.engine.force_dense = dense;
            if (bound) cfg.network = &warm;
            expect_same_answer(runner_sssp(g, spec, cfg),
                               restricted_sssp_oracle(g, spec, cfg));
          }
        }
      }
    }
  }
}

TEST(SsspFullGraph, IsolatedRootKeepsTheTrivialComponentOutput) {
  const std::string spec = "rmat:n=256,deg=3,seed=2,weights=1..9";
  const WeightedGraph g = build_weighted_graph(spec);
  const NodeId iso = isolated_node(g.graph());
  ASSERT_NE(iso, kInvalidNode);
  ScenarioConfig cfg;
  cfg.root = iso;
  const SsspAnswer got = runner_sssp(g, spec, cfg);
  expect_same_answer(got, restricted_sssp_oracle(g, spec, cfg));
  EXPECT_EQ(got.result.nodes, 1u);
  EXPECT_EQ(got.result.rounds, 0u);
  EXPECT_EQ(got.result.note, "trivial component cc=1/256");
}

TEST(SsspFullGraph, SingleNodeGraph) {
  const WeightedGraph g(
      Graph::from_edges(1, std::vector<std::pair<NodeId, NodeId>>{}), {});
  ScenarioConfig cfg;
  const SsspAnswer got = runner_sssp(g, "one", cfg);
  expect_same_answer(got, restricted_sssp_oracle(g, "one", cfg));
  EXPECT_EQ(got.result.nodes, 1u);
  EXPECT_EQ(got.result.note, "trivial component");
  EXPECT_EQ(got.distances, std::vector<Weight>{0});
}

TEST(SsspFullGraph, TruncatedRunsStillReportTheComponentSize) {
  const std::string spec = "rmat:n=2048,deg=4,seed=5,weights=1..100";
  const WeightedGraph g = build_weighted_graph(spec);
  const NodeId size = restrict_to_component(g.graph(), 0).reached;
  ASSERT_LT(size, g.graph().node_count());
  ASSERT_GT(size, 100u);

  // Cancelled before the first round: nothing is reached, yet `nodes` is
  // the component, not the partial reach.
  congest::CancelToken cancelled;
  cancelled.cancel();
  ScenarioConfig cfg;
  cfg.engine.cancel = &cancelled;
  const SsspAnswer cut = runner_sssp(g, spec, cfg);
  expect_same_answer(cut, restricted_sssp_oracle(g, spec, cfg));
  EXPECT_TRUE(cut.result.cancelled);
  EXPECT_FALSE(cut.result.finished);
  EXPECT_EQ(cut.result.nodes, size);

  // Cut mid-way at a fixed round: the deterministic stand-in for a
  // deadline that lands mid-run. Part of the component is reached.
  ScenarioConfig capped;
  capped.engine.max_rounds = 3;
  const SsspAnswer mid = runner_sssp(g, spec, capped);
  expect_same_answer(mid, restricted_sssp_oracle(g, spec, capped));
  EXPECT_FALSE(mid.result.finished);
  EXPECT_EQ(mid.result.nodes, size);
  EXPECT_EQ(mid.result.note.find("reached=" + std::to_string(size) + " "),
            std::string::npos)
      << mid.result.note;

  // A real deadline: wherever it cuts the run, `nodes` stays the component.
  for (const int budget_us : {50, 200, 800}) {
    const congest::CancelToken deadline =
        congest::CancelToken::after(std::chrono::microseconds(budget_us));
    ScenarioConfig timed;
    timed.engine.cancel = &deadline;
    const SsspAnswer got = runner_sssp(g, spec, timed);
    EXPECT_EQ(got.result.nodes, size) << budget_us;
    EXPECT_EQ(got.result.finished, !got.result.cancelled) << budget_us;
  }
}

TEST(SsspFullGraph, FaultPlansNameFullGraphIds) {
  const std::string spec = "rmat:n=256,deg=3,seed=2,weights=1..9";
  const WeightedGraph g = build_weighted_graph(spec);
  const NodeId root = 0;
  const ComponentRestriction cr = restrict_to_component(g.graph(), root);
  ASSERT_FALSE(cr.is_identity(g.graph()));
  // A member other than the root whose restricted id differs from its
  // full id, so the two id spaces name different nodes.
  NodeId victim = kInvalidNode;
  for (NodeId v = 0; v < g.graph().node_count() && victim == kInvalidNode;
       ++v)
    if (v != root && cr.new_id[v] != kInvalidNode && cr.new_id[v] != v)
      victim = v;
  ASSERT_NE(victim, kInvalidNode);

  congest::FaultPlan plan;
  plan.crash_node(0, victim);
  ScenarioConfig clean;
  clean.root = root;
  ScenarioConfig faulted = clean;
  faulted.engine.faults = &plan;
  const SsspAnswer before = runner_sssp(g, spec, clean);
  const SsspAnswer after = runner_sssp(g, spec, faulted);
  ASSERT_NE(before.distances[victim], kInfWeight);
  // The crashed node is the full-graph id: it never steps, so it is never
  // reached, and the answer equals a direct full-graph run.
  EXPECT_EQ(after.distances[victim], kInfWeight);
  EXPECT_NE(after.distances, before.distances);
  EXPECT_NE(after.result.note, before.result.note);
  const auto direct = apps::distributed_sssp(
      g, root, {.engine = {.max_rounds = 10'000'000, .faults = &plan}});
  EXPECT_EQ(after.distances, direct.dist);
  EXPECT_EQ(after.result.rounds, direct.rounds);
  EXPECT_EQ(after.result.messages, direct.messages);
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
