#pragma once
// ScenarioRunner: the bridge from declarative scenarios to the CONGEST
// engine. Maps (--graph=<spec>, --algo=<name>) onto the library's
// distributed algorithms and reports the paper's cost measures — rounds,
// total messages, and max per-arc / per-edge congestion — as util/table rows.

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "congest/network.hpp"
#include "graph/graph.hpp"
#include "graph/weighted_graph.hpp"
#include "util/table.hpp"

namespace fc::scenario {

class GraphSpec;

/// Placement of the k batch-query sources (`sources=k`). kFirst queries
/// nodes 0..k-1 (apps::default_sources, the historical convention); kRandom
/// draws k distinct seed-keyed nodes (apps::random_sources, deterministic in
/// ScenarioConfig::seed). kUnset lets run_spec fill the mode from the spec's
/// `source_mode=` parameter and behaves like kFirst otherwise.
enum class SourceMode { kUnset, kFirst, kRandom };

/// Optional typed-result capture for callers that need the algorithm's
/// actual OUTPUT (the serve layer's typed responses), not just the cost
/// measures. Always expressed in the ids of the graph the caller passed in:
/// bfs and sssp run on that graph itself, with unreachable nodes at
/// algo::kUnreached / kInfWeight; mst runs on the root's component and maps
/// its tree edges back through the relabelling. Capture never changes the
/// execution or the ScenarioResult.
struct ScenarioPayload {
  /// Per-query weighted distances (sssp: one entry; batch-sssp: k entries).
  std::vector<std::vector<Weight>> distances;
  /// Per-query hop counts (bfs: one entry; batch-bfs: k entries).
  std::vector<std::vector<std::uint32_t>> hops;
  /// MST forest edges as canonical (u, v) endpoint pairs, u < v, sorted.
  std::vector<std::pair<NodeId, NodeId>> mst_edges;
  /// The resolved query sources (bfs/sssp: the root; batch: the k sources
  /// after SourceMode placement).
  std::vector<NodeId> sources;

  void clear() {
    distances.clear();
    hops.clear();
    mst_edges.clear();
    sources.clear();
  }
};

/// Knobs shared by all scenario algorithms.
struct ScenarioConfig {
  std::uint64_t seed = 1;
  /// Messages for k-broadcast style workloads; 0 means "one per node".
  std::uint64_t k = 0;
  NodeId root = 0;
  /// Stretch parameter for weighted-apsp: (2k-1)-approximation, Theorem 5.
  std::uint32_t stretch_k = 3;
  /// Source count for the batch workloads (batch-bfs, batch-sssp): queries
  /// run from nodes 0..sources-1 in ONE pipelined execution. 0 means 1.
  /// run_spec() fills this from a spec's `sources=k` parameter when the
  /// caller left it at 0.
  std::uint64_t sources = 0;
  /// Placement of those batch sources; run_spec() fills this from a spec's
  /// `source_mode=first|random` parameter when the caller left it kUnset.
  SourceMode source_mode = SourceMode::kUnset;
  /// Engine knobs threaded through every engine execution of the scenario.
  /// Which scenarios honour which knob:
  ///
  ///   knob        honoured by
  ///   max_rounds  every scenario but weighted-apsp (its broadcast keeps
  ///               FastBroadcastOptions' own cap)
  ///   pool        every scenario; results are bit-identical at every size
  ///   telemetry   every scenario. Multi-phase scenarios (broadcast = BFS +
  ///               pipe, MST's per-phase runs) share the one recorder, so
  ///               its snapshot holds the whole composite as
  ///               consecutively-indexed spans. Recording never changes the
  ///               reported costs (scenario_runner --telemetry=...).
  ///   faults      the single-engine workloads — bfs, batch-bfs,
  ///               leader-election, broadcast, convergecast, sssp. IGNORED
  ///               by the composite apps (mst, weighted-apsp, batch-sssp),
  ///               whose multi-phase round structure has no single
  ///               well-defined fault clock yet.
  ///   cancel      every scenario but weighted-apsp; the composite apps'
  ///               next phase observes the token. Callers with hard
  ///               deadlines should also check the clock after the run. A
  ///               cancelled scenario sets ScenarioResult::cancelled and
  ///               reports the work done up to the cut.
  ///
  /// Faults: the two-phase scenarios (broadcast, convergecast) re-apply the
  /// plan from round 0 of EACH phase's engine run — the fault clock is per
  /// run, so a permanent fault (crash/drop) at round r recurs at each
  /// phase's round r rather than persisting across the phase boundary.
  /// Fault ids are interpreted against the graph the engine actually runs
  /// on. bfs, batch-bfs, leader-election and sssp run on the graph the
  /// caller passed in, so their plans name FULL-graph ids. broadcast and
  /// convergecast restrict to the root's component on a disconnected graph
  /// and apply the plan to the RESTRICTED ids, so pair their plans with
  /// connected graphs (`largest_cc=1`).
  congest::RunOptions engine{.max_rounds = 10'000'000};
  /// Warm engine to reuse (serve layer's Network pool): engaged only when
  /// it is bound to EXACTLY the graph a scenario would run on (same Graph
  /// object). bfs, batch-bfs, leader-election, sssp and batch-sssp run on
  /// the caller's graph and use it; broadcast and convergecast use it only
  /// on a connected graph (they run a restricted copy otherwise); mst and
  /// weighted-apsp always build their own. Network::run fully resets
  /// per-run state, so reuse is safe and bit-identical — it saves the
  /// adjacency-sized slot/arena allocations, not determinism.
  congest::Network* network = nullptr;
  /// Typed-result capture (null = off); see ScenarioPayload. The runner
  /// clear()s it before filling.
  ScenarioPayload* payload = nullptr;
};

/// One algorithm run on one graph, in paper cost measures.
struct ScenarioResult {
  std::string graph;  // display name (usually the canonical spec)
  std::string algo;
  NodeId nodes = 0;
  EdgeId edges = 0;
  std::uint64_t rounds = 0;
  std::uint64_t messages = 0;
  std::uint64_t max_arc_congestion = 0;   // max sends over any directed arc
  std::uint64_t max_edge_congestion = 0;  // both directions of one edge
  /// Nearest-rank percentiles of the per-arc send distribution — how evenly
  /// the algorithm loads the graph, next to the max the theorems bound.
  /// 0 when the workload does not expose per-arc counts (weighted-apsp).
  std::uint64_t arc_p50 = 0;
  std::uint64_t arc_p99 = 0;
  bool finished = false;
  /// Some engine execution was truncated by ScenarioConfig::engine.cancel;
  /// the cost measures cover the work up to the cut (`finished` stays
  /// false).
  bool cancelled = false;
  std::string note;  // algorithm-specific outcome, e.g. "depth=7"
};

class ScenarioRunner {
 public:
  using AlgoFn = std::function<ScenarioResult(const Graph&,
                                              const ScenarioConfig&)>;
  using WeightedAlgoFn =
      std::function<ScenarioResult(const WeightedGraph&,
                                   const ScenarioConfig&)>;

  /// Constructs with the built-in algorithms registered: bfs, batch-bfs,
  /// leader-election, broadcast, convergecast (topology) and weighted-apsp,
  /// mst, sssp, batch-sssp (weighted).
  ScenarioRunner();

  /// Registered topology algorithm names, sorted. Weighted algorithms are
  /// listed separately so batch drivers ("--algo=all") can stay on the
  /// cheap unweighted set by default.
  std::vector<std::string> algorithms() const;
  std::vector<std::string> weighted_algorithms() const;
  bool has(const std::string& algo) const {
    return algos_.count(algo) > 0 || weighted_algos_.count(algo) > 0;
  }
  bool is_weighted(const std::string& algo) const {
    return weighted_algos_.count(algo) > 0;
  }

  /// Register (or replace) an algorithm.
  void add(const std::string& name, AlgoFn fn);
  void add_weighted(const std::string& name, WeightedAlgoFn fn);

  /// Run one algorithm on one graph. Throws std::invalid_argument for an
  /// unknown algorithm name (message lists the known ones). The Graph
  /// overload runs weighted algorithms with unit weights; the WeightedGraph
  /// overload runs topology algorithms on the underlying graph.
  ScenarioResult run(const std::string& algo, const Graph& g,
                     const std::string& graph_name,
                     const ScenarioConfig& cfg = {}) const;
  ScenarioResult run(const std::string& algo, const WeightedGraph& g,
                     const std::string& graph_name,
                     const ScenarioConfig& cfg = {}) const;

  /// Convenience: parse + build the spec, then run. A weighted algorithm
  /// gets the spec's `weights=lo..hi` weights (unit weights when absent).
  ScenarioResult run_spec(const std::string& algo, const std::string& spec,
                          const ScenarioConfig& cfg = {}) const;

 private:
  std::map<std::string, AlgoFn> algos_;
  std::map<std::string, WeightedAlgoFn> weighted_algos_;
};

/// Render results as the standard metrics table.
Table make_report(const std::vector<ScenarioResult>& results);

/// THE precedence rule for spec-level config parameters (today: sources=k
/// and source_mode=first|random): an explicit caller value wins, otherwise
/// the spec's value applies. Used
/// by ScenarioRunner::run_spec and by drivers that build graphs themselves
/// (scenario_runner's --cache path).
ScenarioConfig apply_spec_config(ScenarioConfig cfg, const GraphSpec& spec);

}  // namespace fc::scenario
