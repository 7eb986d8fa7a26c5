#include "scenario/runner.hpp"

#include <optional>
#include <stdexcept>

#include "algo/bfs.hpp"
#include "algo/convergecast.hpp"
#include "algo/leader_election.hpp"
#include "algo/pipeline_broadcast.hpp"
#include "apps/batch_sssp.hpp"
#include "apps/mst.hpp"
#include "apps/sssp.hpp"
#include "apps/weighted_apsp.hpp"
#include "congest/network.hpp"
#include "graph/mincut.hpp"
#include "graph/properties.hpp"
#include "scenario/spec.hpp"
#include "util/rng.hpp"

namespace fc::scenario {

namespace {

/// The composite apps (mst, batch-sssp, weighted-apsp) ignore the fault
/// plan: their multi-phase round structure has no single fault clock.
congest::RunOptions fault_free(congest::RunOptions engine) {
  engine.faults = nullptr;
  return engine;
}

/// Resolve the engine a scenario runs on: the caller's warm Network when it
/// is bound to EXACTLY `g` (the serve layer's pooled engine), else a local
/// one constructed into `local` on demand. Multi-phase scenarios call this
/// once and run every phase on the same engine — Network::run resets all
/// per-run state, so sequential reuse is bit-identical to fresh engines.
congest::Network& engine_for(const Graph& g, const ScenarioConfig& cfg,
                             std::optional<congest::Network>& local) {
  if (cfg.network != nullptr && &cfg.network->graph() == &g)
    return *cfg.network;
  if (!local) local.emplace(g);
  return *local;
}

/// The `sources=k` query set under the configured SourceMode: nodes 0..k-1
/// (kFirst / kUnset) or k distinct seed-keyed nodes (kRandom).
std::vector<NodeId> batch_sources(const Graph& g, const ScenarioConfig& cfg) {
  const std::uint64_t k = cfg.sources != 0 ? cfg.sources : 1;
  return cfg.source_mode == SourceMode::kRandom
             ? apps::random_sources(g, k, cfg.seed)
             : apps::default_sources(g, k);
}

NodeId checked_root(const Graph& g, const ScenarioConfig& cfg) {
  if (cfg.root >= g.node_count())
    throw std::invalid_argument(
        "scenario: root " + std::to_string(cfg.root) +
        " out of range for a graph with n=" + std::to_string(g.node_count()));
  return cfg.root;
}

/// Fold one engine run into the result (phases add; congestion is over the
/// whole execution, so arc sends accumulate across phases).
void accumulate(ScenarioResult& r, const congest::RunResult& cost,
                std::vector<std::uint64_t>& arc_sends) {
  r.rounds += cost.rounds;
  r.messages += cost.messages;
  r.finished = r.finished && cost.finished;
  r.cancelled = r.cancelled || cost.cancelled;
  if (arc_sends.empty()) arc_sends.assign(cost.arc_sends.size(), 0);
  for (std::size_t a = 0; a < cost.arc_sends.size(); ++a)
    arc_sends[a] += cost.arc_sends[a];
}

void finish(ScenarioResult& r, const Graph& g,
            const std::vector<std::uint64_t>& arc_sends) {
  r.nodes = g.node_count();
  r.edges = g.edge_count();
  r.max_arc_congestion = congest::max_arc_congestion(arc_sends);
  r.max_edge_congestion = congest::max_edge_congestion(g, arc_sends);
  const congest::HistogramSummary h = congest::summarize_counts(arc_sends);
  r.arc_p50 = h.p50;
  r.arc_p99 = h.p99;
}

ScenarioResult run_bfs_scenario(const Graph& g, const ScenarioConfig& cfg) {
  ScenarioResult r;
  r.finished = true;
  std::optional<congest::Network> local;
  congest::Network& net = engine_for(g, cfg, local);
  algo::DistributedBfs bfs(g, checked_root(g, cfg));
  const auto cost = net.run(bfs, cfg.engine);
  std::vector<std::uint64_t> sends;
  accumulate(r, cost, sends);
  finish(r, g, sends);
  if (cfg.payload != nullptr) {
    cfg.payload->hops.push_back(bfs.distances());
    cfg.payload->sources = {bfs.root()};
  }
  r.note = "depth=" + std::to_string(bfs.depth()) +
           " reached=" + std::to_string(bfs.reached_count());
  return r;
}

/// k-source batch workloads answer queries from the SourceMode placement
/// (nodes 0..k-1 by default) in one pipelined execution (the documented
/// `sources=k` convention). Unlike the single-source tree workloads there
/// is no root-component restriction: each query naturally covers its own
/// source's component.
ScenarioResult run_batch_bfs_scenario(const Graph& g,
                                      const ScenarioConfig& cfg) {
  ScenarioResult r;
  r.finished = true;
  const std::uint64_t k = cfg.sources != 0 ? cfg.sources : 1;
  std::optional<congest::Network> local;
  congest::Network& net = engine_for(g, cfg, local);
  algo::BatchBfs alg(g, batch_sources(g, cfg));
  std::vector<std::uint64_t> sends;
  accumulate(r, net.run(alg, cfg.engine), sends);
  finish(r, g, sends);
  if (cfg.payload != nullptr) {
    for (std::uint32_t s = 0; s < alg.k(); ++s)
      cfg.payload->hops.push_back(alg.source_distances(s));
    cfg.payload->sources = alg.sources();
  }
  NodeId reached_lo = g.node_count(), reached_hi = 0;
  std::uint32_t depth = 0;
  for (std::uint32_t s = 0; s < alg.k(); ++s) {
    const NodeId reached = alg.reached_count(s);
    reached_lo = std::min(reached_lo, reached);
    reached_hi = std::max(reached_hi, reached);
    depth = std::max(depth, alg.depth(s));
  }
  r.note = "k=" + std::to_string(k) + " depth_max=" + std::to_string(depth) +
           " reached=" + std::to_string(reached_lo) + ".." +
           std::to_string(reached_hi);
  return r;
}

ScenarioResult run_batch_sssp_scenario(const WeightedGraph& g,
                                       const ScenarioConfig& cfg) {
  ScenarioResult r;
  const std::uint64_t k = cfg.sources != 0 ? cfg.sources : 1;
  const apps::BatchSsspOptions opts{.engine = fault_free(cfg.engine),
                                     .network = cfg.network};
  auto rep = apps::batch_sssp(g, batch_sources(g.graph(), cfg), opts);
  r.rounds = rep.rounds;
  r.messages = rep.messages;
  r.finished = rep.finished;
  r.cancelled = rep.cancelled;
  finish(r, g.graph(), rep.arc_sends);
  if (cfg.payload != nullptr) {
    cfg.payload->sources = rep.sources;
    cfg.payload->distances = std::move(rep.dist);
  }
  NodeId reached_lo = g.graph().node_count(), reached_hi = 0;
  Weight dist_hi = 0;
  for (std::uint32_t s = 0; s < rep.sources.size(); ++s) {
    reached_lo = std::min(reached_lo, rep.reached[s]);
    reached_hi = std::max(reached_hi, rep.reached[s]);
    dist_hi = std::max(dist_hi, rep.max_dist[s]);
  }
  r.note = "k=" + std::to_string(k) + " reached=" +
           std::to_string(reached_lo) + ".." + std::to_string(reached_hi) +
           " max_dist=" + std::to_string(dist_hi);
  return r;
}

ScenarioResult run_leader_scenario(const Graph& g, const ScenarioConfig& cfg) {
  ScenarioResult r;
  r.finished = true;
  std::optional<congest::Network> local;
  congest::Network& net = engine_for(g, cfg, local);
  algo::LeaderElection alg(g);
  const auto cost = net.run(alg, cfg.engine);
  std::vector<std::uint64_t> sends;
  accumulate(r, cost, sends);
  finish(r, g, sends);
  r.note = cost.finished ? "leader=" + std::to_string(alg.leader()) : "-";
  return r;
}

/// Tree workloads (broadcast, convergecast, mst, weighted-apsp) need a
/// connected graph, but scenario families like R-MAT are naturally
/// disconnected. Restrict such runs to the root's component (relabelled to
/// dense ids via the shared fc::restrict_to_component rule) and record the
/// restriction in the note, instead of refusing the workload. `induced` is
/// engaged only when restricted; resolve the graph to run on via get() so
/// the struct stays safely movable (no pointer into itself).
struct Workload {
  NodeId root;
  std::optional<Graph> induced;  // storage when restricted
  std::string note;              // "" or " cc=<reached>/<n>"
  const Graph& get(const Graph& full) const {
    return induced ? *induced : full;
  }
};

std::string restriction_note(NodeId reached, NodeId n) {
  return " cc=" + std::to_string(reached) + "/" + std::to_string(n);
}

Workload root_component(const Graph& g, NodeId root) {
  Workload w{root, std::nullopt, ""};
  ComponentRestriction r = restrict_to_component(g, root);
  if (r.is_identity(g)) return w;
  w.root = r.root;
  w.note = restriction_note(r.reached, g.node_count());
  w.induced = std::move(r.graph);
  return w;
}

ScenarioResult run_broadcast_scenario(const Graph& full,
                                      const ScenarioConfig& cfg) {
  ScenarioResult r;
  r.finished = true;
  const Workload w = root_component(full, checked_root(full, cfg));
  const Graph& g = w.get(full);
  const NodeId root = w.root;
  const std::uint64_t k = cfg.k != 0 ? cfg.k : g.node_count();
  Rng rng(cfg.seed);
  std::vector<algo::PlacedMessage> msgs;
  msgs.reserve(k);
  for (std::uint64_t i = 0; i < k; ++i)
    msgs.push_back({static_cast<NodeId>(rng.below(g.node_count())), i, rng()});

  // Both phases share one engine (run() resets per-run state): the warm
  // pooled Network when the run is unrestricted, a single local one else.
  std::vector<std::uint64_t> sends;
  std::optional<congest::Network> local;
  congest::Network& net = engine_for(g, cfg, local);
  algo::DistributedBfs bfs(g, root);
  accumulate(r, net.run(bfs, cfg.engine), sends);
  const auto tree = algo::extract_tree(g, bfs);

  algo::PipelineBroadcast pipe(g, tree, std::move(msgs));
  accumulate(r, net.run(pipe, cfg.engine), sends);
  finish(r, g, sends);

  bool complete = true;
  for (NodeId v = 0; v < g.node_count() && complete; ++v)
    complete = pipe.digest(v) == pipe.expected_digest();
  r.note = "k=" + std::to_string(k) +
           (complete ? " delivered" : " INCOMPLETE") + w.note;
  r.finished = r.finished && complete;
  return r;
}

ScenarioResult run_convergecast_scenario(const Graph& full,
                                         const ScenarioConfig& cfg) {
  ScenarioResult r;
  r.finished = true;
  const Workload w = root_component(full, checked_root(full, cfg));
  const Graph& g = w.get(full);
  const NodeId root = w.root;
  std::vector<std::uint64_t> sends;
  std::optional<congest::Network> local;
  congest::Network& net = engine_for(g, cfg, local);
  algo::DistributedBfs bfs(g, root);
  accumulate(r, net.run(bfs, cfg.engine), sends);
  const auto tree = algo::extract_tree(g, bfs);

  // Aggregate sum of node ids: every node can verify n(n-1)/2.
  std::vector<std::uint64_t> values(g.node_count());
  for (NodeId v = 0; v < g.node_count(); ++v) values[v] = v;
  algo::Convergecast agg(g, tree, algo::AggregateOp::kSum, std::move(values));
  accumulate(r, net.run(agg, cfg.engine), sends);
  finish(r, g, sends);
  r.note = "sum=" + std::to_string(agg.result(root)) + w.note;
  return r;
}

/// Weighted counterpart of Workload/root_component: the same shared
/// restriction, carrying edge weights over via kept_edges. `kept_edges` is
/// retained so mst's payload can map tree edges back to FULL-graph ids; it
/// is empty for an identity restriction.
struct WeightedWorkload {
  NodeId root;
  std::optional<WeightedGraph> induced;  // engaged only when restricted
  std::string note;
  std::vector<EdgeId> kept_edges;  // run EdgeId -> full EdgeId
  const WeightedGraph& get(const WeightedGraph& full) const {
    return induced ? *induced : full;
  }
};

WeightedWorkload weighted_root_component(const WeightedGraph& wg,
                                         NodeId root) {
  const Graph& g = wg.graph();
  WeightedWorkload w{root, std::nullopt, "", {}};
  ComponentRestriction r = restrict_to_component(g, root);
  if (r.is_identity(g)) return w;
  std::vector<Weight> weights;
  weights.reserve(r.kept_edges.size());
  for (const EdgeId e : r.kept_edges) weights.push_back(wg.weight(e));
  w.root = r.root;
  w.note = restriction_note(r.reached, g.node_count());
  w.kept_edges = std::move(r.kept_edges);
  w.induced = WeightedGraph(std::move(r.graph), std::move(weights));
  return w;
}

ScenarioResult run_weighted_apsp_scenario(const WeightedGraph& full,
                                          const ScenarioConfig& cfg) {
  ScenarioResult r;
  const WeightedWorkload w =
      weighted_root_component(full, checked_root(full.graph(), cfg));
  const WeightedGraph& g = w.get(full);
  r.nodes = g.graph().node_count();
  r.edges = g.graph().edge_count();
  if (r.nodes < 2) {
    r.finished = true;
    r.note = "trivial component" + w.note;
    return r;
  }
  const std::uint32_t lambda =
      std::max(1u, estimate_edge_connectivity(g.graph(), cfg.seed).value);
  apps::WeightedApspOptions opts;
  opts.seed = cfg.seed;
  // The broadcast keeps its own round cap and runs uncancelled.
  const std::uint64_t cap = opts.broadcast.engine.max_rounds;
  opts.broadcast.engine = fault_free(cfg.engine);
  opts.broadcast.engine.max_rounds = cap;
  opts.broadcast.engine.cancel = nullptr;
  const auto report =
      apps::approximate_apsp_weighted(g, lambda, cfg.stretch_k, opts);
  r.rounds = report.total_rounds;
  r.messages = report.broadcast_report.messages;
  r.max_edge_congestion = report.broadcast_report.max_edge_congestion;
  r.finished = report.broadcast_report.complete;
  r.note = "stretch<=" + std::to_string(2 * cfg.stretch_k - 1) +
           " lambda=" + std::to_string(lambda) +
           " spanner=" + std::to_string(report.spanner.edges.size()) + w.note;
  return r;
}

ScenarioResult run_mst_scenario(const WeightedGraph& full,
                                const ScenarioConfig& cfg) {
  ScenarioResult r;
  const WeightedWorkload w =
      weighted_root_component(full, checked_root(full.graph(), cfg));
  const WeightedGraph& g = w.get(full);
  const auto rep =
      apps::distributed_mst(g, {.engine = fault_free(cfg.engine)});
  r.rounds = rep.rounds;
  r.messages = rep.messages;
  r.finished = rep.finished;
  r.cancelled = rep.cancelled;
  finish(r, g.graph(), rep.arc_sends);
  if (cfg.payload != nullptr) {
    cfg.payload->sources = {cfg.root};
    cfg.payload->mst_edges.reserve(rep.tree_edges.size());
    for (const EdgeId e : rep.tree_edges) {
      const EdgeId full_e = w.kept_edges.empty() ? e : w.kept_edges[e];
      cfg.payload->mst_edges.emplace_back(full.graph().edge_u(full_e),
                                          full.graph().edge_v(full_e));
    }
  }
  r.note = "mst_weight=" + std::to_string(rep.total_weight) +
           " edges=" + std::to_string(rep.tree_edges.size()) +
           " phases=" + std::to_string(rep.phases) + w.note;
  return r;
}

/// sssp runs on the FULL graph, on the caller's warm engine when it is
/// bound to it: the engine steps only nodes that receive a message, so
/// Bellman–Ford touches exactly the root's component, with the same
/// rounds, sends and tie-breaks as a run on the restricted copy (the
/// restriction relabels monotonically and keeps edges in id order). The
/// report stays the component's: a serial BFS marks the members, and
/// nodes, edges, the arc percentiles and the ` cc=` note count only them.
/// Fault ids and payload distances are full-graph ids.
ScenarioResult run_sssp_scenario(const WeightedGraph& wg,
                                 const ScenarioConfig& cfg) {
  const Graph& g = wg.graph();
  const NodeId root = checked_root(g, cfg);
  const std::vector<std::uint32_t> hops = bfs_distances(g, root);
  NodeId size = 0;
  for (const std::uint32_t d : hops) size += d != kUnreached;
  const std::string cc =
      size == g.node_count() ? "" : restriction_note(size, g.node_count());

  ScenarioResult r;
  r.nodes = size;
  if (size < 2) {
    r.finished = true;
    r.note = "trivial component" + cc;
    if (cfg.payload != nullptr) {
      std::vector<Weight> dist(g.node_count(), kInfWeight);
      dist[root] = 0;
      cfg.payload->distances.push_back(std::move(dist));
      cfg.payload->sources = {root};
    }
    return r;
  }
  auto rep = apps::distributed_sssp(
      wg, root, {.engine = cfg.engine, .network = cfg.network});
  r.rounds = rep.rounds;
  r.messages = rep.messages;
  r.finished = rep.finished;
  r.cancelled = rep.cancelled;
  // Arcs outside the component never send, so the maxima are the same
  // over the full arc vector; the percentiles must not see their zeros.
  std::vector<std::uint64_t> member_sends;
  for (NodeId v = 0; v < g.node_count(); ++v)
    if (hops[v] != kUnreached)
      for (ArcId a = g.arc_begin(v); a < g.arc_end(v); ++a)
        member_sends.push_back(rep.arc_sends[a]);
  r.edges = static_cast<EdgeId>(member_sends.size() / 2);
  r.max_arc_congestion = congest::max_arc_congestion(rep.arc_sends);
  r.max_edge_congestion = congest::max_edge_congestion(g, rep.arc_sends);
  const congest::HistogramSummary h = congest::summarize_counts(member_sends);
  r.arc_p50 = h.p50;
  r.arc_p99 = h.p99;
  if (cfg.payload != nullptr) {
    cfg.payload->distances.push_back(std::move(rep.dist));
    cfg.payload->sources = {root};
  }
  r.note = "reached=" + std::to_string(rep.reached) +
           " max_dist=" + std::to_string(rep.max_dist) + cc;
  return r;
}

}  // namespace

ScenarioRunner::ScenarioRunner() {
  add("bfs", run_bfs_scenario);
  add("batch-bfs", run_batch_bfs_scenario);
  add("leader-election", run_leader_scenario);
  add("broadcast", run_broadcast_scenario);
  add("convergecast", run_convergecast_scenario);
  add_weighted("weighted-apsp", run_weighted_apsp_scenario);
  add_weighted("mst", run_mst_scenario);
  add_weighted("sssp", run_sssp_scenario);
  add_weighted("batch-sssp", run_batch_sssp_scenario);
}

std::vector<std::string> ScenarioRunner::algorithms() const {
  std::vector<std::string> out;
  out.reserve(algos_.size());
  for (const auto& [name, _] : algos_) out.push_back(name);
  return out;
}

std::vector<std::string> ScenarioRunner::weighted_algorithms() const {
  std::vector<std::string> out;
  out.reserve(weighted_algos_.size());
  for (const auto& [name, _] : weighted_algos_) out.push_back(name);
  return out;
}

void ScenarioRunner::add(const std::string& name, AlgoFn fn) {
  algos_[name] = std::move(fn);
}

void ScenarioRunner::add_weighted(const std::string& name, WeightedAlgoFn fn) {
  weighted_algos_[name] = std::move(fn);
}

namespace {

[[noreturn]] void unknown_algorithm(const std::string& algo,
                                    std::vector<std::string> names,
                                    const std::vector<std::string>& weighted) {
  names.insert(names.end(), weighted.begin(), weighted.end());
  std::string known;
  for (const auto& name : names) {
    if (!known.empty()) known += ", ";
    known += name;
  }
  throw std::invalid_argument("scenario: unknown algorithm '" + algo +
                              "'; known: " + known);
}

}  // namespace

ScenarioResult ScenarioRunner::run(const std::string& algo, const Graph& g,
                                   const std::string& graph_name,
                                   const ScenarioConfig& cfg) const {
  const auto it = algos_.find(algo);
  if (it == algos_.end()) {
    if (is_weighted(algo)) {
      // Topology-only caller: weighted algorithms see unit weights.
      std::vector<Weight> unit(g.edge_count(), 1);
      return run(algo, WeightedGraph(g, std::move(unit)), graph_name, cfg);
    }
    unknown_algorithm(algo, algorithms(), weighted_algorithms());
  }
  if (cfg.payload != nullptr) cfg.payload->clear();
  ScenarioResult r = it->second(g, cfg);
  r.graph = graph_name;
  r.algo = algo;
  return r;
}

ScenarioResult ScenarioRunner::run(const std::string& algo,
                                   const WeightedGraph& g,
                                   const std::string& graph_name,
                                   const ScenarioConfig& cfg) const {
  const auto it = weighted_algos_.find(algo);
  if (it == weighted_algos_.end()) {
    if (algos_.count(algo) > 0)  // topology algorithm: weights are ignored
      return run(algo, g.graph(), graph_name, cfg);
    unknown_algorithm(algo, algorithms(), weighted_algorithms());
  }
  if (cfg.payload != nullptr) cfg.payload->clear();
  ScenarioResult r = it->second(g, cfg);
  r.graph = graph_name;
  r.algo = algo;
  return r;
}

ScenarioConfig apply_spec_config(ScenarioConfig cfg, const GraphSpec& spec) {
  if (cfg.sources == 0 && spec.has("sources"))
    cfg.sources = spec.require_uint("sources");
  if (cfg.source_mode == SourceMode::kUnset && spec.has("source_mode"))
    cfg.source_mode = spec.params().at("source_mode") == "random"
                          ? SourceMode::kRandom
                          : SourceMode::kFirst;
  return cfg;
}

ScenarioResult ScenarioRunner::run_spec(const std::string& algo,
                                        const std::string& spec,
                                        const ScenarioConfig& cfg) const {
  const GraphSpec parsed = GraphSpec::parse(spec);
  const ScenarioConfig effective = apply_spec_config(cfg, parsed);
  if (is_weighted(algo)) {
    const WeightedGraph g = Registry::instance().build_weighted(parsed);
    return run(algo, g, parsed.to_string(), effective);
  }
  const Graph g = Registry::instance().build(parsed);
  return run(algo, g, parsed.to_string(), effective);
}

Table make_report(const std::vector<ScenarioResult>& results) {
  Table table({"graph", "algo", "n", "m", "rounds", "messages", "max arc",
               "arc p50", "arc p99", "max edge", "done", "note"});
  for (const auto& r : results)
    table.add_row({r.graph, r.algo, Table::num(std::size_t{r.nodes}),
                   Table::num(std::size_t{r.edges}),
                   Table::num(std::size_t{r.rounds}),
                   Table::num(std::size_t{r.messages}),
                   Table::num(std::size_t{r.max_arc_congestion}),
                   Table::num(std::size_t{r.arc_p50}),
                   Table::num(std::size_t{r.arc_p99}),
                   Table::num(std::size_t{r.max_edge_congestion}),
                   r.finished ? "yes" : "NO", r.note});
  return table;
}

}  // namespace fc::scenario
