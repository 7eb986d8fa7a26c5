// Experiment N1: round-engine throughput, dense sweep vs event-driven
// (sparse) activation.
//
// The engine promises O(active nodes + messages) work per round. This
// harness quantifies what that buys across the three activation regimes:
//
//   * deep path    — BFS frontier of O(1) nodes for n rounds: the dense
//                    sweep pays O(n) no-op handler calls per round (O(n^2)
//                    total), the sparse engine pays O(1) per round. The
//                    headline regime: speedups in the 100-1000x range.
//   * expander     — few rounds, nearly everything active every round
//                    (batch-bfs keeps per-node backlogs hot): sparse must
//                    NOT regress here; activation bookkeeping is the only
//                    delta.
//   * star         — one hot hub, n leaves active for exactly one round.
//   * messages>>n  — batch-bfs with k=256 sources on the expander: every
//                    round delivers far more messages than there are
//                    nodes, so delivery stamping (not handler dispatch)
//                    is the bottleneck; CI asserts its row stays
//                    identical.
//
// Both engines must produce bit-identical results (rounds, messages,
// per-arc sends) — the harness checks and prints it. `--quick` shrinks n
// for the CI smoke run; both modes emit BENCH_engine.json via the shared
// bench_common JSON emitter so the perf trajectory is recorded PR-over-PR.
//
// Experiment N2 (same binary, built-in grid only): telemetry overhead —
// off vs rounds vs full recording on the deep-path and expander regimes.
// CI guards "rounds" mode at <= 5% overhead on deep path, the contract
// that makes the counter series safe to leave on (docs/OBSERVABILITY.md).
// Each row also carries the mean minor page faults per run of each mode,
// so a tripped guard shows whether fresh pages, not the hook, cost it.
//
// Experiment N4 (built-in grid only): composite edge-disjoint execution —
// run_edge_disjoint in legacy kSequential mode (one Network per instance)
// vs kInterleaved (all instances in ONE engine run on the block-diagonal
// union graph). Composite and per-instance costs must agree exactly.
//
// Flags: --quick, --graph=<spec> (repeatable; replaces the built-in
// regimes), --sources=<k> (batch-bfs backlog width, default 64).

#include "bench_common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <memory>

#include "algo/bfs.hpp"
#include "algo/leader_election.hpp"
#include "apps/batch_sssp.hpp"
#include "congest/network.hpp"
#include "congest/runner.hpp"
#include "graph/partition.hpp"

namespace fc::bench {
namespace {

using AlgFactory =
    std::function<std::unique_ptr<congest::Algorithm>(const Graph&)>;

struct EngineRun {
  congest::RunResult result;
  double ms_per_run = 0.0;
  double rounds_per_sec = 0.0;
};

/// Run (fresh algorithm, fresh network) repeatedly until >= 0.2 s of
/// engine time accumulates (50 reps cap), so the short expander/star runs
/// are timed above clock noise while the long path runs cost one rep.
EngineRun run_engine(const Graph& g, const AlgFactory& make,
                     bool force_dense) {
  EngineRun out;
  congest::RunOptions opts;
  opts.force_dense = force_dense;
  double total_ms = 0.0;
  std::uint64_t reps = 0;
  while (reps < 50 && (reps == 0 || total_ms < 200.0)) {
    const auto alg = make(g);
    congest::Network net(g);
    const auto t0 = std::chrono::steady_clock::now();
    auto res = net.run(*alg, opts);
    const auto t1 = std::chrono::steady_clock::now();
    total_ms += std::chrono::duration<double, std::milli>(t1 - t0).count();
    out.result = std::move(res);
    ++reps;
  }
  out.ms_per_run = total_ms / static_cast<double>(reps);
  out.rounds_per_sec = out.ms_per_run > 0.0
                           ? static_cast<double>(out.result.rounds) * 1000.0 /
                                 out.ms_per_run
                           : 0.0;
  return out;
}

/// Minor page faults this process has taken so far.
std::uint64_t minor_faults() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<std::uint64_t>(ru.ru_minflt);
}

struct Workload {
  std::string regime;
  std::string spec;
  std::string algo;
  AlgFactory make;
};

AlgFactory make_bfs() {
  return [](const Graph& g) -> std::unique_ptr<congest::Algorithm> {
    return std::make_unique<algo::DistributedBfs>(g, 0);
  };
}

AlgFactory make_leader() {
  return [](const Graph& g) -> std::unique_ptr<congest::Algorithm> {
    return std::make_unique<algo::LeaderElection>(g);
  };
}

AlgFactory make_batch_bfs(std::uint64_t sources) {
  return [sources](const Graph& g) -> std::unique_ptr<congest::Algorithm> {
    return std::make_unique<algo::BatchBfs>(
        g, apps::default_sources(g, std::min<std::uint64_t>(
                                        sources, g.node_count())));
  };
}

/// The built-in regime grid. Quick mode shrinks n so the CI smoke stays
/// in seconds; full mode is the README reference measurement.
std::vector<Workload> builtin_workloads(bool quick, std::uint64_t sources) {
  const std::string path_n = quick ? "20000" : "100000";
  const std::string side = quick ? "40" : "70";
  const std::string leaves = quick ? "8192" : "65536";
  return {
      {"deep path", "path:n=" + path_n, "bfs", make_bfs()},
      {"expander", "margulis:side=" + side, "bfs", make_bfs()},
      {"expander", "margulis:side=" + side, "leader-election", make_leader()},
      {"expander", "margulis:side=" + side,
       "batch-bfs k=" + std::to_string(sources), make_batch_bfs(sources)},
      {"star", "complete_bipartite:a=1,b=" + leaves, "bfs", make_bfs()},
      // Delivery-bound regime: 256 concurrent BFS waves keep every arc
      // saturated, so per-round messages dwarf n and the stamp pass is
      // where the time goes. Present in quick mode too — the CI smoke
      // asserts this row exists and stays `identical`.
      {"messages>>n", "margulis:side=" + side, "batch-bfs k=256",
       make_batch_bfs(256)},
  };
}

void run_comparison(const std::vector<Workload>& workloads,
                    const std::string& cache, JsonReport& report) {
  banner("N1 / engine throughput",
         "dense sweep vs event-driven activation: identical results, "
         "rounds/sec measured per regime (deep path = sparse frontier, "
         "expander = everything active, star = one hot round).");
  Table table({"regime", "graph", "algo", "n", "m", "rounds", "messages",
               "dense ms", "sparse ms", "dense rps", "sparse rps", "speedup",
               "identical"});

  for (const auto& w : workloads) {
    const auto spec = scenario::GraphSpec::parse(w.spec);
    const Graph g = cache.empty()
                        ? scenario::Registry::instance().build(spec)
                        : scenario::load_or_generate(spec, cache);
    const auto dense = run_engine(g, w.make, /*force_dense=*/true);
    const auto sparse = run_engine(g, w.make, /*force_dense=*/false);
    const bool identical =
        dense.result.rounds == sparse.result.rounds &&
        dense.result.messages == sparse.result.messages &&
        dense.result.finished == sparse.result.finished &&
        dense.result.arc_sends == sparse.result.arc_sends;
    const double speedup = sparse.ms_per_run > 0.0
                               ? dense.ms_per_run / sparse.ms_per_run
                               : 0.0;
    table.add_row({w.regime, spec.to_string(), w.algo,
                   Table::num(std::size_t{g.node_count()}),
                   Table::num(std::size_t{g.edge_count()}),
                   Table::num(std::size_t{sparse.result.rounds}),
                   Table::num(std::size_t{sparse.result.messages}),
                   Table::num(dense.ms_per_run, 2),
                   Table::num(sparse.ms_per_run, 2),
                   Table::num(dense.rounds_per_sec, 0),
                   Table::num(sparse.rounds_per_sec, 0),
                   Table::num(speedup, 1), identical ? "yes" : "NO"});
    report.row()
        .add("regime", w.regime)
        .add("graph", spec.to_string())
        .add("algo", w.algo)
        .add("n", std::uint64_t{g.node_count()})
        .add("m", std::uint64_t{g.edge_count()})
        .add("rounds", sparse.result.rounds)
        .add("messages", sparse.result.messages)
        .add("dense_ms", dense.ms_per_run)
        .add("sparse_ms", sparse.ms_per_run)
        .add("dense_rounds_per_sec", dense.rounds_per_sec)
        .add("sparse_rounds_per_sec", sparse.rounds_per_sec)
        .add("speedup", speedup)
        .add("identical", identical);
    if (!identical)
      throw std::runtime_error("bench_engine: dense and sparse runs "
                               "disagree on " +
                               spec.to_string() + " / " + w.algo);
  }
  table.print(std::cout);
}

/// Experiment N2: what does leaving telemetry on cost? Measured on the
/// deep-path regime — the engine's worst case for fixed per-round overhead
/// (tens of thousands of rounds that each do almost no work) — plus the
/// expander regime, where real per-round work dilutes the overhead. The
/// "rounds" mode is the one meant to stay on in production; CI guards its
/// deep-path overhead at <= 5%. Beside each mode's time the row records its
/// mean minor page faults per run: a fresh recorder's sample buffer can
/// land on fresh pages, and those faults, not the hook, then dominate the
/// overhead ratio.
void run_telemetry_overhead(bool quick, const std::string& cache,
                            JsonReport& report) {
  banner("N2 / telemetry overhead",
         "engine throughput with telemetry off vs rounds (counter series, "
         "no clocks) vs full (phase timers + histograms + annotations); "
         "sparse engine, worst case = deep path.");
  Table table({"regime", "graph", "off ms", "rounds ms", "full ms",
               "rounds ovh %", "full ovh %", "faults off/rounds/full"});
  const std::string path_n = quick ? "20000" : "100000";
  const std::string side = quick ? "40" : "70";
  const std::vector<std::pair<std::string, std::string>> regimes = {
      {"deep path", "path:n=" + path_n},
      {"expander", "margulis:side=" + side},
  };
  for (const auto& [regime, spec_text] : regimes) {
    const auto spec = scenario::GraphSpec::parse(spec_text);
    const Graph g = cache.empty()
                        ? scenario::Registry::instance().build(spec)
                        : scenario::load_or_generate(spec, cache);
    const auto make = make_bfs();
    // Minimum time and total minor faults of one mode's timed runs.
    struct ModeStats {
      double ms = 1e300;
      std::uint64_t faults = 0;
    };
    // One timed run of bfs on g under `tmode` (fresh everything, like
    // run_engine's reps), folded into `stats`; returns its time.
    const auto one = [&](congest::TelemetryMode tmode, ModeStats& stats) {
      const auto alg = make(g);
      congest::Network net(g);
      congest::Telemetry telemetry(tmode);
      congest::RunOptions opts;
      opts.telemetry = telemetry.enabled() ? &telemetry : nullptr;
      const std::uint64_t f0 = minor_faults();
      const auto t0 = std::chrono::steady_clock::now();
      net.run(*alg, opts);
      const auto t1 = std::chrono::steady_clock::now();
      stats.faults += minor_faults() - f0;
      const double ms =
          std::chrono::duration<double, std::milli>(t1 - t0).count();
      stats.ms = std::min(stats.ms, ms);
      return ms;
    };
    // Interleave the three modes rep by rep and keep each mode's MINIMUM:
    // the modes see the same thermal/frequency drift, and the minimum is
    // the run least disturbed by scheduler noise — the right statistic for
    // an overhead ratio on a shared machine. The warm-up run sizes the
    // rep count; its faults are not counted.
    ModeStats off, rounds, full;
    const double est = one(congest::TelemetryMode::kOff, off);
    off.faults = 0;
    const auto reps = static_cast<std::uint64_t>(
        std::clamp(150.0 / std::max(est, 1e-3), 5.0, 60.0));
    for (std::uint64_t i = 0; i < reps; ++i) {
      one(congest::TelemetryMode::kOff, off);
      one(congest::TelemetryMode::kRounds, rounds);
      one(congest::TelemetryMode::kFull, full);
    }
    const auto pct = [&](double ms) {
      return off.ms > 0.0 ? (ms / off.ms - 1.0) * 100.0 : 0.0;
    };
    const auto per_run = [&](const ModeStats& m) {
      return static_cast<double>(m.faults) / static_cast<double>(reps);
    };
    table.add_row({regime, spec.to_string(), Table::num(off.ms, 2),
                   Table::num(rounds.ms, 2), Table::num(full.ms, 2),
                   Table::num(pct(rounds.ms), 1), Table::num(pct(full.ms), 1),
                   Table::num(per_run(off), 1) + "/" +
                       Table::num(per_run(rounds), 1) + "/" +
                       Table::num(per_run(full), 1)});
    report.row()
        .add("regime", "telemetry-overhead")
        .add("graph", spec.to_string())
        .add("algo", "bfs")
        .add("off_ms", off.ms)
        .add("rounds_ms", rounds.ms)
        .add("full_ms", full.ms)
        .add("rounds_overhead_pct", pct(rounds.ms))
        .add("full_overhead_pct", pct(full.ms))
        .add("off_faults", per_run(off))
        .add("rounds_faults", per_run(rounds))
        .add("full_faults", per_run(full));
  }
  table.print(std::cout);
}

/// Experiment N4: composite edge-disjoint execution. A 4-part
/// communication-free edge partition of the expander, one BFS per part —
/// legacy kSequential (one Network per instance, k round loops) vs the
/// default kInterleaved (ONE engine run on the block-diagonal union
/// graph). The two modes must agree on every composite and per-instance
/// cost; the speedup is what interleaving saves in per-run fixed costs.
void run_composite(bool quick, const std::string& cache, JsonReport& report) {
  banner("N4 / interleaved edge-disjoint runs",
         "run_edge_disjoint: sequential (one engine run per instance) vs "
         "interleaved (all instances in one engine run on the union "
         "graph); composite + per-instance costs must be identical.");
  const std::string side = quick ? "40" : "70";
  const auto spec = scenario::GraphSpec::parse("margulis:side=" + side);
  const Graph g = cache.empty() ? scenario::Registry::instance().build(spec)
                                : scenario::load_or_generate(spec, cache);
  constexpr std::uint32_t kParts = 4;
  const auto partition = random_edge_partition(g, kParts, /*seed=*/0x5eed);

  // One timed composite run in `mode` (fresh algorithms every rep, like
  // run_engine), repeated until >= 0.2 s accumulates.
  const auto run_mode = [&](congest::CompositeMode mode) {
    std::pair<congest::CompositeResult, double> out;
    double total_ms = 0.0;
    std::uint64_t reps = 0;
    while (reps < 50 && (reps == 0 || total_ms < 200.0)) {
      std::vector<std::unique_ptr<algo::DistributedBfs>> algs;
      std::vector<congest::EdgeDisjointInstance> work;
      for (const auto& part : partition.parts) {
        algs.push_back(std::make_unique<algo::DistributedBfs>(part.graph, 0));
        work.push_back({&part, algs.back().get()});
      }
      const auto t0 = std::chrono::steady_clock::now();
      auto res = congest::run_edge_disjoint(g, work, {}, mode);
      const auto t1 = std::chrono::steady_clock::now();
      total_ms += std::chrono::duration<double, std::milli>(t1 - t0).count();
      out.first = std::move(res);
      ++reps;
    }
    out.second = total_ms / static_cast<double>(reps);
    return out;
  };
  const auto [seq, seq_ms] = run_mode(congest::CompositeMode::kSequential);
  const auto [inter, inter_ms] = run_mode(congest::CompositeMode::kInterleaved);

  bool identical = seq.rounds == inter.rounds &&
                   seq.messages == inter.messages &&
                   seq.finished == inter.finished &&
                   seq.parent_edge_congestion == inter.parent_edge_congestion &&
                   seq.per_instance.size() == inter.per_instance.size();
  if (identical) {
    for (std::size_t i = 0; i < seq.per_instance.size(); ++i) {
      const auto& a = seq.per_instance[i];
      const auto& b = inter.per_instance[i];
      identical = identical && a.rounds == b.rounds &&
                  a.messages == b.messages && a.finished == b.finished &&
                  a.arc_sends == b.arc_sends;
    }
  }
  const double speedup = inter_ms > 0.0 ? seq_ms / inter_ms : 0.0;
  Table table({"graph", "parts", "rounds", "messages", "max congestion",
               "sequential ms", "interleaved ms", "speedup", "identical"});
  table.add_row({spec.to_string(), Table::num(std::size_t{kParts}),
                 Table::num(std::size_t{inter.rounds}),
                 Table::num(std::size_t{inter.messages}),
                 Table::num(std::size_t{inter.max_parent_edge_congestion()}),
                 Table::num(seq_ms, 2), Table::num(inter_ms, 2),
                 Table::num(speedup, 2), identical ? "yes" : "NO"});
  table.print(std::cout);
  report.row()
      .add("regime", "edge-disjoint composite")
      .add("graph", spec.to_string())
      .add("algo", "bfs x" + std::to_string(kParts))
      .add("n", std::uint64_t{g.node_count()})
      .add("m", std::uint64_t{g.edge_count()})
      .add("rounds", inter.rounds)
      .add("messages", inter.messages)
      .add("max_parent_edge_congestion",
           std::uint64_t{inter.max_parent_edge_congestion()})
      .add("sequential_ms", seq_ms)
      .add("interleaved_ms", inter_ms)
      .add("composite_speedup", speedup)
      .add("identical", identical);
  if (!identical)
    throw std::runtime_error(
        "bench_engine: sequential and interleaved composite runs disagree "
        "on " +
        spec.to_string());
}

}  // namespace
}  // namespace fc::bench

int main(int argc, char** argv) {
  using namespace fc;
  const Options opts(argc, argv);
  const bool quick = opts.get_bool("quick");
  const auto sources =
      static_cast<std::uint64_t>(opts.get_int("sources", 64));
  const std::string cache = opts.get("cache", "");
  try {
    std::vector<bench::Workload> work;
    const auto custom = opts.get_all("graph");
    if (!custom.empty()) {
      // Caller-chosen scenarios: compare both engines on bfs +
      // batch-bfs (the sparse- and dense-activation extremes).
      for (const auto& text : custom) {
        work.push_back({"custom", text, "bfs", bench::make_bfs()});
        work.push_back({"custom", text,
                        "batch-bfs k=" + std::to_string(sources),
                        bench::make_batch_bfs(sources)});
      }
    } else {
      work = bench::builtin_workloads(quick, sources);
    }
    bench::JsonReport report("engine");
    report.meta("mode", quick ? "quick" : "full");
    bench::add_run_metadata(report);
    bench::run_comparison(work, cache, report);
    // The overhead and composite regimes use their own built-in
    // graphs; custom --graph invocations stay a pure two-engine comparison.
    if (custom.empty()) {
      bench::run_telemetry_overhead(quick, cache, report);
      bench::run_composite(quick, cache, report);
    }
    std::cout << "wrote " << report.write() << "\n";
  } catch (const std::exception& err) {
    std::cerr << "bench_engine: " << err.what() << "\n";
    return 2;
  }
  return 0;
}
