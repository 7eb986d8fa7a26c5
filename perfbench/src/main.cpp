// fcbench: the repo benchmark. One workload per invocation, inputs from
// --seed, a measured phase of --seconds, every answer checked, and one JSON
// result line last on stdout. See perfbench/README.md.
//
//   fcbench --workload=serve-warm --seed=1 --seconds=30 --trace=0
//           --daemon=<build>/scenario_serve --workdir=<dir>
//
// --trace=0 measures the end-to-end metrics (tracing off); --trace=1 runs
// the traced replay instead and reports the per-layer ledger. Exit status:
// 0 when every answer was correct, 1 on a wrong or failed answer, 2 on a
// usage or set-up error (no result line then).

#include <sys/resource.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iomanip>
#include <iostream>
#include <limits>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "answers.hpp"
#include "congest/network.hpp"
#include "core/decomposition.hpp"
#include "core/fast_broadcast.hpp"
#include "daemon.hpp"
#include "dynamic/scenario.hpp"
#include "graph/properties.hpp"
#include "ledger.hpp"
#include "mirror.hpp"
#include "scenario/graph_io.hpp"
#include "scenario/spec.hpp"
#include "serve/service.hpp"
#include "util/json.hpp"
#include "util/options.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

namespace fs = std::filesystem;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string daemon;
  std::string workdir;
  std::string git_sha = "unknown";
};

/// One reported number. `note` states its base: sample count, percentile.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string note;
};

struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> result;  // the JSON result line's metrics
  std::vector<Metric> ledger;  // printed only
  std::vector<std::string> errors;
};

constexpr int kServeSetups = 7;
constexpr int kBroadcastSetups = 5;
constexpr std::size_t kStreamLines = 150000;
constexpr std::size_t kWarmRoots = 256;
constexpr std::size_t kChurnRoots = 32;
constexpr std::size_t kMinExecutions = 10;
constexpr std::size_t kRoundsPrefix = 1000;
constexpr int kProbeReps = 15;

std::string fmt(double v) {
  std::ostringstream out;
  out << std::setprecision(std::numeric_limits<double>::max_digits10) << v;
  return out.str();
}

std::string count_note(std::size_t n, const char* what) {
  return "n=" + std::to_string(n) + " " + what;
}

std::string pct_note(const Percentile& p, const char* what) {
  std::ostringstream out;
  out << "p" << std::setprecision(4) << p.pct << " nearest rank, n="
      << p.samples << " " << what << ", " << p.beyond << " beyond";
  if (!p.valid) out << " (fewer than 10 beyond: not a valid tail)";
  return out.str();
}

std::string ratio_note(std::uint64_t num, std::uint64_t den,
                       const char* base) {
  return std::to_string(num) + " / " + std::to_string(den) + " " + base;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

Clock::duration seconds(double s) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(s));
}

constexpr const char* kStatsLine = "{\"cmd\": \"stats\"}";

double self_peak_rss_mb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// Write the recorder's spans to the work directory; returns the path.
std::string write_spans(const Args& a, const SpanRecorder& rec) {
  const std::string path =
      (fs::path(a.workdir) /
       ("spans-" + a.workload + "-" + std::to_string(a.seed) + ".ndjson"))
          .string();
  std::ofstream out(path);
  rec.write_ndjson(out);
  return path;
}

/// Median wall time (ms) of `reps` calls to fn.
double median_ms(int reps, const std::function<void()>& fn) {
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) {
    const auto a = Clock::now();
    fn();
    t.push_back(ms_between(a, Clock::now()));
  }
  return median(t);
}

// ------------------------------------------------------------ serve

struct ServeWorkload {
  std::vector<Target> targets;
  std::optional<std::size_t> dynamic_index;
  std::vector<RequestLine> lines;
  std::size_t warmup = 0;  // lines answered before measuring
  std::size_t pool_capacity = 4;
  std::string corpus;  // corpus directory ("" = none)
  std::vector<std::string> daemon_args;
  fc::Graph probe_graph;  // the graph the standalone layer calls run on
};

ServeWorkload make_serve(const Args& a, bool churn) {
  ServeWorkload w;
  if (!churn) {
    fc::WeightedGraph g =
        fc::scenario::Registry::instance().build_weighted(kWarmSpec);
    w.targets.push_back(make_target(kWarmSpec, largest_component(g.graph()),
                                    a.seed, kWarmRoots));
    w.lines = serve_warm_stream(a.seed, w.targets[0], kStreamLines);
    w.warmup = 50;
    w.probe_graph = g.graph();
    return w;
  }
  const std::vector<std::string> specs = churn_specs();
  for (std::size_t t = 0; t < specs.size(); ++t) {
    const fc::scenario::GraphSpec spec =
        fc::scenario::GraphSpec::parse(specs[t]);
    const fc::Graph g =
        t == kChurnDynamicIndex
            ? fc::dynamic::DynamicScenario(spec).graph()
            : fc::scenario::Registry::instance().build(spec);
    w.targets.push_back(make_target(specs[t], largest_component(g),
                                    a.seed + 977 * t, kChurnRoots));
    if (t == 0) w.probe_graph = g;
  }
  w.dynamic_index = kChurnDynamicIndex;
  w.lines = serve_churn_stream(a.seed, w.targets, kChurnDynamicIndex,
                               kStreamLines);
  w.warmup = 28;
  w.pool_capacity = kChurnPoolCapacity;
  w.corpus = (fs::path(a.workdir) / "corpus").string();
  w.daemon_args = {"--cache=" + w.corpus,
                   "--pool=" + std::to_string(kChurnPoolCapacity)};
  return w;
}

/// One set-up: everything before the clock starts. (Re)populate the
/// corpus, start the daemon, and answer the stream's first `lines` lines
/// (the first loads the resident graph; the rest warm up). Returns the
/// seconds it took; `answered` receives the responses.
double serve_setup(const Args& a, const ServeWorkload& w, std::size_t lines,
                   std::unique_ptr<Daemon>& daemon,
                   std::vector<std::string>& answered) {
  daemon.reset();
  answered.clear();
  const auto t0 = Clock::now();
  if (!w.corpus.empty()) {
    fs::remove_all(w.corpus);
    fs::create_directories(w.corpus);
    for (std::size_t t = 0; t < w.targets.size(); ++t)
      if (!w.dynamic_index || *w.dynamic_index != t)
        fc::scenario::load_or_generate_weighted(
            fc::scenario::GraphSpec::parse(w.targets[t].spec), w.corpus);
  }
  daemon = std::make_unique<Daemon>(a.daemon, w.daemon_args);
  for (std::size_t i = 0; i < lines; ++i)
    answered.push_back(daemon->round_trip(w.lines[i].text));
  return ms_between(t0, Clock::now()) / 1000.0;
}

struct PoolDelta {
  std::uint64_t hits = 0, misses = 0, evictions = 0, corpus_loads = 0,
                installs = 0, stale_rebuilds = 0;
};

PoolDelta pool_delta(const std::string& before, const std::string& after) {
  const fc::JsonValue b = fc::parse_json(before), e = fc::parse_json(after);
  const fc::JsonValue* pb = b.find("stats")->find("pool");
  const fc::JsonValue* pe = e.find("stats")->find("pool");
  auto d = [&](const char* k) {
    return static_cast<std::uint64_t>(pe->num(k) - pb->num(k));
  };
  PoolDelta out;
  out.hits = d("hits");
  out.misses = d("misses");
  out.evictions = d("evictions");
  out.corpus_loads = d("corpus_loads");
  out.installs = d("installs");
  out.stale_rebuilds = d("stale_rebuilds");
  return out;
}

struct ServePhase {
  std::vector<std::string> responses;  // index-aligned with the lines sent
  std::vector<double> rtt_ms;
  double elapsed_s = 0;
  std::string stats_before, stats_after;
  double peak_rss_mb = 0;
};

/// Closed loop over lines [begin, ...) for `budget_s` seconds, one line in
/// flight, with the daemon's stats read before and after, untimed.
ServePhase closed_loop(Daemon& daemon, const std::vector<RequestLine>& lines,
                       std::size_t begin, double budget_s) {
  ServePhase p;
  p.stats_before = daemon.round_trip(kStatsLine);
  const auto start = Clock::now();
  const auto deadline = start + seconds(budget_s);
  for (std::size_t i = begin; i < lines.size() && Clock::now() < deadline;
       ++i) {
    const auto t0 = Clock::now();
    p.responses.push_back(daemon.round_trip(lines[i].text));
    p.rtt_ms.push_back(ms_between(t0, Clock::now()));
  }
  p.elapsed_s = ms_between(start, Clock::now()) / 1000.0;
  p.stats_after = daemon.round_trip(kStatsLine);
  p.peak_rss_mb = daemon.peak_rss_mb();
  return p;
}

/// Check every answered line in stream order. Failures from
/// `measured_from` on count against the measured attempts; a failure
/// anywhere (set-up and warm-up lines too) makes the run incorrect.
void check_answers(const ServeWorkload& w,
                   const std::vector<std::string>& answered,
                   std::size_t measured_from, Report& r) {
  ServeOracle oracle(w.targets, w.dynamic_index);
  const CheckResult c = oracle.check(w.lines, answered);
  for (const std::size_t i : c.failed_lines)
    if (i >= measured_from) ++r.failed;
  r.correct = r.correct && c.failed_lines.empty() &&
              c.checked == answered.size();
  for (const std::string& e : c.first_errors) r.errors.push_back(e);
  r.ledger.push_back({"answers_checked", static_cast<double>(c.checked),
                      "count",
                      std::to_string(oracle.reference_runs()) +
                          " distinct reference runs"});
}

struct ResponseFlags {
  std::uint64_t ok = 0, cache_hit = 0, engine_reused = 0, rounds = 0;
};

ResponseFlags response_flags(const std::vector<RequestLine>& lines,
                             std::size_t begin,
                             const std::vector<std::string>& responses) {
  ResponseFlags f;
  for (std::size_t i = 0; i < responses.size(); ++i) {
    const fc::JsonValue v = fc::parse_json(responses[i]);
    f.rounds += static_cast<std::uint64_t>(v.num("rounds"));
    if (lines[begin + i].kind != LineKind::kQuery || !v.flag("ok")) continue;
    ++f.ok;
    f.cache_hit += v.flag("cache_hit");
    f.engine_reused += v.flag("engine_reused");
  }
  return f;
}

void add_pool_ledger(const PoolDelta& d, const ResponseFlags& f,
                     Report& r) {
  const std::uint64_t acquires = d.hits + d.misses;
  r.ledger.push_back({"engine_pool.hit_ratio",
                      ratio(static_cast<double>(d.hits),
                            static_cast<double>(acquires)),
                      "ratio", ratio_note(d.hits, acquires, "acquires")});
  r.ledger.push_back({"engine_pool.engine_reuse_ratio",
                      ratio(static_cast<double>(f.engine_reused),
                            static_cast<double>(f.ok)),
                      "ratio", ratio_note(f.engine_reused, f.ok, "ok queries")});
  r.ledger.push_back({"engine_pool.cache_hit_ratio",
                      ratio(static_cast<double>(f.cache_hit),
                            static_cast<double>(f.ok)),
                      "ratio", ratio_note(f.cache_hit, f.ok, "ok queries")});
  r.ledger.push_back({"engine_pool.corpus_loads",
                      static_cast<double>(d.corpus_loads), "count",
                      count_note(acquires, "acquires")});
  r.ledger.push_back({"engine_pool.evictions",
                      static_cast<double>(d.evictions), "count",
                      count_note(acquires, "acquires")});
  r.ledger.push_back({"engine_pool.stale_rebuilds",
                      static_cast<double>(d.stale_rebuilds), "count",
                      count_note(d.installs, "installs")});
}

Report run_serve_e2e(const Args& a, bool churn) {
  const ServeWorkload w = make_serve(a, churn);
  std::unique_ptr<Daemon> daemon;
  std::vector<std::string> answered;
  std::vector<double> setups;
  for (int i = 0; i < kServeSetups; ++i)
    setups.push_back(serve_setup(a, w, w.warmup, daemon, answered));
  const ServePhase p = closed_loop(*daemon, w.lines, w.warmup, a.seconds);
  daemon->stop();
  answered.insert(answered.end(), p.responses.begin(), p.responses.end());

  Report r;
  r.attempted = p.responses.size();
  check_answers(w, answered, w.warmup, r);

  std::vector<double> query_ms, update_ms;
  for (std::size_t i = 0; i < p.rtt_ms.size(); ++i)
    (w.lines[w.warmup + i].kind == LineKind::kQuery ? query_ms : update_ms)
        .push_back(p.rtt_ms[i]);
  const ResponseFlags f = response_flags(w.lines, w.warmup, p.responses);
  // Rounds over a fixed prefix of the measured lines: the dynamic graph
  // drifts with every update, so an average over however many lines the
  // run reached would move with the program's speed.
  const std::size_t prefix = std::min(p.responses.size(), kRoundsPrefix);
  const ResponseFlags fp = response_flags(
      w.lines, w.warmup,
      {p.responses.begin(),
       p.responses.begin() + static_cast<std::ptrdiff_t>(prefix)});
  const Percentile p50 = percentile(query_ms, 50);
  const Percentile tail = tail_percentile(query_ms);
  const double ops = static_cast<double>(p.responses.size());

  r.result = {
      {"setup_s", median(setups), "s",
       "median of " + std::to_string(kServeSetups) +
           " set-ups: corpus, daemon start, " + std::to_string(w.warmup) +
           " warm-up lines"},
      {"latency_p50_ms", p50.value, "ms", pct_note(p50, "queries")},
      {"sim_rounds_per_op",
       static_cast<double>(fp.rounds) / static_cast<double>(prefix),
       "rounds", count_note(prefix, "first measured lines")},
      {"peak_rss_mb", p.peak_rss_mb, "MiB", "scenario_serve VmHWM"},
  };
  r.ledger.push_back({"latency_p99_ms", tail.value, "ms",
                      pct_note(tail, "queries")});
  r.ledger.push_back({"throughput_ops_s", ops / p.elapsed_s, "1/s",
                      count_note(p.responses.size(),
                                 "lines answered, updates included")});
  if (churn) {
    const Percentile u = percentile(update_ms, 50);
    r.ledger.push_back({"update_p50_ms", u.value, "ms",
                        pct_note(u, "updates")});
  }
  r.ledger.push_back({"ops", ops, "count", "measured lines"});
  r.ledger.push_back({"failed_ratio",
                      ratio(static_cast<double>(r.failed), ops), "ratio",
                      ratio_note(r.failed, p.responses.size(), "attempted")});
  add_pool_ledger(pool_delta(p.stats_before, p.stats_after), f, r);
  return r;
}

struct GraphProbes {
  double restrict_ms = 0;
  double restricted_network_ms = 0;  // Network on the last restriction
};

/// Standalone calls into the corpus, graph and engine layers on `g`; adds
/// the per-layer metrics every workload reports.
GraphProbes standalone_graph_probes(const fc::Graph& g,
                                    const std::vector<fc::NodeId>& roots,
                                    const std::string& workdir, Report& r) {
  const std::string file = (fs::path(workdir) / "probe.fcg").string();
  fc::scenario::save_binary(g, file);
  const auto edges = g.edge_list();
  const double load = median_ms(kProbeReps, [&] {
    const fc::Graph h = fc::scenario::load_binary(file);
    if (h.edge_count() != g.edge_count())
      throw std::runtime_error("load_binary probe: edge count differs");
  });
  fs::remove(file);
  const double csr = median_ms(kProbeReps, [&] {
    const fc::Graph h = fc::Graph::from_edges(g.node_count(), edges);
    if (h.edge_count() != g.edge_count())
      throw std::runtime_error("from_edges probe: edge count differs");
  });
  const double net = median_ms(kProbeReps, [&] { fc::congest::Network n(g); });
  std::size_t next = 0;
  fc::ComponentRestriction last;
  GraphProbes out;
  out.restrict_ms = median_ms(kProbeReps, [&] {
    last = fc::restrict_to_component(g, roots[next++ % roots.size()]);
  });
  const fc::Graph& restricted = last.new_id.empty() ? g : last.graph;
  out.restricted_network_ms =
      median_ms(kProbeReps, [&] { fc::congest::Network n(restricted); });

  const std::string base = "median of " + std::to_string(kProbeReps) +
                           " calls, n=" + std::to_string(g.node_count()) +
                           " m=" + std::to_string(g.edge_count());
  r.result.push_back({"scenario.load_binary_ms", load, "ms", base});
  r.result.push_back({"graph.csr_build_ms", csr, "ms", base});
  r.result.push_back({"congest.network_build_ms", net, "ms", base});
  r.result.push_back({"graph.restrict_ms", out.restrict_ms, "ms", base});
  r.ledger.push_back({"scenario.corpus_read_ms", load - csr, "ms",
                      "load_binary minus csr_build"});
  r.ledger.push_back({"congest.network_build_restricted_ms",
                      out.restricted_network_ms, "ms",
                      "Network on a root's component, median of " +
                          std::to_string(kProbeReps) + " calls"});
  return out;
}

Report run_serve_trace(const Args& a, bool churn) {
  const ServeWorkload w = make_serve(a, churn);
  std::unique_ptr<Daemon> daemon;
  std::vector<std::string> daemon_lines;
  serve_setup(a, w, 1, daemon, daemon_lines);

  Report r;
  auto mismatch = [&](const char* who, std::size_t i) {
    ++r.failed;
    r.correct = false;
    if (r.errors.size() < 8)
      r.errors.push_back(std::string(who) + " answer to line " +
                         std::to_string(w.lines[i].id) +
                         " differs from the daemon's");
  };

  // Phase A: each line goes to the daemon and then, back to back, to an
  // in-process Service, so both timings see the same machine state and
  // their difference is the transport's share.
  fc::serve::ServiceOptions so;
  so.cache_dir = w.corpus;
  so.pool_capacity = w.pool_capacity;
  fc::serve::Service service(so);
  if (service.submit(w.lines[0].text) != daemon_lines)
    mismatch("Service", 0);
  const std::string stats_before = daemon->round_trip(kStatsLine);
  std::vector<double> submit_ms, overhead_ms;
  const auto deadline = Clock::now() + seconds(a.seconds * 0.5);
  for (std::size_t i = 1; i < w.lines.size() && Clock::now() < deadline;
       ++i) {
    std::vector<std::string> out;
    double rtt = 0, sub = 0;
    for (int k = 0; k < 2; ++k) {
      const auto t0 = Clock::now();
      if ((i + k) % 2 == 0) {
        daemon_lines.push_back(daemon->round_trip(w.lines[i].text));
        rtt = ms_between(t0, Clock::now());
      } else {
        out = service.submit(w.lines[i].text);
        sub = ms_between(t0, Clock::now());
      }
    }
    submit_ms.push_back(sub);
    overhead_ms.push_back(rtt - sub);
    if (out.size() != 1 || out[0] != daemon_lines.back())
      mismatch("Service", i);
  }
  const std::string stats_after = daemon->round_trip(kStatsLine);
  daemon->stop();
  const std::size_t n = daemon_lines.size();  // lines [0, n) answered
  r.attempted = n - 1;
  check_answers(w, daemon_lines, 1, r);

  // Phase B: the mirror replay with spans off and on in lockstep, taking
  // turns going first, so the difference is the recorder's cost, not drift.
  SpanRecorder off_rec(false), rec(true);
  Mirror untraced(w.pool_capacity, w.corpus, off_rec);
  Mirror traced(w.pool_capacity, w.corpus, rec);
  double off_ms = 0, on_ms = 0;
  for (std::size_t i = 0; i < n; ++i)
    for (int k = 0; k < 2; ++k) {
      const bool on = (i + k) % 2 == 1;
      const auto t0 = Clock::now();
      const std::string out =
          (on ? traced : untraced).handle(w.lines[i].text, w.lines[i].id);
      if (i > 0) (on ? on_ms : off_ms) += ms_between(t0, Clock::now());
      if (out != daemon_lines[i]) mismatch("mirror", i);
    }
  const std::uint64_t messages = traced.messages();
  const std::vector<std::uint64_t>& edges_changed = traced.edges_changed();
  const std::string spans_file = write_spans(a, rec);

  const GraphProbes probes =
      standalone_graph_probes(w.probe_graph, w.targets[0].roots, a.workdir, r);
  auto span_ms = [&](const char* name) { return rec.durations_ms(name); };
  std::vector<double> run_s;
  for (const char* k :
       {"scenario.run_bfs", "scenario.run_sssp", "scenario.run_mst"})
    for (const double ms : span_ms(k)) run_s.push_back(ms / 1000.0);
  double run_total = 0;
  for (const double s : run_s) run_total += s;
  r.result.push_back({"congest.messages_per_s",
                      ratio(static_cast<double>(messages), run_total), "1/s",
                      count_note(run_s.size(), "ScenarioRunner::run calls")});

  auto add_median = [&](const char* metric, const char* span, double scale,
                        const char* unit) {
    const std::vector<double> d = span_ms(span);
    if (d.empty()) return;
    r.ledger.push_back({metric, median(d) * scale, unit,
                        count_note(d.size(), "spans")});
  };
  add_median("protocol.parse_us", "protocol.parse", 1000, "us");
  add_median("protocol.serialize_us", "protocol.serialize", 1000, "us");
  add_median("scenario.spec_parse_us", "scenario.spec_parse", 1000, "us");
  add_median("engine_pool.acquire_hit_us", "engine_pool.acquire_hit", 1000,
             "us");
  add_median("engine_pool.acquire_miss_ms", "engine_pool.acquire_miss", 1,
             "ms");
  add_median("engine_pool.install_ms", "engine_pool.install", 1, "ms");
  add_median("dynamic.advance_ms", "dynamic.advance", 1, "ms");
  add_median("scenario.run_bfs_ms", "scenario.run_bfs", 1, "ms");
  add_median("scenario.run_sssp_ms", "scenario.run_sssp", 1, "ms");
  add_median("scenario.run_mst_ms", "scenario.run_mst", 1, "ms");
  // ROADMAP question 2: how much of an sssp query is the root-component
  // restriction plus the fresh Network built for it.
  const std::vector<double> sssp = span_ms("scenario.run_sssp");
  if (!sssp.empty())
    r.ledger.push_back(
        {"scenario.sssp_rebuild_share",
         (probes.restrict_ms + probes.restricted_network_ms) / median(sssp),
         "ratio", "(restrict + restricted Network build) / median sssp run"});
  if (!edges_changed.empty()) {
    double sum = 0;
    for (const std::uint64_t e : edges_changed) sum += static_cast<double>(e);
    r.ledger.push_back({"dynamic.edges_changed",
                        sum / static_cast<double>(edges_changed.size()),
                        "edges", count_note(edges_changed.size(),
                                            "batches (mean per batch)")});
  }
  const Percentile s50 = percentile(submit_ms, 50);
  const Percentile s99 = tail_percentile(submit_ms);
  r.ledger.push_back({"service.submit_p50_ms", s50.value, "ms",
                      pct_note(s50, "Service::submit calls")});
  r.ledger.push_back({"service.submit_p99_ms", s99.value, "ms",
                      pct_note(s99, "Service::submit calls")});
  const Percentile o50 = percentile(overhead_ms, 50);
  r.ledger.push_back({"transport.overhead_ms", o50.value, "ms",
                      pct_note(o50, "lines: daemon round trip minus submit")});
  add_pool_ledger(
      pool_delta(stats_before, stats_after),
      response_flags(w.lines, 1, {daemon_lines.begin() + 1, daemon_lines.end()}),
      r);
  for (const auto& [name, ms] : rec.self_ms_by_name())
    r.ledger.push_back({"self." + name, ms, "ms",
                        "summed self time over the traced replay"});
  r.ledger.push_back({"trace.overhead_ratio", on_ms / off_ms - 1, "ratio",
                      "replay of " + std::to_string(n - 1) +
                          " lines, spans on vs off in lockstep"});
  r.ledger.push_back({"trace.spans", static_cast<double>(rec.spans().size()),
                      "count", spans_file});
  return r;
}

// ------------------------------------------------------------ broadcast

struct BroadcastWorkload {
  fc::Graph graph;
  std::vector<fc::algo::PlacedMessage> messages;
  fc::core::FastBroadcastOptions opts;
};

BroadcastWorkload broadcast_setup(const Args& a) {
  BroadcastWorkload w;
  w.graph = fc::scenario::Registry::instance().build(kBroadcastSpec);
  w.messages = broadcast_placements(
      a.seed, w.graph.node_count(),
      kBroadcastMessagesPerNode * w.graph.node_count());
  w.opts.seed = a.seed;
  return w;
}

/// A broadcast is correct when every node holds all k messages and it took
/// no fewer rounds than Theorem 3's floor.
bool broadcast_ok(const fc::core::FastBroadcastReport& rep,
                  std::uint64_t k) {
  return rep.complete &&
         static_cast<double>(rep.total_rounds) >=
             fc::core::theorem3_lower_bound(k, kBroadcastLambda);
}

Report run_broadcast(const Args& a) {
  Report r;
  BroadcastWorkload w;
  fc::core::FastBroadcastReport last;
  // Runs one execution and checks it; `measured` ones count as attempts.
  auto execute = [&](std::vector<double>& ms, bool measured) {
    const auto t0 = Clock::now();
    last = fc::core::run_fast_broadcast(w.graph, kBroadcastLambda, w.messages,
                                        w.opts);
    ms.push_back(ms_between(t0, Clock::now()));
    const bool ok = broadcast_ok(last, w.messages.size());
    if (measured) {
      ++r.attempted;
      r.failed += ok ? 0 : 1;
    }
    if (!ok) {
      r.correct = false;
      if (r.errors.size() < 5) r.errors.push_back("broadcast: " + last.str());
    }
  };
  // A set-up is everything before the clock starts: build the graph and
  // the placements, then one warm-up execution.
  std::vector<double> setups, warmup_ms;
  for (int i = 0; i < kBroadcastSetups; ++i) {
    const auto t0 = Clock::now();
    w = broadcast_setup(a);
    execute(warmup_ms, false);
    setups.push_back(ms_between(t0, Clock::now()) / 1000.0);
  }
  const std::uint64_t k = w.messages.size();

  if (!a.trace) {
    std::vector<double> ms;
    std::uint64_t rounds = 0;
    const auto start = Clock::now();
    const auto deadline = start + seconds(a.seconds);
    while (ms.size() < kMinExecutions || Clock::now() < deadline) {
      execute(ms, true);
      rounds += last.total_rounds;
    }
    const double elapsed = ms_between(start, Clock::now()) / 1000.0;
    const Percentile p50 = percentile(ms, 50);
    const Percentile tail = tail_percentile(ms);
    const double ops = static_cast<double>(ms.size());
    r.result = {
        {"setup_s", median(setups), "s",
         "median of " + std::to_string(kBroadcastSetups) +
             " set-ups: graph, placements, one warm-up execution"},
        {"latency_p50_ms", p50.value, "ms", pct_note(p50, "executions")},
        {"sim_rounds_per_op", static_cast<double>(rounds) / ops, "rounds",
         count_note(ms.size(), "executions")},
        {"peak_rss_mb", self_peak_rss_mb(), "MiB", "fcbench VmHWM"},
    };
    r.ledger.push_back({"latency_tail_ms", tail.value, "ms",
                        pct_note(tail, "executions")});
    r.ledger.push_back({"throughput_ops_s", ops / elapsed, "1/s",
                        count_note(ms.size(), "executions")});
    r.ledger.push_back({"ops", ops, "count", "measured executions"});
    r.ledger.push_back({"failed_ratio",
                        ratio(static_cast<double>(r.failed), ops), "ratio",
                        ratio_note(r.failed, ms.size(), "attempted")});
    return r;
  }

  // Traced: executions in pairs, one with its span recorded and one
  // without, taking turns going first; then the standalone layer calls.
  const int pairs = std::max(3, static_cast<int>(a.seconds / 6));
  double off_ms = 0, on_ms = 0;
  std::vector<double> all_ms;
  SpanRecorder off_rec(false), on_rec(true);
  for (int i = 0; i < 2 * pairs; ++i) {
    const bool on = (i + i / 2) % 2 == 1;
    auto span = (on ? on_rec : off_rec)
                    .scope("core.fast_broadcast", static_cast<std::uint64_t>(i));
    execute(all_ms, true);
    (on ? on_ms : off_ms) += all_ms.back();
  }
  const std::string spans_file = write_spans(a, on_rec);

  std::vector<fc::NodeId> roots;
  for (fc::NodeId v = 0; v < w.graph.node_count(); v += 97) roots.push_back(v);
  standalone_graph_probes(w.graph, roots, a.workdir, r);
  const double exec_ms = median(all_ms);
  r.result.push_back({"congest.messages_per_s",
                      static_cast<double>(last.messages) / (exec_ms / 1000.0),
                      "1/s",
                      "messages of one execution / its median wall time, n=" +
                          std::to_string(all_ms.size())});

  fc::core::DecompositionOptions dopts;
  dopts.C = w.opts.C;
  dopts.seed = w.opts.seed;
  const double decompose_ms = median_ms(3, [&] {
    const fc::core::Decomposition d =
        fc::core::decompose(w.graph, kBroadcastLambda, dopts);
    if (d.parts == 0) throw std::runtime_error("decompose: no parts");
  });
  fc::core::FastBroadcastReport textbook;
  const double textbook_ms = median_ms(1, [&] {
    textbook = fc::core::run_textbook_broadcast(w.graph, w.messages, w.opts);
  });
  if (!broadcast_ok(textbook, k)) {
    r.correct = false;
    r.errors.push_back("textbook broadcast: " + textbook.str());
  }

  const fc::NodeId n = w.graph.node_count();
  const std::uint32_t delta = fc::min_degree(w.graph);
  const double t1 =
      fc::core::theorem1_prediction(n, delta, kBroadcastLambda, k);
  const double floor = fc::core::theorem3_lower_bound(k, kBroadcastLambda);
  const double total = static_cast<double>(last.total_rounds);
  const std::string one = "one execution, k=" + std::to_string(k);
  const std::vector<Metric> core_ledger = {
      {"core.execution_ms", exec_ms, "ms",
       count_note(all_ms.size(), "executions (median)")},
      {"core.decompose_ms", decompose_ms, "ms", "median of 3 calls"},
      {"core.messages", static_cast<double>(last.messages), "count", one},
      {"core.max_edge_congestion",
       static_cast<double>(last.max_edge_congestion), "count", one},
      {"core.setup_rounds", static_cast<double>(last.setup_rounds), "rounds",
       one},
      {"core.part_bfs_rounds", static_cast<double>(last.part_bfs_rounds),
       "rounds", one},
      {"core.broadcast_rounds", static_cast<double>(last.broadcast_rounds),
       "rounds", one},
      {"core.total_rounds", total, "rounds", one},
      {"core.parts", static_cast<double>(last.parts), "count", one},
      {"core.retries", static_cast<double>(last.retries), "count", one},
      {"core.rounds_over_theorem1", total / t1, "ratio",
       "total rounds / (n ln n/δ + k ln n/λ) = " + fmt(t1)},
      {"core.rounds_over_floor", total / floor, "ratio",
       "total rounds / (k/λ) = " + fmt(floor)},
      {"algo.textbook_broadcast_ms", textbook_ms, "ms", "one call"},
      {"algo.textbook_rounds", static_cast<double>(textbook.total_rounds),
       "rounds", one},
      {"algo.rounds_speedup",
       ratio(static_cast<double>(textbook.total_rounds), total), "ratio",
       "textbook rounds / Theorem-1 rounds"},
      {"trace.overhead_ratio", on_ms / off_ms - 1, "ratio",
       std::to_string(pairs) + " executions each with spans on and off"},
      {"trace.spans", static_cast<double>(on_rec.spans().size()), "count",
       spans_file},
  };
  r.ledger.insert(r.ledger.end(), core_ledger.begin(), core_ledger.end());
  return r;
}

// ------------------------------------------------------------ output

void print(const Args& a, const Report& r) {
  std::cout << "# fcbench workload=" << a.workload << " seed=" << a.seed
            << " trace=" << (a.trace ? 1 : 0) << " seconds=" << a.seconds
            << " nproc=" << std::thread::hardware_concurrency()
            << " engine_threads=" << fc::ThreadPool::global().size()
            << " engine_pool="
            << (a.workload == "serve-churn"  ? kChurnPoolCapacity
                : a.workload == "serve-warm" ? std::size_t{4}
                                             : std::size_t{0})
            << " window=1 build=" << PERFBENCH_BUILD_TYPE
            << " git=" << a.git_sha << "\n";
  auto line = [](const Metric& m) {
    std::cout << "  " << std::left << std::setw(38) << m.name << std::right
              << std::setw(16) << fmt(m.value) << " " << std::left
              << std::setw(7) << m.unit << " " << m.note << "\n";
  };
  for (const Metric& m : r.result) line(m);
  for (const Metric& m : r.ledger) line(m);
  std::cout << "  attempted=" << r.attempted << " failed=" << r.failed
            << " correct=" << (r.correct ? "true" : "false") << "\n";
  for (const std::string& e : r.errors) std::cout << "  error: " << e << "\n";

  std::cout << "{\"correct\": " << (r.correct ? "true" : "false")
            << ", \"attempted\": " << r.attempted
            << ", \"failed\": " << r.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < r.result.size(); ++i)
    std::cout << (i ? ", " : "") << "\"" << r.result[i].name
              << "\": {\"value\": " << fmt(r.result[i].value)
              << ", \"unit\": \"" << r.result[i].unit << "\"}";
  std::cout << "}}" << std::endl;
}

int run(int argc, char** argv) {
  const fc::Options opts(argc, argv);
  Args a;
  a.workload = opts.get("workload", "");
  a.seed = static_cast<std::uint64_t>(opts.get_int("seed", 1));
  a.seconds = static_cast<double>(opts.get_int("seconds", 10));
  a.trace = opts.get_int("trace", 0) != 0;
  a.daemon = opts.get("daemon", "");
  a.workdir = opts.get("workdir", "");
  a.git_sha = opts.get("git-sha", "unknown");
  if (a.workdir.empty() || a.seconds <= 0 ||
      (a.workload != "broadcast-k" && a.daemon.empty())) {
    std::cerr << "usage: fcbench --workload=serve-warm|serve-churn|"
                 "broadcast-k --seed=N --seconds=S --trace=0|1 "
                 "--daemon=<scenario_serve> --workdir=<dir>\n";
    return 2;
  }
  fs::create_directories(a.workdir);
  Report r;
  if (a.workload == "serve-warm" || a.workload == "serve-churn") {
    const bool churn = a.workload == "serve-churn";
    r = a.trace ? run_serve_trace(a, churn) : run_serve_e2e(a, churn);
  } else if (a.workload == "broadcast-k") {
    r = run_broadcast(a);
  } else {
    std::cerr << "fcbench: unknown workload '" << a.workload
              << "' (serve-warm, serve-churn, broadcast-k)\n";
    return 2;
  }
  print(a, r);
  return r.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& err) {
    std::cerr << "fcbench: " << err.what() << "\n";
    return 2;
  }
}
