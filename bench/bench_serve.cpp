// Serving-path benchmark: drives a LIVE scenario_serve daemon over a
// stdin/stdout pipe pair — the real transport, fork/exec and all — and
// measures end-to-end query latency and throughput.
//
//   ./bench_serve                          # closed loop, default workload
//   ./bench_serve --smoke                  # tiny CI smoke (validates too)
//   ./bench_serve --mode=open --burst=16   # open loop: burst + drain
//   ./bench_serve --mode=overload          # saturation: shed vs no-shed
//
// Closed loop sends one query and waits for its response — per-request
// latency percentiles (nearest-rank, like every histogram in the repo) and
// the serial throughput. Open loop sends `burst` queries back-to-back and
// then drains the burst's responses — with --window > 1 the daemon
// coalesces same-graph bfs/sssp queries inside a window into one batch
// execution, so open-loop throughput shows what the batching window buys.
// Its latency is per query, from its send to its response (matched by id),
// so a query's wait behind its burst-mates counts.
//
// Overload mode measures serving under duress: an unloaded closed-loop
// baseline, then the same workload offered in back-to-back bursts (well
// beyond the daemon's serial capacity) against a daemon WITHOUT admission
// control and against one WITH --max-pending shedding. Without shedding,
// per-response p99 grows with the offered burst (every query queues behind
// the whole burst); with it, responses stay bounded — accepted queries
// wait behind at most max-pending others, shed queries answer immediately
// with the typed `overloaded` error, and the client retries them with
// exponential backoff seeded by the response's retry_after_ms hint (the
// same policy the closed loop applies). The three rows land side by side
// in BENCH_serve.json.
//
// Every response line is JSON-validated (fc::parse_json + ok check): the
// benchmark doubles as an end-to-end protocol check, and --smoke exits
// nonzero when any response fails to parse or reports an error, or when a
// phase with answers reports a zero latency p50 (a latency that was never
// recorded).
//
// Results land in BENCH_serve.json (one row per measured phase) next to
// the table on stdout.
//
// Options:
//   --daemon=<path>  scenario_serve binary (default "./scenario_serve")
//   --spec=<spec>    workload graph (default rmat:n=1024,deg=8,seed=1,
//                    weights=1..100)
//   --algo=<name>    repeatable; queried round-robin (default bfs, sssp)
//   --requests=<n>   measured queries per phase (default 200)
//   --warmup=<n>     unmeasured warm-up queries (default 10)
//   --mode=<m>       "closed" (default), "open", or "overload"
//   --burst=<n>      open/overload in-flight burst (default 32)
//   --window=<n>     daemon batching window (default 1 closed, burst open)
//   --max-pending=<n> admission bound of the overload shed phase (default 2)
//   --cache=<dir>    corpus directory handed to the daemon
//   --smoke          CI mode: tiny counts, strict validation

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <iostream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "congest/telemetry.hpp"
#include "util/json.hpp"

namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t ns_since(Clock::time_point start) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           start)
          .count());
}

/// A scenario_serve child on a stdin/stdout pipe pair.
class DaemonPipe {
 public:
  bool start(const std::string& path, const std::vector<std::string>& args) {
    int to_child[2], from_child[2];
    if (pipe(to_child) != 0 || pipe(from_child) != 0) return false;
    pid_ = fork();
    if (pid_ < 0) return false;
    if (pid_ == 0) {
      dup2(to_child[0], STDIN_FILENO);
      dup2(from_child[1], STDOUT_FILENO);
      close(to_child[0]);
      close(to_child[1]);
      close(from_child[0]);
      close(from_child[1]);
      std::vector<char*> argv;
      argv.push_back(const_cast<char*>(path.c_str()));
      for (const auto& a : args) argv.push_back(const_cast<char*>(a.c_str()));
      argv.push_back(nullptr);
      execv(path.c_str(), argv.data());
      std::perror("bench_serve: execv");
      _exit(127);
    }
    close(to_child[0]);
    close(from_child[1]);
    in_ = to_child[1];
    out_ = from_child[0];
    return true;
  }

  bool send(const std::string& line) {
    std::string out = line;
    out += '\n';
    return send_raw(out);
  }

  /// One write() for a whole burst: the daemon's drain-read then sees the
  /// full round before going idle, instead of mini-flushing a partial
  /// window per pipe chunk (which would serialize the round into several
  /// back-to-back executions and smear every measured latency).
  bool send_batch(const std::vector<std::string>& lines) {
    std::string out;
    for (const std::string& l : lines) {
      out += l;
      out += '\n';
    }
    return send_raw(out);
  }

  bool recv(std::string& line) {
    while (true) {
      const auto nl = buffer_.find('\n');
      if (nl != std::string::npos) {
        line.assign(buffer_, 0, nl);
        buffer_.erase(0, nl + 1);
        return true;
      }
      char chunk[8192];
      const ssize_t n = read(out_, chunk, sizeof chunk);
      if (n <= 0) return false;
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  int stop() {
    send("{\"cmd\": \"shutdown\"}");
    if (in_ >= 0) close(in_);
    std::string drain;
    while (recv(drain)) {
    }
    if (out_ >= 0) close(out_);
    int status = 0;
    if (pid_ > 0) waitpid(pid_, &status, 0);
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }

 private:
  bool send_raw(const std::string& out) {
    std::size_t off = 0;
    while (off < out.size()) {
      const ssize_t n = write(in_, out.data() + off, out.size() - off);
      if (n <= 0) return false;
      off += static_cast<std::size_t>(n);
    }
    return true;
  }

  pid_t pid_ = -1;
  int in_ = -1;
  int out_ = -1;
  std::string buffer_;
};

struct PhaseResult {
  std::string label;
  std::uint64_t requests = 0;
  std::uint64_t ok = 0;
  std::uint64_t errors = 0;
  std::uint64_t invalid = 0;  // lines that failed JSON validation
  std::uint64_t cache_hits = 0;
  std::uint64_t engine_reused = 0;
  std::uint64_t coalesced_max = 1;
  /// Duress tallies: typed `overloaded` responses (shed at admission),
  /// typed `deadline-exceeded` responses, and client-side resends after an
  /// overloaded answer (exponential backoff).
  std::uint64_t shed = 0;
  std::uint64_t deadline_exceeded = 0;
  std::uint64_t retries = 0;
  double seconds = 0;
  fc::congest::HistogramSummary latency_us;
};

/// Validate one response line; tallies into `r` and stores the response
/// id in `*id` when asked. Returns false only on a line that is not valid
/// JSON (protocol breakage, not a typed error).
bool tally(const std::string& line, PhaseResult& r,
           std::uint64_t* id = nullptr) {
  fc::JsonValue v;
  try {
    v = fc::parse_json(line);
  } catch (const std::exception&) {
    ++r.invalid;
    return false;
  }
  if (id != nullptr) *id = static_cast<std::uint64_t>(v.num("id"));
  if (v.flag("ok")) {
    ++r.ok;
    if (v.flag("cache_hit")) ++r.cache_hits;
    if (v.flag("engine_reused")) ++r.engine_reused;
    r.coalesced_max = std::max(
        r.coalesced_max, static_cast<std::uint64_t>(v.num("coalesced", 1)));
  } else {
    ++r.errors;
    const std::string code = v.str("error", "");
    if (code == "overloaded") ++r.shed;
    if (code == "deadline-exceeded") ++r.deadline_exceeded;
  }
  return true;
}

std::string query_line(std::uint64_t id, const std::string& spec,
                       const std::string& algo, std::uint64_t seed) {
  fc::JsonWriter w;
  w.begin_object()
      .field("id", id)
      .field("spec", spec)
      .field("algo", algo)
      .field("seed", seed)
      .end_object();
  return w.take();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fc;
  const Options opts(argc, argv);

  static const std::vector<std::string> known_flags = {
      "daemon", "spec",   "algo",  "requests",    "warmup", "mode",
      "burst",  "window", "cache", "max-pending", "smoke"};
  for (const auto& key : opts.keys()) {
    if (std::find(known_flags.begin(), known_flags.end(), key) ==
        known_flags.end()) {
      std::cerr << "bench_serve: unknown option '--" << key
                << "'; known options: --daemon --spec --algo --requests "
                   "--warmup --mode --burst --window --cache --max-pending "
                   "--smoke\n";
      return 2;
    }
  }

  const bool smoke = opts.get_bool("smoke");
  const std::string daemon = opts.get("daemon", "./scenario_serve");
  const std::string spec =
      opts.get("spec", smoke ? "rmat:n=256,deg=6,seed=1,weights=1..100"
                             : "rmat:n=1024,deg=8,seed=1,weights=1..100");
  std::vector<std::string> algos = opts.get_all("algo");
  if (algos.empty()) algos = {"bfs", "sssp"};
  const std::uint64_t requests =
      static_cast<std::uint64_t>(opts.get_int("requests", smoke ? 24 : 200));
  const std::uint64_t warmup =
      static_cast<std::uint64_t>(opts.get_int("warmup", smoke ? 4 : 10));
  const std::string mode = opts.get("mode", "closed");
  if (mode != "closed" && mode != "open" && mode != "overload") {
    std::cerr
        << "bench_serve: --mode must be 'closed', 'open', or 'overload'\n";
    return 2;
  }
  const std::uint64_t burst = static_cast<std::uint64_t>(
      opts.get_int("burst", mode == "overload" && smoke ? 8 : 32));
  const std::uint64_t window = static_cast<std::uint64_t>(
      opts.get_int("window", mode == "open" ? static_cast<int>(burst) : 1));
  const std::uint64_t max_pending =
      static_cast<std::uint64_t>(opts.get_int("max-pending", 2));
  const std::string cache = opts.get("cache", "");

  bench::banner("serve",
                "End-to-end serving path: live scenario_serve daemon over a "
                "pipe, per-query latency and throughput.");

  std::vector<std::string> daemon_args = {"--window=" +
                                          std::to_string(window)};
  if (!cache.empty()) daemon_args.push_back("--cache=" + cache);
  DaemonPipe pipe;
  if (!pipe.start(daemon, daemon_args)) {
    std::cerr << "bench_serve: cannot start daemon '" << daemon << "'\n";
    return 2;
  }

  bench::JsonReport report("serve");
  bench::add_run_metadata(report);
  report.meta("mode", mode)
      .meta("spec", spec)
      .meta("window", window)
      .meta("daemon", daemon);
  if (mode == "overload")
    report.meta("burst", burst).meta("max_pending", max_pending);

  Table table({"phase", "requests", "ok", "err", "shed", "retries", "hits",
               "reused", "qps", "p50 us", "p99 us", "max us", "coalesced"});
  bool protocol_ok = true;
  std::uint64_t next_id = 1;

  // Warm-up: populate the pool (and corpus) outside the measurement. With
  // a batching window the daemon holds queries until the window fills, so
  // force a flush after each one to keep this loop request/response.
  for (std::uint64_t i = 0; i < warmup && protocol_ok; ++i) {
    PhaseResult sink;
    std::string resp;
    protocol_ok =
        pipe.send(query_line(next_id++, spec, algos[i % algos.size()], i)) &&
        (window <= 1 || pipe.send("{\"cmd\": \"flush\"}")) &&
        pipe.recv(resp) && tally(resp, sink);
  }
  if (!protocol_ok) {
    std::cerr << "bench_serve: daemon failed during warm-up\n";
    pipe.stop();
    return 2;
  }

  std::vector<PhaseResult> phases;
  bool daemon_live = true;
  auto stop_daemon = [&]() {
    if (!daemon_live) return;
    daemon_live = false;
    const int rc = pipe.stop();
    pipe = DaemonPipe();
    if (rc != 0) {
      std::cerr << "bench_serve: daemon exited with status " << rc << "\n";
      protocol_ok = false;
    }
  };

  // Closed loop with the client-side duress policy: a typed `overloaded`
  // response is resent after an exponential backoff seeded by the daemon's
  // retry_after_ms hint. A lone closed-loop client never trips admission
  // control, but the policy belongs to the client, not the phase — the
  // overload mode reuses this loop as its unloaded baseline. Latency is
  // measured first-send to final answer, backoff included.
  auto run_closed = [&](const std::string& label,
                        std::uint64_t n) -> PhaseResult {
    PhaseResult r;
    r.label = label;
    r.requests = n;
    std::vector<std::uint64_t> lat_us;
    lat_us.reserve(n);
    const auto begin = Clock::now();
    for (std::uint64_t i = 0; i < n && protocol_ok; ++i) {
      const std::string line =
          query_line(next_id++, spec, algos[i % algos.size()], i);
      const auto t0 = Clock::now();
      std::uint64_t backoff_ms = 0;
      for (int attempt = 0; attempt < 10 && protocol_ok; ++attempt) {
        std::string resp;
        if (!pipe.send(line) || !pipe.recv(resp)) {
          protocol_ok = false;
          break;
        }
        bool retry = false;
        try {
          const JsonValue v = parse_json(resp);
          if (!v.flag("ok") && v.str("error", "") == "overloaded" &&
              attempt + 1 < 10) {
            retry = true;
            ++r.shed;
            ++r.retries;
            const auto hint =
                static_cast<std::uint64_t>(v.num("retry_after_ms", 1));
            backoff_ms = backoff_ms == 0 ? std::max<std::uint64_t>(hint, 1)
                                         : backoff_ms * 2;
          }
        } catch (const std::exception&) {
          // tally() below records the invalid line.
        }
        if (retry) {
          std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
          continue;
        }
        lat_us.push_back(ns_since(t0) / 1000);
        if (!tally(resp, r)) protocol_ok = false;
        break;
      }
    }
    r.seconds = static_cast<double>(ns_since(begin)) * 1e-9;
    r.latency_us = congest::summarize_counts(lat_us);
    return r;
  };

  // One overload phase: offer `n` queries in back-to-back bursts of `burst`
  // — far past the daemon's serial capacity — and record the latency of
  // EVERY request/response exchange, shed answers included: a fast typed
  // `overloaded` IS the product of admission control, and its latency is
  // what a real client experiences per attempt. Shed queries are retried
  // with per-query exponential backoff until they complete, so `ok`
  // converges to `n` and the goodput cost of shedding shows up in
  // `seconds`, not in lost answers.
  auto run_overload = [&](const std::string& label,
                          std::uint64_t n) -> PhaseResult {
    struct Outstanding {
      std::string line;
      std::uint64_t backoff_ms = 0;
      int attempts = 0;
      Clock::time_point sent_at;
    };
    PhaseResult r;
    r.label = label;
    r.requests = n;
    std::vector<std::uint64_t> lat_us;
    lat_us.reserve(n);
    std::map<std::uint64_t, Outstanding> inflight;
    std::vector<std::uint64_t> retry_ids;
    std::uint64_t issued = 0, completed = 0;
    const auto begin = Clock::now();
    while (completed < n && protocol_ok) {
      // Retries lead the next burst; one sleep covers the largest backoff.
      std::vector<std::uint64_t> round = std::move(retry_ids);
      retry_ids.clear();
      std::uint64_t wait_ms = 0;
      for (const std::uint64_t id : round)
        wait_ms = std::max(wait_ms, inflight[id].backoff_ms);
      if (wait_ms > 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(wait_ms));
      while (round.size() < burst && issued < n) {
        const std::uint64_t id = next_id++;
        inflight[id] = {
            query_line(id, spec, algos[issued % algos.size()], issued), 0, 0,
            {}};
        round.push_back(id);
        ++issued;
      }
      std::vector<std::string> lines;
      lines.reserve(round.size());
      for (const std::uint64_t id : round) {
        Outstanding& o = inflight[id];
        o.sent_at = Clock::now();
        ++o.attempts;
        lines.push_back(o.line);
      }
      if (!pipe.send_batch(lines)) protocol_ok = false;
      // Shed responses arrive immediately, accepted ones after the flush;
      // match by id, not send order.
      for (std::size_t i = 0; i < round.size() && protocol_ok; ++i) {
        std::string resp;
        if (!pipe.recv(resp)) {
          protocol_ok = false;
          break;
        }
        std::uint64_t id = 0;
        std::uint64_t hint = 1;
        bool shed_resp = false;
        try {
          const JsonValue v = parse_json(resp);
          id = static_cast<std::uint64_t>(v.num("id"));
          shed_resp = !v.flag("ok") && v.str("error", "") == "overloaded";
          if (shed_resp)
            hint = static_cast<std::uint64_t>(v.num("retry_after_ms", 1));
        } catch (const std::exception&) {
        }
        const auto it = inflight.find(id);
        if (it == inflight.end()) {
          ++r.invalid;
          protocol_ok = false;
          break;
        }
        lat_us.push_back(ns_since(it->second.sent_at) / 1000);
        // Retries lead the next round, so the daemon admits the oldest
        // queries first and every query completes eventually; the attempt
        // ceiling is a livelock safety net, not a give-up policy. Backoff
        // doubles from the daemon's hint up to a ceiling — an offered load
        // this far past capacity would otherwise sleep for seconds.
        if (shed_resp && it->second.attempts < 1000) {
          ++r.shed;
          ++r.retries;
          it->second.backoff_ms = std::min<std::uint64_t>(
              it->second.backoff_ms == 0 ? std::max<std::uint64_t>(hint, 1)
                                         : it->second.backoff_ms * 2,
              64);
          retry_ids.push_back(id);
          continue;
        }
        if (!tally(resp, r)) protocol_ok = false;
        inflight.erase(it);
        ++completed;
      }
    }
    r.seconds = static_cast<double>(ns_since(begin)) * 1e-9;
    r.latency_us = congest::summarize_counts(lat_us);
    return r;
  };

  if (mode == "closed") {
    phases.push_back(run_closed("closed", requests));
  } else if (mode == "open") {
    PhaseResult r;
    r.label = "open burst=" + std::to_string(burst);
    r.requests = requests;
    std::vector<std::uint64_t> lat_us;
    lat_us.reserve(requests);
    std::map<std::uint64_t, Clock::time_point> sent_at;  // by query id
    const auto begin = Clock::now();
    std::uint64_t sent = 0, received = 0;
    while (received < requests && protocol_ok) {
      const std::uint64_t batch =
          std::min<std::uint64_t>(burst, requests - sent);
      for (std::uint64_t i = 0; i < batch; ++i, ++sent) {
        const std::uint64_t id = next_id++;
        sent_at[id] = Clock::now();
        if (!pipe.send(
                query_line(id, spec, algos[sent % algos.size()], sent)))
          protocol_ok = false;
      }
      // A window smaller than the burst flushes on its own; otherwise ask.
      if (window > 1 && !pipe.send("{\"cmd\": \"flush\"}"))
        protocol_ok = false;
      for (std::uint64_t i = 0; i < batch && protocol_ok; ++i, ++received) {
        std::string resp;
        if (!pipe.recv(resp)) {
          protocol_ok = false;
          break;
        }
        std::uint64_t id = 0;
        if (!tally(resp, r, &id)) {
          protocol_ok = false;
          break;
        }
        const auto it = sent_at.find(id);
        if (it == sent_at.end()) {
          ++r.invalid;
          protocol_ok = false;
          break;
        }
        lat_us.push_back(ns_since(it->second) / 1000);
        sent_at.erase(it);
      }
    }
    r.seconds = static_cast<double>(ns_since(begin)) * 1e-9;
    r.latency_us = congest::summarize_counts(lat_us);
    phases.push_back(std::move(r));
  } else {
    // Unloaded baseline and the no-shed overload run share the default
    // daemon (window=1, unbounded admission): every burst query is
    // accepted and queues behind the whole outstanding burst, so response
    // p99 grows with the offered load.
    phases.push_back(run_closed("unloaded", requests));
    if (protocol_ok) phases.push_back(run_overload("overload no-shed",
                                                   requests));
    stop_daemon();
    if (protocol_ok) {
      // Fresh daemon WITH admission control: at most max-pending queries
      // queue, the rest shed instantly with the typed `overloaded` error —
      // response p99 stays bounded no matter the offered burst.
      std::vector<std::string> shed_args = {
          "--window=" + std::to_string(burst),
          "--max-pending=" + std::to_string(max_pending)};
      if (!cache.empty()) shed_args.push_back("--cache=" + cache);
      if (!pipe.start(daemon, shed_args)) {
        std::cerr << "bench_serve: cannot restart daemon with shedding\n";
        protocol_ok = false;
      } else {
        daemon_live = true;
        for (std::uint64_t i = 0; i < warmup && protocol_ok; ++i) {
          PhaseResult sink;
          std::string resp;
          protocol_ok = pipe.send(query_line(next_id++, spec,
                                             algos[i % algos.size()], i)) &&
                        pipe.send("{\"cmd\": \"flush\"}") && pipe.recv(resp) &&
                        tally(resp, sink);
        }
        if (protocol_ok)
          phases.push_back(run_overload(
              "overload shed=" + std::to_string(max_pending), requests));
      }
    }
  }

  stop_daemon();

  for (const PhaseResult& r : phases) {
    // Exchanges = every request/response round-trip, resends included;
    // goodput counts only final ok answers.
    const std::uint64_t exchanges = r.ok + r.errors + r.retries;
    const double qps =
        r.seconds > 0 ? static_cast<double>(exchanges) / r.seconds : 0;
    const double goodput =
        r.seconds > 0 ? static_cast<double>(r.ok) / r.seconds : 0;
    table.add_row({r.label, Table::num(std::size_t{r.requests}),
                   Table::num(std::size_t{r.ok}),
                   Table::num(std::size_t{r.errors}),
                   Table::num(std::size_t{r.shed}),
                   Table::num(std::size_t{r.retries}),
                   Table::num(std::size_t{r.cache_hits}),
                   Table::num(std::size_t{r.engine_reused}),
                   std::to_string(static_cast<std::uint64_t>(qps)),
                   Table::num(std::size_t{r.latency_us.p50}),
                   Table::num(std::size_t{r.latency_us.p99}),
                   Table::num(std::size_t{r.latency_us.max}),
                   Table::num(std::size_t{r.coalesced_max})});
    report.row()
        .add("phase", r.label)
        .add("requests", r.requests)
        .add("ok", r.ok)
        .add("errors", r.errors)
        .add("invalid", r.invalid)
        .add("shed", r.shed)
        .add("deadline_exceeded", r.deadline_exceeded)
        .add("retries", r.retries)
        .add("cache_hits", r.cache_hits)
        .add("engine_reused", r.engine_reused)
        .add("coalesced_max", r.coalesced_max)
        .add("seconds", r.seconds)
        .add("throughput_qps", qps)
        .add("goodput_qps", goodput)
        .add("lat_p50_us", r.latency_us.p50)
        .add("lat_p99_us", r.latency_us.p99)
        .add("lat_max_us", r.latency_us.max);
  }
  table.print(std::cout);
  std::cout << "\nbench artifact: " << report.write() << "\n";

  if (!protocol_ok) {
    std::cerr << "bench_serve: protocol failure (invalid response or "
                 "daemon error)\n";
    return 1;
  }
  if (smoke) {
    for (const PhaseResult& r : phases) {
      if (r.ok != r.requests || r.errors != 0 || r.invalid != 0) {
        std::cerr << "bench_serve: smoke failed (" << r.ok << "/"
                  << r.requests << " ok)\n";
        return 1;
      }
      if (r.ok > 0 && r.latency_us.p50 == 0) {
        std::cerr << "bench_serve: smoke failed (phase '" << r.label
                  << "' answered " << r.ok << " queries but recorded no "
                  << "latency)\n";
        return 1;
      }
    }
  }
  return 0;
}
