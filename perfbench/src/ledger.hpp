#pragma once
// Measurement primitives of the benchmark: nearest-rank percentiles with
// the "at least ten samples beyond" rule, and an in-memory span recorder
// with self-time arithmetic for the traced run.
//
// Percentiles use the nearest-rank definition every histogram in the repo
// uses: the p-th percentile of n sorted samples is the sample at 1-based
// rank ceil(p * n / 100). A percentile is only reported when at least
// `kMinBeyond` samples lie strictly beyond that rank, so a p99 needs
// n >= 1000.
//
// Spans are (name, op id, start, end, parent) records kept in memory and
// written out once the run ends. A span's self time is its duration minus
// the part of its interval that its direct children cover.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

inline constexpr std::size_t kMinBeyond = 10;

/// Nearest-rank percentile rank (1-based) of `p` in (0, 100] over n samples.
std::size_t nearest_rank(double p, std::size_t n);

/// One reported percentile, with the base it was taken over.
struct Percentile {
  double value = 0;
  double pct = 0;           // the percentile actually reported
  std::size_t samples = 0;  // n
  std::size_t beyond = 0;   // samples strictly beyond the rank
  bool valid = false;       // at least kMinBeyond samples beyond (or p50)
};

/// The p-th nearest-rank percentile of `samples`; valid only when at least
/// kMinBeyond samples lie beyond its rank. The median (p = 50) is valid on
/// any non-empty input.
Percentile percentile(std::vector<double> samples, double p);

/// The highest percentile <= `cap` that keeps kMinBeyond samples beyond
/// it: p99 once n >= 1000, rank n - 10 below that. Invalid when n <= 10.
Percentile tail_percentile(std::vector<double> samples, double cap = 99.0);

double median(std::vector<double> samples);

/// One traced interval. Times are nanoseconds since the recorder's epoch;
/// `parent` indexes the recorder's span vector (-1 = a root span).
struct Span {
  const char* name = "";
  std::uint64_t op = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;

  std::int64_t duration_ns() const { return end_ns - start_ns; }
};

/// Self time of every span: its duration minus the union of its direct
/// children's intervals clipped to it. Index-aligned with `spans`.
std::vector<std::int64_t> self_times(const std::vector<Span>& spans);

/// In-memory span recorder for one thread. Disabled, every call is one
/// branch and records nothing (the traced run's "spans off" pass).
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {
    if (enabled_) spans_.reserve(1 << 16);
  }

  class Scope {
   public:
    Scope(SpanRecorder* rec, std::int32_t index) : rec_(rec), index_(index) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() {
      if (rec_ != nullptr) rec_->close(index_);
    }
    /// Rename before closing, for spans whose kind is known only at the end
    /// (an acquire that turned out to be a hit or a miss).
    void rename(const char* name) {
      if (rec_ != nullptr) rec_->spans_[index_].name = name;
    }

   private:
    SpanRecorder* rec_;
    std::int32_t index_;
  };

  /// Open a span nested under the innermost open one; closed when the
  /// returned scope ends. `name` must outlive the recorder (a literal).
  Scope scope(const char* name, std::uint64_t op) {
    if (!enabled_) return Scope(nullptr, -1);
    Span s;
    s.name = name;
    s.op = op;
    s.parent = open_.empty() ? -1 : open_.back();
    s.start_ns = now_ns();
    spans_.push_back(s);
    open_.push_back(static_cast<std::int32_t>(spans_.size() - 1));
    return Scope(this, open_.back());
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Durations (ms) of every span named `name`.
  std::vector<double> durations_ms(const std::string& name) const;
  /// Summed self time (ms) per span name, sorted by name.
  std::vector<std::pair<std::string, double>> self_ms_by_name() const;

  /// NDJSON: one {"name","op","start_ns","end_ns","parent","self_ns"} line
  /// per span, in opening order.
  void write_ndjson(std::ostream& out) const;

 private:
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch_)
        .count();
  }
  void close(std::int32_t index) {
    spans_[index].end_ns = now_ns();
    open_.pop_back();
  }

  bool enabled_;
  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

}  // namespace perfbench
