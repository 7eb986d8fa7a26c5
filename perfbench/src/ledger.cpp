#include "ledger.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <ostream>

namespace perfbench {

std::size_t nearest_rank(double p, std::size_t n) {
  if (n == 0) return 0;
  const double r = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
  return std::clamp<std::size_t>(static_cast<std::size_t>(std::max(r, 1.0)),
                                 1, n);
}

Percentile percentile(std::vector<double> samples, double p) {
  Percentile out;
  out.pct = p;
  out.samples = samples.size();
  if (samples.empty()) return out;
  std::sort(samples.begin(), samples.end());
  const std::size_t rank = nearest_rank(p, samples.size());
  out.value = samples[rank - 1];
  out.beyond = samples.size() - rank;
  out.valid = p <= 50.0 || out.beyond >= kMinBeyond;
  return out;
}

Percentile tail_percentile(std::vector<double> samples, double cap) {
  const std::size_t n = samples.size();
  if (n <= kMinBeyond) {
    Percentile out;
    out.pct = cap;
    out.samples = n;
    return out;
  }
  // The highest p <= cap whose rank leaves kMinBeyond samples above it.
  const double p = std::min(
      cap, 100.0 * static_cast<double>(n - kMinBeyond) / static_cast<double>(n));
  return percentile(std::move(samples), p);
}

double median(std::vector<double> samples) {
  return percentile(std::move(samples), 50.0).value;
}

std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Span& s : spans)
    if (s.parent >= 0)
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns,
                                                                s.end_ns);
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Union of the children's intervals, clipped to the parent's.
    std::int64_t covered = 0;
    std::int64_t cur_begin = 0, cur_end = 0;
    bool open = false;
    for (auto [b, e] : kids) {
      b = std::max(b, spans[i].start_ns);
      e = std::min(e, spans[i].end_ns);
      if (e <= b) continue;
      if (open && b <= cur_end) {
        cur_end = std::max(cur_end, e);
        continue;
      }
      if (open) covered += cur_end - cur_begin;
      cur_begin = b;
      cur_end = e;
      open = true;
    }
    if (open) covered += cur_end - cur_begin;
    self[i] = spans[i].duration_ns() - covered;
  }
  return self;
}

std::vector<double> SpanRecorder::durations_ms(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_)
    if (name == s.name) out.push_back(static_cast<double>(s.duration_ns()) / 1e6);
  return out;
}

std::vector<std::pair<std::string, double>> SpanRecorder::self_ms_by_name()
    const {
  const std::vector<std::int64_t> self = self_times(spans_);
  std::map<std::string, double> total;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    total[spans_[i].name] += static_cast<double>(self[i]) / 1e6;
  return {total.begin(), total.end()};
}

void SpanRecorder::write_ndjson(std::ostream& out) const {
  const std::vector<std::int64_t> self = self_times(spans_);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"name\":\"" << s.name << "\",\"op\":" << s.op
        << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << ",\"parent\":" << s.parent << ",\"self_ns\":" << self[i] << "}\n";
  }
}

}  // namespace perfbench
