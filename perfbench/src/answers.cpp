#include "answers.hpp"

#include <exception>

#include "graph/properties.hpp"
#include "scenario/spec.hpp"
#include "serve/engine_pool.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

constexpr std::uint64_t kSources = 1, kDistances = 2, kHops = 3, kMst = 4;

struct Digest {
  std::uint64_t h = 0x243f6a8885a308d3ULL;
  void add(std::int64_t v) {
    h = fc::mix64(h, static_cast<std::uint64_t>(v), 0x6a09e667f3bcc909ULL);
  }
};

/// Flatten nested JSON arrays of numbers into the digest, depth-first.
void add_json(Digest& d, const fc::JsonValue& v) {
  if (v.is_array()) {
    d.add(static_cast<std::int64_t>(v.items.size()));
    for (const fc::JsonValue& item : v.items) add_json(d, item);
  } else {
    d.add(static_cast<std::int64_t>(v.number));
  }
}

}  // namespace

std::uint64_t payload_digest(const fc::JsonValue& response) {
  Digest d;
  const std::pair<const char*, std::uint64_t> sections[] = {
      {"sources", kSources},
      {"distances", kDistances},
      {"hops", kHops},
      {"mst_edges", kMst}};
  for (const auto& [name, tag] : sections) {
    const fc::JsonValue* v = response.find(name);
    if (v == nullptr) continue;
    d.add(static_cast<std::int64_t>(tag));
    add_json(d, *v);
  }
  return d.h;
}

std::uint64_t payload_digest(const fc::scenario::ScenarioPayload& p) {
  Digest d;
  // serialize() always writes `sources` and omits the other sections when
  // they are empty; mirror that exactly.
  d.add(static_cast<std::int64_t>(kSources));
  d.add(static_cast<std::int64_t>(p.sources.size()));
  for (const fc::NodeId s : p.sources) d.add(s);
  if (!p.distances.empty()) {
    d.add(static_cast<std::int64_t>(kDistances));
    d.add(static_cast<std::int64_t>(p.distances.size()));
    for (const auto& row : p.distances) {
      d.add(static_cast<std::int64_t>(row.size()));
      for (const fc::Weight w : row)
        d.add(w >= fc::kInfWeight ? -1 : static_cast<std::int64_t>(w));
    }
  }
  if (!p.hops.empty()) {
    d.add(static_cast<std::int64_t>(kHops));
    d.add(static_cast<std::int64_t>(p.hops.size()));
    for (const auto& row : p.hops) {
      d.add(static_cast<std::int64_t>(row.size()));
      for (const std::uint32_t h : row)
        d.add(h == fc::kUnreached ? -1 : static_cast<std::int64_t>(h));
    }
  }
  if (!p.mst_edges.empty()) {
    d.add(static_cast<std::int64_t>(kMst));
    d.add(static_cast<std::int64_t>(p.mst_edges.size()));
    for (const auto& [u, v] : p.mst_edges) {
      d.add(2);
      d.add(u);
      d.add(v);
    }
  }
  return d.h;
}

ServeOracle::ServeOracle(const std::vector<Target>& targets,
                         std::optional<std::size_t> dynamic_index)
    : targets_(targets), dynamic_index_(dynamic_index) {
  for (std::size_t t = 0; t < targets_.size(); ++t) {
    const fc::scenario::GraphSpec spec =
        fc::scenario::GraphSpec::parse(targets_[t].spec);
    keys_.push_back(fc::serve::EnginePool::pool_key(spec));
    if (dynamic_index_ && *dynamic_index_ == t) {
      // The daemon builds its scenario from the canonical key; so do we.
      dynamic_.emplace(fc::scenario::GraphSpec::parse(keys_.back()));
      graphs_.emplace_back();
    } else {
      graphs_.emplace_back(
          fc::scenario::Registry::instance().build_weighted(spec));
    }
  }
}

const ServeOracle::Expected& ServeOracle::expected(const RequestLine& line) {
  const bool dynamic = dynamic_index_ && *dynamic_index_ == line.target;
  const std::string memo_key =
      keys_[line.target] + '#' +
      (dynamic ? std::to_string(dynamic_->batch()) : "") + '#' + line.algo +
      '#' + std::to_string(line.root);
  auto it = memo_.find(memo_key);
  if (it != memo_.end()) return it->second;

  const fc::WeightedGraph& g =
      dynamic ? dynamic_->weighted() : *graphs_[line.target];
  fc::scenario::ScenarioConfig cfg;
  cfg.root = line.root;
  cfg = fc::scenario::apply_spec_config(
      cfg, fc::scenario::GraphSpec::parse(targets_[line.target].spec));
  fc::scenario::ScenarioPayload payload;
  cfg.payload = &payload;
  const fc::scenario::ScenarioResult r =
      runner_.run(line.algo, g, keys_[line.target], cfg);
  Expected e;
  e.rounds = r.rounds;
  e.messages = r.messages;
  e.finished = r.finished;
  e.digest = payload_digest(payload);
  return memo_.emplace(memo_key, e).first->second;
}

std::string ServeOracle::check_one(const RequestLine& line,
                                   const std::string& response) {
  // Advance the reference schedule first, so one bad update response
  // cannot desynchronise the checks of every later line.
  fc::dynamic::UpdateBatch batch;
  if (line.kind == LineKind::kUpdate) batch = dynamic_->advance();
  const fc::JsonValue v = fc::parse_json(response);
  if (!v.flag("ok")) return "error response: " + response.substr(0, 200);
  if (static_cast<std::uint64_t>(v.num("id")) != line.id)
    return "id mismatch: expected " + std::to_string(line.id);
  if (line.kind == LineKind::kUpdate) {
    if (static_cast<std::uint64_t>(v.num("batch")) != dynamic_->batch() ||
        static_cast<std::uint64_t>(v.num("deleted")) != batch.deleted.size() ||
        static_cast<std::uint64_t>(v.num("inserted")) !=
            batch.inserted.size() ||
        static_cast<std::uint64_t>(v.num("edges")) !=
            dynamic_->graph().edge_count())
      return "update " + std::to_string(line.id) +
             " disagrees with the reference churn schedule";
    return "";
  }
  const Expected& e = expected(line);
  if (static_cast<std::uint64_t>(v.num("rounds")) != e.rounds ||
      static_cast<std::uint64_t>(v.num("messages")) != e.messages ||
      v.flag("finished") != e.finished || payload_digest(v) != e.digest)
    return "query " + std::to_string(line.id) + " (" + line.algo + " root " +
           std::to_string(line.root) + ") disagrees with the reference run";
  return "";
}

CheckResult ServeOracle::check(const std::vector<RequestLine>& lines,
                               const std::vector<std::string>& responses) {
  CheckResult out;
  for (std::size_t i = 0; i < responses.size() && i < lines.size(); ++i) {
    std::string err;
    try {
      err = check_one(lines[i], responses[i]);
    } catch (const std::exception& ex) {
      err = "line " + std::to_string(lines[i].id) + ": " + ex.what();
    }
    ++out.checked;
    if (err.empty()) continue;
    out.failed_lines.push_back(i);
    if (out.first_errors.size() < 5) out.first_errors.push_back(err);
  }
  return out;
}

}  // namespace perfbench
