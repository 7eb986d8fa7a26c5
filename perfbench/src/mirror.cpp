#include "mirror.hpp"

#include <stdexcept>
#include <utility>

#include "serve/protocol.hpp"
#include "util/json.hpp"

namespace perfbench {

namespace {

const char* run_span_name(const std::string& algo) {
  if (algo == "bfs") return "scenario.run_bfs";
  if (algo == "sssp") return "scenario.run_sssp";
  if (algo == "mst") return "scenario.run_mst";
  return "scenario.run_other";
}

}  // namespace

Mirror::Mirror(std::size_t pool_capacity, const std::string& cache_dir,
               SpanRecorder& recorder)
    : rec_(recorder), pool_(pool_capacity, cache_dir) {}

fc::dynamic::DynamicScenario& Mirror::scenario(const std::string& key) {
  auto it = scenarios_.find(key);
  if (it == scenarios_.end())
    it = scenarios_.try_emplace(key, fc::scenario::GraphSpec::parse(key))
             .first;
  return it->second;
}

void Mirror::install(const fc::scenario::GraphSpec& spec,
                     const fc::dynamic::DynamicScenario& sc,
                     std::uint64_t op) {
  auto span = rec_.scope("engine_pool.install", op);
  if (sc.has_weights())
    pool_.install(spec, sc.weighted());
  else
    pool_.install(spec, sc.graph());
}

std::string Mirror::handle(const std::string& line, std::uint64_t op) {
  auto op_span = rec_.scope("service.op", op);
  fc::serve::Request req;
  {
    auto span = rec_.scope("protocol.parse", op);
    fc::serve::ErrorCode code = fc::serve::ErrorCode::kNone;
    std::string message;
    if (!fc::serve::parse_request(fc::parse_json(line), &req, &code,
                                  &message))
      throw std::runtime_error("mirror: bad request line: " + message);
  }

  if (req.command == fc::serve::Command::kUpdate) {
    fc::scenario::GraphSpec spec;
    std::string key;
    {
      auto span = rec_.scope("scenario.spec_parse", op);
      spec = fc::scenario::GraphSpec::parse(req.update_spec);
      key = fc::serve::EnginePool::pool_key(spec);
    }
    fc::dynamic::DynamicScenario& sc = scenario(key);
    std::uint64_t deleted = 0, inserted = 0;
    {
      auto span = rec_.scope("dynamic.advance", op);
      for (std::uint64_t b = 0; b < req.update_batches; ++b) {
        const fc::dynamic::UpdateBatch batch = sc.advance();
        deleted += batch.deleted.size();
        inserted += batch.inserted.size();
      }
    }
    edges_changed_.push_back(deleted + inserted);
    install(spec, sc, op);
    auto span = rec_.scope("protocol.serialize", op);
    fc::JsonWriter w;
    w.begin_object()
        .field("id", req.query.id)
        .field("ok", true)
        .field("cmd", "update")
        .field("spec", key)
        .field("batch", sc.batch())
        .field("deleted", deleted)
        .field("inserted", inserted)
        .field("nodes", std::uint64_t{sc.graph().node_count()})
        .field("edges", std::uint64_t{sc.graph().edge_count()})
        .end_object();
    return w.take();
  }
  if (req.command != fc::serve::Command::kNone)
    throw std::runtime_error("mirror: control lines are not replayed");

  const fc::serve::Query& q = req.query;
  fc::scenario::GraphSpec spec;
  std::string key;
  fc::scenario::ScenarioConfig cfg;
  {
    // Service::submit does this much at admission.
    auto span = rec_.scope("scenario.spec_parse", op);
    spec = fc::scenario::GraphSpec::parse(q.spec);
    key = fc::serve::EnginePool::pool_key(spec);
    cfg = fc::scenario::apply_spec_config(q.cfg, spec);
  }
  if (fc::scenario::spec_is_dynamic(spec)) {
    fc::dynamic::DynamicScenario& sc = scenario(key);
    if (pool_.find(spec) == nullptr) install(spec, sc, op);
  }

  fc::serve::Response resp;
  resp.id = q.id;
  fc::serve::EnginePool::Entry* entry = nullptr;
  {
    auto span = rec_.scope("engine_pool.acquire_hit", op);
    entry = &pool_.acquire(spec, &resp.cache_hit);
    if (!resp.cache_hit) span.rename("engine_pool.acquire_miss");
  }
  cfg.network = entry->network.get();
  fc::scenario::ScenarioPayload payload;
  if (q.want_payload) cfg.payload = &payload;
  const std::uint64_t runs_before = entry->network->runs_started();
  {
    auto span = rec_.scope(run_span_name(q.algo), op);
    resp.result = entry->is_weighted()
                      ? runner_.run(q.algo, entry->weighted_graph(),
                                    entry->key, cfg)
                      : runner_.run(q.algo, entry->graph(), entry->key, cfg);
  }
  messages_ += resp.result.messages;
  resp.engine_reused =
      resp.cache_hit && entry->network->runs_started() > runs_before;
  resp.ok = true;
  if (q.want_payload) {
    resp.has_payload = true;
    resp.payload = std::move(payload);
  }
  auto span = rec_.scope("protocol.serialize", op);
  return fc::serve::serialize(resp);
}

}  // namespace perfbench
