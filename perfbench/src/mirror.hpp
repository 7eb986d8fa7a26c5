#pragma once
// The traced replay: one request line at a time through the same public
// calls serve::Service::run_one makes for a window of one — parse_request,
// GraphSpec parsing, EnginePool::install / acquire, ScenarioRunner::run,
// serialize — with a span around each call. Its response lines must be
// byte-identical to the daemon's, which the benchmark checks.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "dynamic/scenario.hpp"
#include "ledger.hpp"
#include "scenario/runner.hpp"
#include "serve/engine_pool.hpp"

namespace perfbench {

class Mirror {
 public:
  Mirror(std::size_t pool_capacity, const std::string& cache_dir,
         SpanRecorder& recorder);

  /// Answer one request line (queries and update commands); `op` tags the
  /// line's spans. Throws on anything Service would answer with an error.
  std::string handle(const std::string& line, std::uint64_t op);

  /// Engine messages of every query answered so far, for messages/second.
  std::uint64_t messages() const { return messages_; }
  /// Edges deleted + inserted by each churn batch applied, in order.
  const std::vector<std::uint64_t>& edges_changed() const {
    return edges_changed_;
  }

 private:
  fc::dynamic::DynamicScenario& scenario(const std::string& key);
  void install(const fc::scenario::GraphSpec& spec,
               const fc::dynamic::DynamicScenario& sc, std::uint64_t op);

  SpanRecorder& rec_;
  fc::serve::EnginePool pool_;
  fc::scenario::ScenarioRunner runner_;
  std::map<std::string, fc::dynamic::DynamicScenario> scenarios_;
  std::uint64_t messages_ = 0;
  std::vector<std::uint64_t> edges_changed_;
};

}  // namespace perfbench
