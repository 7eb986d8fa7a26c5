#pragma once
// The answer check: every served response is compared with an untimed
// in-process ScenarioRunner run of the same query (memoised per distinct
// query and graph state), and every update response with an in-process
// replay of the same churn schedule. Runs after the timed phase only.

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "dynamic/scenario.hpp"
#include "graph/weighted_graph.hpp"
#include "scenario/runner.hpp"
#include "util/json.hpp"
#include "workloads.hpp"

namespace perfbench {

/// Order-sensitive digest of a response's payload arrays (sources,
/// distances, hops, mst_edges; unreachable = -1), and of the same payload
/// held in memory. Equal iff the served payload matches the reference.
std::uint64_t payload_digest(const fc::JsonValue& response);
std::uint64_t payload_digest(const fc::scenario::ScenarioPayload& payload);

struct CheckResult {
  std::size_t checked = 0;
  std::vector<std::size_t> failed_lines;  // stream indices, ascending
  std::vector<std::string> first_errors;  // at most a few, for the log
};

class ServeOracle {
 public:
  /// `dynamic_index` names the target whose spec is dynamic (churn), if any.
  ServeOracle(const std::vector<Target>& targets,
              std::optional<std::size_t> dynamic_index);

  /// Check responses[i] against lines[i] for every i < responses.size().
  /// Lines must be checked in stream order from the first one: update
  /// lines advance the reference churn schedule.
  CheckResult check(const std::vector<RequestLine>& lines,
                    const std::vector<std::string>& responses);

  /// Distinct reference runs made so far (memo size).
  std::size_t reference_runs() const { return memo_.size(); }

 private:
  struct Expected {
    std::uint64_t rounds = 0;
    std::uint64_t messages = 0;
    bool finished = false;
    std::uint64_t digest = 0;
  };
  const Expected& expected(const RequestLine& line);
  std::string check_one(const RequestLine& line, const std::string& response);

  std::vector<Target> targets_;
  std::vector<std::string> keys_;  // pool keys, index-aligned with targets_
  std::vector<std::optional<fc::WeightedGraph>> graphs_;
  std::optional<std::size_t> dynamic_index_;
  std::optional<fc::dynamic::DynamicScenario> dynamic_;
  fc::scenario::ScenarioRunner runner_;
  std::map<std::string, Expected> memo_;
};

}  // namespace perfbench
