#pragma once
// The benchmark's workloads: pinned graph specs and the seeded request
// streams the program receives. Everything here is a pure function of the
// `--seed` argument (and of the pinned graphs), so one seed always yields a
// byte-identical stream. The generator has its own SplitMix64 so that
// changes to the library's RNG cannot silently change the inputs.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "algo/pipeline_broadcast.hpp"
#include "graph/graph.hpp"

namespace perfbench {

/// serve-warm: one resident weighted graph.
inline constexpr const char* kWarmSpec =
    "rmat:n=4096,deg=8,seed=1,weights=1..100";
/// serve-churn: six static weighted graphs plus one dynamic spec, more than
/// the daemon's pool of four can hold.
std::vector<std::string> churn_specs();
inline constexpr std::size_t kChurnDynamicIndex = 6;
inline constexpr std::size_t kChurnPoolCapacity = 4;
/// broadcast-k: the paper's regime, λ = δ = 64 and k = 4n.
inline constexpr const char* kBroadcastSpec =
    "random_regular:n=1024,d=64,seed=1";
inline constexpr std::uint32_t kBroadcastLambda = 64;
inline constexpr std::uint64_t kBroadcastMessagesPerNode = 4;

class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n), n >= 1 (modulo bias is irrelevant at these sizes).
  std::uint64_t below(std::uint64_t n) { return next() % n; }

 private:
  std::uint64_t state_;
};

/// A graph queries go to, with the seeded pool their roots are drawn from.
struct Target {
  std::string spec;
  std::vector<fc::NodeId> roots;
};

/// Members of g's largest connected component, ascending.
std::vector<fc::NodeId> largest_component(const fc::Graph& g);

/// `size` roots sampled systematically from `candidates` (sorted), with a
/// seeded start. Roots come from the largest component so every query does
/// comparable work.
Target make_target(const std::string& spec,
                   const std::vector<fc::NodeId>& candidates,
                   std::uint64_t seed, std::size_t size);

enum class LineKind { kQuery, kUpdate };

/// One generated request line and what it asks for (for the answer check).
struct RequestLine {
  LineKind kind = LineKind::kQuery;
  std::string text;        // the NDJSON line sent to the program
  std::uint64_t id = 0;
  std::size_t target = 0;  // index into the workload's targets
  std::string algo;        // queries: bfs | sssp | mst
  fc::NodeId root = 0;
};

/// serve-warm: closed-loop queries on one target, bfs:sssp:mst = 4:4:1 in
/// every block of nine queries.
std::vector<RequestLine> serve_warm_stream(std::uint64_t seed,
                                           const Target& target,
                                           std::size_t count);

/// serve-churn: every fourth line advances the dynamic target by one churn
/// batch; the other lines query the targets round-robin (same mix).
std::vector<RequestLine> serve_churn_stream(
    std::uint64_t seed, const std::vector<Target>& targets,
    std::size_t dynamic_index, std::size_t count);

/// k seeded placements on n nodes: uniform origins, distinct ids.
std::vector<fc::algo::PlacedMessage> broadcast_placements(std::uint64_t seed,
                                                          fc::NodeId n,
                                                          std::uint64_t k);

}  // namespace perfbench
