#pragma once
// Exact unweighted APSP in O(n) rounds — the Θ(n)-round baseline the
// paper's Theorem 4 improves upon (cf. PRT12 / Holzer–Wattenhofer).
//
// Unlike apps/prt12_apsp.hpp (which simulates the schedule on the cluster
// graph), this runs the delayed-BFS algorithm as a REAL message-level
// CONGEST execution on G: node u starts a full BFS at round 2π(u), where
// π is the DFS-walk timestamp. PRT12's theorem says no node is newly
// reached by two BFS waves in the same round, so each node forwards at
// most one (source, distance) pair per round — exactly one message per
// edge — and the execution is CONGEST-legal. Our implementation queues
// defensively; `max_queue == 1` in the report certifies the theorem held
// at the message level (and the bandwidth guard in the simulator would
// throw outright on a same-arc double send).
//
// Total cost: 2n rounds for the DFS token walk (charged analytically) plus
// the measured delayed-BFS rounds <= 4n + D. Θ(n) — the baseline against
// which Õ(n/λ) approximation is compared in bench_apsp_unweighted.

#include <cstdint>
#include <vector>

#include "congest/network.hpp"
#include "graph/properties.hpp"

namespace fc::apps {

struct ExactApspReport {
  std::vector<std::vector<std::uint32_t>> dist;  // dist[v][u]
  std::uint64_t dfs_rounds = 0;   // token walk: 2(n-1)
  std::uint64_t bfs_rounds = 0;   // measured delayed-BFS execution
  std::uint64_t total_rounds = 0;
  std::uint64_t messages = 0;
  std::size_t max_queue = 0;      // 1 iff the PRT12 property held exactly
};

/// Run the distributed exact APSP on a connected graph. `engine.max_rounds`
/// is overridden by the algorithm's own bound.
ExactApspReport exact_apsp_distributed(const Graph& g, NodeId dfs_root = 0,
                                       congest::RunOptions engine = {});

}  // namespace fc::apps
