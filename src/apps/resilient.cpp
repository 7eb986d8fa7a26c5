#include "apps/resilient.hpp"

#include <algorithm>
#include <cstddef>
#include <limits>
#include <stdexcept>
#include <unordered_set>

#include "algo/tree_schedule.hpp"
#include "congest/faults.hpp"
#include "congest/network.hpp"

namespace fc::apps {

/// The adversary is MOBILE: the set may change every round (FP23's model),
/// limited to f edges per round.
std::vector<std::vector<EdgeId>> corruption_schedule(
    const Graph& g, const core::TreePacking& packing, std::uint64_t rounds,
    const ResilientOptions& opts) {
  std::vector<std::vector<EdgeId>> schedule(rounds);
  if (opts.f == 0 || opts.adversary == AdversaryKind::kNone) return schedule;

  Rng rng(mix64(opts.seed, 0x61647620ULL));
  switch (opts.adversary) {
    case AdversaryKind::kNone:
      break;
    case AdversaryKind::kRandom: {
      for (auto& round_set : schedule) {
        std::unordered_set<EdgeId> chosen;
        while (chosen.size() < opts.f && chosen.size() < g.edge_count())
          chosen.insert(static_cast<EdgeId>(rng.below(g.edge_count())));
        round_set.assign(chosen.begin(), chosen.end());
      }
      break;
    }
    case AdversaryKind::kTreeFocused: {
      // Concentrate on tree 0's edges, rotating through them.
      const auto& edges = packing.tree_edges.front();
      std::size_t cursor = 0;
      for (auto& round_set : schedule) {
        for (std::uint32_t i = 0; i < opts.f && i < edges.size(); ++i)
          round_set.push_back(edges[(cursor + i) % edges.size()]);
        cursor = (cursor + opts.f) % std::max<std::size_t>(edges.size(), 1);
      }
      break;
    }
    case AdversaryKind::kCutFocused: {
      std::vector<bool> side = opts.attacked_cut;
      if (side.empty()) {
        side.assign(g.node_count(), false);
        for (NodeId v = 0; v < g.node_count() / 2; ++v) side[v] = true;
      }
      std::vector<EdgeId> cut_edges;
      for (EdgeId e = 0; e < g.edge_count(); ++e)
        if (side[g.edge_u(e)] != side[g.edge_v(e)]) cut_edges.push_back(e);
      std::size_t cursor = 0;
      for (auto& round_set : schedule) {
        for (std::uint32_t i = 0; i < opts.f && i < cut_edges.size(); ++i)
          round_set.push_back(cut_edges[(cursor + i) % cut_edges.size()]);
        cursor = (cursor + opts.f) % std::max<std::size_t>(cut_edges.size(), 1);
      }
      break;
    }
  }
  return schedule;
}

ResilientReport resilient_broadcast(const Graph& g,
                                    const core::TreePacking& packing,
                                    std::uint64_t k,
                                    const ResilientOptions& opts) {
  if (packing.trees.empty())
    throw std::invalid_argument("resilient_broadcast: empty packing");
  const NodeId root = packing.trees.front().root;
  std::uint32_t max_depth = 0;
  for (const auto& t : packing.trees) {
    if (t.covered != g.node_count())
      throw std::invalid_argument("resilient_broadcast: non-spanning tree");
    if (t.root != root)
      throw std::invalid_argument("resilient_broadcast: trees disagree on root");
    max_depth = std::max(max_depth, t.depth);
  }

  if (k > std::numeric_limits<std::uint32_t>::max())
    throw std::invalid_argument(
        "resilient_broadcast: k must fit a message tag");

  ResilientReport report;
  report.trees = static_cast<std::uint32_t>(packing.trees.size());
  report.k = k;

  // Serialize the trees: tree t broadcasts during its own window, so trees
  // sharing edges never contend (the conservative end of the Theorem 12
  // schedule; an edge-disjoint packing could run all windows concurrently).
  const std::uint64_t window = max_depth + k + 1;
  report.rounds = window * report.trees;

  const auto schedule = corruption_schedule(g, packing, report.rounds, opts);
  congest::FaultPlan plan;
  for (std::uint64_t r = 0; r < schedule.size(); ++r)
    for (const EdgeId e : schedule[r]) plan.corrupt_edge(r, e);

  std::vector<algo::TreeJob> jobs;
  for (std::uint32_t t = 0; t < report.trees; ++t)
    jobs.push_back({&packing.trees[t], static_cast<std::uint32_t>(k),
                    static_cast<std::uint64_t>(t) * window});
  algo::TreeSchedule alg(g, std::move(jobs));
  congest::Network net(g);
  congest::RunOptions ro;
  ro.max_rounds = report.rounds + 2;  // the last copy arrives by then
  if (!plan.empty()) ro.faults = &plan;
  if (!net.run(alg, ro).finished)
    throw std::logic_error("resilient_broadcast: engine run hit the round "
                           "cap before quiescing");

  // Majority decode: the adversary wins a (v, m) slot when at least half of
  // the copies are corrupted (corrupted copies may collude on one value).
  for (NodeId v = 0; v < g.node_count(); ++v) {
    if (v == root) continue;
    for (std::uint32_t m = 0; m < k; ++m) {
      if (alg.arrived(v, m) != report.trees)
        throw std::logic_error(
            "resilient_broadcast: engine run lost a copy (corruption never "
            "drops messages — this is a bug)");
      const std::uint32_t c = alg.altered(v, m);
      report.corrupted_copies += c;
      if (2 * c >= report.trees) ++report.decode_failures;
    }
  }
  const double slots =
      static_cast<double>(g.node_count() - 1) * static_cast<double>(k);
  report.failure_rate = slots > 0 ? report.decode_failures / slots : 0;
  return report;
}

}  // namespace fc::apps
