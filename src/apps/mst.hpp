#pragma once
// Distributed minimum spanning tree in the Borůvka/GHS fragment-merging
// style, on the CONGEST engine.
//
// Fragments start as single nodes and merge along minimum outgoing edges
// (MOEs). Edge keys are (weight, EdgeId) — a total order, so every fragment
// has a UNIQUE MOE and the resulting forest is the unique minimum spanning
// forest under the perturbed weights: the distributed edge set matches the
// serial Kruskal reference (fc::kruskal_msf) exactly, not just by weight.
//
// Each Borůvka phase is a short sequence of engine executions whose costs
// accumulate into one report (the same idiom ScenarioRunner uses for BFS +
// broadcast):
//
//  1. Announce. One round — every node sends its fragment id over every arc
//     (≤ 2m messages) and derives its local MOE candidate (cheapest incident
//     edge leaving the fragment) from the answers.
//  2. MOE aggregation. Every node learns its fragment's minimum candidate
//     key over the fragment's tree arcs. Two interchangeable engines:
//       * kConvergecast (default): algo::ForestEcho — saturation +
//         resolution up and down the unrooted fragment tree, at most TWO
//         messages per tree edge and no quiescence tail.
//       * kFlood (baseline): min-flood until quiescence — every improvement
//         re-announced over every tree arc, the PR3 behaviour kept as the
//         measured baseline (bench_mst prints both).
//     The unique node whose local candidate IS the fragment minimum is the
//     "winner".
//  3. Merge. Winners send CONNECT over their MOE arc (marking it a tree arc
//     on both sides), then the merged fragment adopts the minimum member
//     fragment id as its new name — again either by ForestEcho over the
//     merged tree (kConvergecast; a separate 2-round connect execution
//     precedes the echo) or by min-flood until quiescence (kFlood, connect
//     and flood in one execution).
//
// In kConvergecast mode, fragments that have no outgoing edge (their
// component's forest is complete) go fully silent: they are masked out of
// the announce and both echoes, so a finished component stops paying the
// per-phase announce constant. The flood baseline keeps announcing, as the
// original code did.
//
// O(log n) phases (fragment count at least halves per phase); each
// aggregation runs in O(fragment diameter) rounds, so the total is
// O(n log n) rounds worst case. Messages: the announce costs ≤ 2m per
// phase in both modes; the aggregation costs O(tree edges) per phase under
// kConvergecast versus O(improvements · tree degree) under kFlood —
// `announce_messages` / `merge_messages` in the report split the two so the
// saving is directly measurable. On a disconnected graph every component
// ends as one fragment and the result is the minimum spanning forest.

#include <cstdint>
#include <vector>

#include "congest/network.hpp"
#include "graph/weighted_graph.hpp"

namespace fc::apps {

/// Engine for the per-phase fragment aggregations (MOE minimum + merged
/// fragment naming). kConvergecast is the default; kFlood is the measured
/// baseline. Both produce the identical forest, phase count, and fragment
/// labels — only the cost profile differs.
enum class MstMerge { kConvergecast, kFlood };

struct MstOptions {
  MstMerge merge = MstMerge::kConvergecast;
  /// Engine knobs for every phase execution; max_rounds caps each one.
  /// Telemetry sees each run as a named span ("mst/announce",
  /// "mst/connect", ...) and fragment leaders annotate "mst/phase=<p>" at
  /// each announce. A cancelled phase stops the Borůvka loop; the report
  /// carries the forest built so far. A fault plan restarts its clock in
  /// every phase run.
  congest::RunOptions engine{.max_rounds = 10'000'000};
};

struct MstReport {
  /// Minimum-spanning-forest edges, EdgeIds sorted ascending.
  std::vector<EdgeId> tree_edges;
  Weight total_weight = 0;
  /// Borůvka phases executed (merges happened); the final verification
  /// sweep that finds no outgoing edge is not counted.
  std::uint32_t phases = 0;
  std::uint64_t rounds = 0;
  std::uint64_t messages = 0;
  /// Messages spent announcing fragment ids (≤ 2m per phase; the part both
  /// merge modes share).
  std::uint64_t announce_messages = 0;
  /// Messages spent aggregating MOE minima, connecting, and renaming merged
  /// fragments — the part MstMerge::kConvergecast cuts versus kFlood.
  std::uint64_t merge_messages = 0;
  /// Per-arc sends summed over every phase (whole-execution congestion).
  std::vector<std::uint64_t> arc_sends;
  bool finished = false;
  /// Some phase execution was truncated by an expired engine.cancel
  /// token; tree_edges hold the merges committed before the cut.
  bool cancelled = false;
  /// Final fragment id per node: the minimum NodeId of its component.
  std::vector<NodeId> fragment;

  /// Max sends over any directed arc / both directions of any edge.
  std::uint64_t max_arc_congestion() const;
  std::uint64_t max_edge_congestion(const Graph& g) const;
};

/// Run distributed Borůvka on `g` (connected or not; weights nonnegative by
/// WeightedGraph's invariant). Deterministic: the report is bit-identical
/// for every thread count, and the forest is bit-identical across both
/// MstMerge modes.
MstReport distributed_mst(const WeightedGraph& g, const MstOptions& opts = {});

}  // namespace fc::apps
