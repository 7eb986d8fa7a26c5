#pragma once
// Composite execution of edge-disjoint sub-algorithms.
//
// Theorem 1 runs λ' independent pipelined broadcasts, one per edge-disjoint
// spanning subgraph. Because the subgraphs share no edges, executing all
// instances simultaneously is a single valid CONGEST execution on the
// parent graph: in any global round every edge carries at most the one
// message of the unique instance that owns it. The runner exploits this
// literally: the default kInterleaved mode runs ALL instances inside ONE
// engine execution on the block-diagonal union of the instance graphs —
// one round loop, one delivery pass, one pool — with a composite Algorithm
// multiplexing start/step/done into the per-instance blocks. Each
// instance's block mirrors its subgraph's CSR at a fixed node/arc offset
// (Graph::from_edges lays arcs out in input-edge order, so the offsets are
// exact), which makes the per-instance translation pure arithmetic:
// Context::block_view. kSequential keeps the legacy one-Network-per-
// instance execution; the two modes are bit-identical in composite rounds,
// messages, parent congestion, and per-instance rounds/finished/arc_sends
// (the differential tests hold them to that). Edge-disjointness is
// verified, not assumed.
//
// Costs combine the same way in both modes: rounds = max over instances
// (they run concurrently), messages = sum, and per-parent-edge congestion
// is folded back through the subgraphs' parent_edge maps.
//
// kInterleaved caveats (documented asymmetries, not accounting bugs):
//  * per_instance[i].messages and arc_sends are sliced out of the union
//    run's per-arc counts.
//  * per_instance[i].undelivered is 0 — in-flight sends of the union run's
//    final round are not split per instance.
//  * a telemetry recorder sees ONE span for the whole composite instead of
//    one span per instance.
//  * per_instance[i].fault_dropped / fault_corrupted are 0 — fault
//    accounting of the union run is reported only as composite totals
//    (CompositeResult::fault_dropped / fault_corrupted, which both modes
//    fill identically).
//
// Faults: a composite run injects faults per instance, never globally —
// EdgeDisjointInstance::faults carries a plan whose ids are LOCAL to that
// instance's subgraph (node/arc/edge ids of `part->graph`). Setting
// RunOptions::faults on the composite throws: union-graph ids are an
// internal layout, and a global plan could not be replayed by the
// sequential baseline. The interleaved mode translates each local plan
// into the union's id space (node += node_base[i], arc += arc_base[i],
// edge += edge_base[i]); block-diagonal disjointness makes a fault in one
// block invisible to every other, so the two modes stay bit-identical
// under faults too.

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "congest/network.hpp"
#include "graph/graph.hpp"

namespace fc::congest {

struct CompositeResult {
  std::uint64_t rounds = 0;    // max over instances
  std::uint64_t messages = 0;  // sum over instances
  bool finished = false;       // all instances finished
  std::vector<RunResult> per_instance;
  /// Fault totals summed over instances (see the header note: interleaved
  /// mode reports them only here, not per instance).
  std::uint64_t fault_dropped = 0;
  std::uint64_t fault_corrupted = 0;
  /// Congestion per PARENT edge (messages in both directions).
  std::vector<std::uint64_t> parent_edge_congestion;

  std::uint64_t max_parent_edge_congestion() const;
};

/// One unit of concurrent work: an algorithm bound to a subgraph of the
/// parent. The Subgraph must outlive the call.
struct EdgeDisjointInstance {
  const Subgraph* part = nullptr;
  Algorithm* algorithm = nullptr;
  /// Optional fault plan for THIS instance; ids are local to part->graph.
  const FaultPlan* faults = nullptr;
};

/// How run_edge_disjoint executes its instances.
enum class CompositeMode : std::uint8_t {
  /// One engine run on the block-diagonal union graph. The default: k
  /// instances pay one round loop.
  kInterleaved,
  /// Legacy: each instance on its own Network, one after another. Kept
  /// selectable as the differential baseline for the interleaved mode.
  kSequential,
};

/// Run all instances as one concurrent execution. Throws std::logic_error
/// if two instances claim the same parent edge, or if opts.faults is set
/// (faults are per instance: EdgeDisjointInstance::faults).
CompositeResult run_edge_disjoint(const Graph& parent,
                                  std::span<const EdgeDisjointInstance> work,
                                  const RunOptions& opts = {},
                                  CompositeMode mode =
                                      CompositeMode::kInterleaved);

}  // namespace fc::congest
