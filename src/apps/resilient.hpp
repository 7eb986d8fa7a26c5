#pragma once
// f-mobile-resilient broadcast over a low-congestion tree packing — the
// paper's application to secure distributed computing (§1.2, Fischer–Parter
// PODC'23).
//
// FP23 show that given a packing of ~λ spanning trees with polylog
// congestion and diameter d, any CONGEST algorithm can be compiled to
// tolerate an adversary that corrupts a different set of f edges in every
// round, with Õ(d) overhead. The core mechanism is replication: send every
// message over every tree and decode by majority. Theorem 2 supplies
// exactly the packing FP23 need, with d = O((n log n)/δ).
//
// This module implements the broadcast instance of that compiler:
//  * the root pipelines k messages down each of the T packing trees
//    (tree t starts after an offset so shared edges never contend — the
//    Theorem 12 scheduling view);
//  * a MOBILE adversary corrupts up to f (edge, round) pairs per round,
//    flipping any payload crossing them that round;
//  * every node decodes each message id by majority across the T copies.
//
// One drive, one run: the T trees are the jobs of one algo::TreeSchedule
// engine run (tree t starts at round t * window), and the adversary's
// schedule is lowered onto one congest::FaultPlan on the run's global
// rounds (one kEdgeCorrupt fault per scheduled (edge, round) pair). A copy
// counts as corrupted when the payload that ARRIVES differs from the one
// sent. (Caveat: a copy hit j > 0 times arrives at corrupt_word^j(x), which
// equals x only on a permutation cycle of length dividing j — astronomically
// unlikely and deterministic.) tests/test_dynamic.cpp replays the same
// schedule in closed form and pins the engine run against it.
//
// With T trees, a run decodes correctly as long as no (node, message) pair
// has >= T/2 of its tree paths hit; the experiment (bench_resilient)
// measures the failure rate as f grows for random, tree-targeted, and
// greedy cut-focused adversaries.

#include <cstdint>
#include <vector>

#include "core/tree_packing.hpp"
#include "util/rng.hpp"

namespace fc::apps {

enum class AdversaryKind {
  kNone,        // sanity baseline
  kRandom,      // f uniformly random edges per round
  kTreeFocused, // f edges of one fixed packing tree per round
  kCutFocused,  // f edges of a fixed small cut per round
};

struct ResilientOptions {
  AdversaryKind adversary = AdversaryKind::kRandom;
  std::uint32_t f = 0;         // corrupted edges per round
  std::uint64_t seed = 1;
  /// For kCutFocused: one side of the attacked cut (empty = first half).
  std::vector<bool> attacked_cut;
};

struct ResilientReport {
  std::uint32_t trees = 0;
  std::uint64_t k = 0;
  std::uint64_t rounds = 0;           // schedule length (trees serialized
                                      // per shared-edge constraints)
  std::uint64_t corrupted_copies = 0; // (node, message, tree) hits
  std::uint64_t decode_failures = 0;  // (node, message) majority failures
  double failure_rate = 0;            // failures / (n * k)

  bool all_decoded() const { return decode_failures == 0; }
};

/// The adversary's per-round corruption sets for a schedule of `rounds`
/// rounds: a pure function of (g, packing, opts), at most f edges a round.
std::vector<std::vector<EdgeId>> corruption_schedule(
    const Graph& g, const core::TreePacking& packing, std::uint64_t rounds,
    const ResilientOptions& opts);

/// Broadcast k root-held messages over every tree of the packing under the
/// configured mobile adversary and majority-decode. All trees must span and
/// share the packing root.
ResilientReport resilient_broadcast(const Graph& g,
                                    const core::TreePacking& packing,
                                    std::uint64_t k,
                                    const ResilientOptions& opts = {});

}  // namespace fc::apps
