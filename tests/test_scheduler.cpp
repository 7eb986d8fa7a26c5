#include "algo/tree_schedule.hpp"

#include <gtest/gtest.h>

#include <cstddef>

#include "apps/resilient.hpp"
#include "congest/faults.hpp"
#include "graph/generators.hpp"
#include "graph/partition.hpp"
#include "util/thread_pool.hpp"

namespace fc::algo {
namespace {

SpanningTree tree_of(const Graph& g, NodeId root) {
  return run_bfs(g, root).tree;
}

TEST(Scheduler, SingleJobIsPipelined) {
  const Graph g = gen::path(10);
  const auto t = tree_of(g, 0);
  std::vector<TreeJob> jobs{{&t, 20, 0}};
  const auto res = schedule_tree_broadcasts(g, jobs);
  // Broadcast of k packets down a depth-d path: the last packet (injected
  // at round k-1) crosses the last edge at round k-1 + d-1, so the makespan
  // is d + k - 1.
  EXPECT_EQ(res.makespan, 9u + 20u - 1u);
  EXPECT_EQ(res.dilation, 9u);
  EXPECT_EQ(res.congestion, 20u);
}

TEST(Scheduler, DelayShiftsMakespan) {
  const Graph g = gen::path(6);
  const auto t = tree_of(g, 0);
  std::vector<TreeJob> jobs{{&t, 5, 7}};
  const auto res = schedule_tree_broadcasts(g, jobs);
  EXPECT_EQ(res.makespan, 7u + 5u + 5u - 1u);  // delay + depth + k - 1
}

TEST(Scheduler, TwoJobsOnSameTreeContend) {
  const Graph g = gen::path(8);
  const auto t = tree_of(g, 0);
  std::vector<TreeJob> jobs{{&t, 10, 0}, {&t, 10, 0}};
  const auto res = schedule_tree_broadcasts(g, jobs);
  // Both jobs share every edge: congestion 20 dominates.
  EXPECT_EQ(res.congestion, 20u);
  EXPECT_GE(res.makespan, 20u);                 // >= congestion
  EXPECT_LE(res.makespan, 20u + 7u + 2u);       // FIFO keeps it near C + d
}

TEST(Scheduler, EdgeDisjointJobsRunInParallel) {
  // Two trees over disjoint edge sets of a cycle: no contention at all, so
  // the makespan is the max of the individual pipelines.
  const Graph g = gen::cycle(8);
  // Tree A: edges 0..6 (path around one way from node 0); build from the
  // subgraph and lift by hand via BFS on the full graph restricted... easier:
  // two paths that share only nodes.
  const auto t = tree_of(g, 0);
  std::vector<TreeJob> solo{{&t, 15, 0}};
  const auto alone = schedule_tree_broadcasts(g, solo);

  std::vector<TreeJob> both{{&t, 15, 0}, {&t, 15, alone.makespan}};
  const auto serial = schedule_tree_broadcasts(g, both);
  // Sequential composition: second job starts after the first finished, so
  // makespan is about twice the solo makespan.
  EXPECT_GE(serial.makespan, 2 * alone.makespan - 2);
}

TEST(Scheduler, CongestionPlusDilationIsLowerBound) {
  Rng rng(5);
  const Graph g = gen::circulant(30, 3);
  const auto t0 = tree_of(g, 0);
  const auto t1 = tree_of(g, 10);
  const auto t2 = tree_of(g, 20);
  std::vector<TreeJob> jobs{{&t0, 12, 0}, {&t1, 12, 0}, {&t2, 12, 0}};
  const auto res = schedule_tree_broadcasts(g, jobs);
  // makespan >= max(dilation, per-job k) and >= congestion / 1.
  EXPECT_GE(res.makespan, res.dilation);
  EXPECT_GE(res.makespan, 12u);
  // Theorem 12 regime: near C + d log^2 n; sanity: within a generous factor.
  EXPECT_LE(res.makespan, res.congestion + 20 * (res.dilation + 1));
}

TEST(Scheduler, RandomDelaysAreBounded) {
  const Graph g = gen::cycle(6);
  const auto t = tree_of(g, 0);
  std::vector<TreeJob> jobs(10, TreeJob{&t, 3, 0});
  Rng rng(6);
  randomize_delays(jobs, 17, rng);
  for (const auto& j : jobs) EXPECT_LE(j.start_delay, 17u);
}

TEST(Scheduler, TotalHopsMatchTreeSizes) {
  const Graph g = gen::path(5);
  const auto t = tree_of(g, 0);
  std::vector<TreeJob> jobs{{&t, 4, 0}};
  const auto res = schedule_tree_broadcasts(g, jobs);
  // Each of the 4 packets crosses each of the 4 tree edges once.
  EXPECT_EQ(res.total_packet_hops, 16u);
}

TEST(Scheduler, RejectsNonSpanningTree) {
  const Graph g = Graph::from_edges(4, {{0, 1}, {2, 3}});
  const auto t = tree_of(g, 0);
  std::vector<TreeJob> jobs{{&t, 1, 0}};
  EXPECT_THROW(schedule_tree_broadcasts(g, jobs), std::invalid_argument);
}

TEST(Scheduler, RoundCapThrows) {
  const Graph g = gen::path(6);
  const auto t = tree_of(g, 0);
  std::vector<TreeJob> jobs{{&t, 5, 0}};
  // Makespan 9: the run needs one more round to deliver the last packet.
  EXPECT_THROW(schedule_tree_broadcasts(g, jobs, 9), std::runtime_error);
  EXPECT_EQ(schedule_tree_broadcasts(g, jobs, 10).makespan, 9u);
}

// ------------------------------------------- experiment E10 golden values --

/// One row of bench_scheduler's E10 grid.
struct E10Row {
  std::uint32_t jobs;
  ScheduleResult naive, delayed;
};

/// bench_scheduler's E10 grid, rebuilt draw for draw: J in {2, 4, 8, 16}
/// BFS-tree jobs of 32 packets on random_regular(256, 16), no delay and
/// random delays in [0, C/2 + 1].
std::vector<E10Row> e10_grid() {
  Rng rng(81);
  const NodeId n = 256;
  const Graph g = gen::random_regular(n, 16, rng);
  std::vector<E10Row> rows;
  for (const std::uint32_t jobs : {2u, 4u, 8u, 16u}) {
    std::vector<SpanningTree> trees;
    trees.reserve(jobs);
    for (std::uint32_t j = 0; j < jobs; ++j)
      trees.push_back(tree_of(g, static_cast<NodeId>(rng.below(n))));
    std::vector<TreeJob> naive, delayed;
    for (std::uint32_t j = 0; j < jobs; ++j) {
      naive.push_back({&trees[j], 32, 0});
      delayed.push_back({&trees[j], 32, 0});
    }
    E10Row row{jobs, schedule_tree_broadcasts(g, naive), {}};
    randomize_delays(delayed, row.naive.congestion / 2 + 1, rng);
    row.delayed = schedule_tree_broadcasts(g, delayed);
    rows.push_back(row);
  }
  return rows;
}

TEST(SchedulerGolden, E10MakespansMatchPinnedValues) {
  // No-delay makespans are independent of how congestion is counted (it
  // only feeds the delay range), so they are pinned from the previous
  // dedicated round loop, whose FIFO enqueued in active-arc order: the
  // engine's inbox-then-injections tie rule reproduces them exactly.
  // Congestion is per arc direction; the delayed makespans follow from
  // delays drawn in [0, C/2 + 1].
  const auto rows = e10_grid();
  ASSERT_EQ(rows.size(), 4u);
  const std::uint64_t naive[] = {66, 130, 194, 321};
  const std::uint64_t congestion[] = {64, 128, 192, 320};
  const std::uint64_t delayed[] = {80, 145, 216, 329};
  for (std::size_t i = 0; i < rows.size(); ++i) {
    SCOPED_TRACE(::testing::Message() << rows[i].jobs << " jobs");
    EXPECT_EQ(rows[i].naive.makespan, naive[i]);
    EXPECT_EQ(rows[i].naive.congestion, congestion[i]);
    EXPECT_EQ(rows[i].naive.dilation, 3u);
    EXPECT_EQ(rows[i].naive.total_packet_hops,
              std::uint64_t{rows[i].jobs} * 32 * 255);
    EXPECT_EQ(rows[i].delayed.makespan, delayed[i]);
  }
}

TEST(SchedulerGolden, E10MakespanIsAtLeastCongestionAndDilation) {
  // One packet per arc direction per round: the busiest arc alone needs C
  // rounds, and the deepest leaf d. Summing both directions of an edge is
  // NOT a lower bound (the 8- and 16-job rows undercut it).
  for (const auto& row : e10_grid()) {
    SCOPED_TRACE(::testing::Message() << row.jobs << " jobs");
    for (const ScheduleResult& res : {row.naive, row.delayed}) {
      EXPECT_GE(res.makespan, res.congestion);
      EXPECT_GE(res.makespan, res.dilation);
    }
  }
}

TEST(SchedulerGolden, E10bMakespansMatchPinnedValues) {
  // bench_scheduler's E10b: 4 jobs of 64 packets on one shared BFS tree
  // serialize (257), while each edge-disjoint part's own tree runs at one
  // pipeline's makespan (67).
  Rng rng(83);
  const Graph g = gen::random_regular(128, 32, rng);
  const auto partition = random_edge_partition(g, 4, 7);
  const auto shared = tree_of(g, 0);
  std::vector<TreeJob> shared_jobs(4, TreeJob{&shared, 64, 0});
  EXPECT_EQ(schedule_tree_broadcasts(g, shared_jobs).makespan, 257u);

  std::uint64_t disjoint = 0;
  for (const auto& part : partition.parts) {
    const auto t = tree_of(part.graph, 0);
    if (t.covered != g.node_count()) continue;
    std::vector<TreeJob> solo{{&t, 64, 0}};
    disjoint = std::max(disjoint,
                        schedule_tree_broadcasts(part.graph, solo).makespan);
  }
  EXPECT_EQ(disjoint, 67u);
}

TEST(SchedulerGolden, E13ReportsMatchPinnedValues) {
  // bench_resilient's E13 grid (n = 128, lambda = 32, 12 trees, k = 32,
  // seed 7): (corrupted copies, decode failures) per row.
  Rng rng(91);
  const Graph g = gen::random_regular(128, 32, rng);
  core::DecompositionOptions dopts;
  dopts.C = 1.5;
  const auto packing = core::build_low_congestion_packing(g, 32, 9, dopts);
  ASSERT_EQ(packing.tree_count(), 12u);
  using apps::AdversaryKind;
  struct Pin {
    AdversaryKind kind;
    std::uint32_t f;
    std::uint64_t corrupted, failures;
  };
  for (const Pin& pin : {Pin{AdversaryKind::kRandom, 1, 36, 0},
                         Pin{AdversaryKind::kRandom, 256, 14161, 418},
                         Pin{AdversaryKind::kTreeFocused, 64, 6807, 15},
                         Pin{AdversaryKind::kCutFocused, 8, 526, 0},
                         Pin{AdversaryKind::kCutFocused, 256, 13704, 432}}) {
    SCOPED_TRACE(::testing::Message() << "kind=" << static_cast<int>(pin.kind)
                                      << " f=" << pin.f);
    apps::ResilientOptions opts;
    opts.adversary = pin.kind;
    opts.f = pin.f;
    opts.seed = 7;
    const auto report = apps::resilient_broadcast(g, packing, 32, opts);
    EXPECT_EQ(report.corrupted_copies, pin.corrupted);
    EXPECT_EQ(report.decode_failures, pin.failures);
  }
}

// ------------------------------------------------------ engine contract --

/// Node u's outgoing arc to v.
ArcId arc_to(const Graph& g, NodeId u, NodeId v) {
  for (ArcId a = g.arc_begin(u); a < g.arc_end(u); ++a)
    if (g.arc_head(a) == v) return a;
  return kInvalidArc;
}

/// The seqs whose copy reached v altered when only edge {u, v} is corrupted,
/// in `round` only: which packet crossed that edge in that round.
std::vector<std::uint32_t> hit_seqs(const Graph& g,
                                    const std::vector<TreeJob>& jobs,
                                    NodeId u, NodeId v, std::uint64_t round) {
  congest::FaultPlan plan;
  plan.corrupt_edge(round, g.arc_edge(arc_to(g, u, v)));
  congest::RunOptions opts;
  opts.faults = &plan;
  TreeSchedule alg(g, jobs);
  congest::Network net(g);
  EXPECT_TRUE(net.run(alg, opts).finished);
  std::vector<std::uint32_t> seqs;
  for (std::uint32_t s = 0; s < 2; ++s)
    if (alg.altered(v, s) != 0) seqs.push_back(s);
  return seqs;
}

TEST(TreeScheduleEngine, TieRuleInboxInArcOrderBeforeInjections) {
  // Arrivals join a queue before the node's own injection of that round.
  // Path 0-1-2: job A (root 0) relays packet 1 through node 1 in round 2,
  // when node 1 injects job B's packet 0; edge {1,2} is corrupted in
  // round 2 only, so whichever crossed first shows up altered at node 2.
  {
    const Graph g = gen::path(3);
    const auto a = tree_of(g, 0);
    const auto b = tree_of(g, 1);
    const std::vector<TreeJob> jobs{{&a, 2, 0}, {&b, 1, 2}};
    EXPECT_EQ(hit_seqs(g, jobs, 1, 2, 2), std::vector<std::uint32_t>{1});
  }
  // Simultaneous arrivals queue in inbox (arc-id) order. Star centred at
  // node 1: job X (root 0) delivers packet 1 and job Y (root 2) packet 0
  // to node 1 in round 2, both bound for leaf 3.
  {
    const Graph g = Graph::from_edges(4, {{0, 1}, {2, 1}, {1, 3}});
    const auto x = tree_of(g, 0);
    const auto y = tree_of(g, 2);
    const std::vector<TreeJob> jobs{{&x, 2, 0}, {&y, 1, 1}};
    const std::uint32_t first = arc_to(g, 1, 0) < arc_to(g, 1, 2) ? 1 : 0;
    EXPECT_EQ(hit_seqs(g, jobs, 1, 3, 2), std::vector<std::uint32_t>{first});
  }
}

TEST(TreeScheduleEngine, BitIdenticalAcrossPoolsAndSweeps) {
  // Enough nodes to cross the engine's parallel-handler threshold, shared
  // trees (real FIFO backlogs), staggered starts (idle waiting rounds) and
  // a corrupting fault plan: makespan, messages, per-arc sends and every
  // per-(node, seq) count must match the pool-1 sparse run exactly.
  Rng rng(17);
  const Graph g = gen::random_regular(1024, 8, rng);
  std::vector<SpanningTree> trees;
  for (const NodeId root : {0u, 0u, 333u, 700u, 1023u})
    trees.push_back(tree_of(g, root));
  std::vector<TreeJob> jobs;
  for (std::size_t j = 0; j < trees.size(); ++j)
    jobs.push_back({&trees[j], 12, 3 * j});
  congest::FaultPlan plan;
  for (std::uint64_t r = 0; r < 40; ++r)
    plan.corrupt_edge(r, static_cast<EdgeId>((r * 97) % g.edge_count()));

  struct Outcome {
    std::uint64_t makespan = 0;
    congest::RunResult res;
    std::vector<std::uint32_t> counts;  // arrived then altered, per slot
  };
  const auto run = [&](std::size_t threads, bool force_dense) {
    ThreadPool pool(threads);
    congest::RunOptions opts;
    opts.pool = &pool;
    opts.force_dense = force_dense;
    opts.faults = &plan;
    TreeSchedule alg(g, jobs);
    congest::Network net(g);
    Outcome out{0, net.run(alg, opts), {}};
    out.makespan = alg.makespan();
    for (NodeId v = 0; v < g.node_count(); ++v)
      for (std::uint32_t s = 0; s < 12; ++s) {
        out.counts.push_back(alg.arrived(v, s));
        out.counts.push_back(alg.altered(v, s));
      }
    return out;
  };

  const Outcome base = run(1, false);
  ASSERT_TRUE(base.res.finished);
  EXPECT_GT(base.res.fault_corrupted, 0u);
  EXPECT_EQ(base.res.messages, std::uint64_t{5} * 12 * 1023);
  EXPECT_GE(base.makespan, congest::max_arc_congestion(base.res.arc_sends));
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{8}}) {
    for (const bool force_dense : {false, true}) {
      if (threads == 1 && !force_dense) continue;  // the baseline itself
      SCOPED_TRACE(::testing::Message()
                   << "threads=" << threads << " dense=" << force_dense);
      const Outcome got = run(threads, force_dense);
      EXPECT_EQ(got.makespan, base.makespan);
      EXPECT_EQ(got.res.rounds, base.res.rounds);
      EXPECT_EQ(got.res.messages, base.res.messages);
      EXPECT_EQ(got.res.fault_corrupted, base.res.fault_corrupted);
      EXPECT_EQ(got.res.arc_sends, base.res.arc_sends);
      EXPECT_EQ(got.counts, base.counts);
    }
  }
}

}  // namespace
}  // namespace fc::algo
