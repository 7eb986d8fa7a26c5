// Experiment E10 (Theorem 12, Ghaffari PODC'15): co-scheduling many tree
// broadcasts that SHARE edges. The makespan of the store-and-forward
// execution is compared to the congestion + dilation lower bound; random
// start delays keep it near O(congestion + dilation log^2 n). Congestion is
// per arc direction (the model's one-packet-per-arc-per-round rule), so
// makespan >= max(C, d) must hold on every row; the run exits 1 if any row
// violates it.

#include "bench_common.hpp"

#include <cmath>

#include "algo/tree_schedule.hpp"
#include "graph/partition.hpp"

namespace fc::bench {
namespace {

/// 1 (and a report on stderr) when the row's makespan undercuts the lower
/// bound max(C, d) — impossible in the model, so any violation fails the
/// run.
int lower_bound_violated(const std::string& row,
                         const algo::ScheduleResult& res) {
  if (res.makespan >= std::max(res.congestion, res.dilation)) return 0;
  std::cerr << "bench_scheduler: " << row << ": makespan " << res.makespan
            << " < max(C, d) = " << std::max(res.congestion, res.dilation)
            << "\n";
  return 1;
}

int experiment_e10() {
  int violations = 0;
  banner("E10 / Theorem 12",
         "J jobs of p packets each down BFS trees with shared edges: "
         "makespan vs lower bound max(congestion, dilation) and the "
         "C + d log^2 n envelope.");
  Rng rng(81);
  const NodeId n = 256;
  const std::uint32_t d = 16;
  const Graph g = gen::random_regular(n, d, rng);

  Table table({"jobs", "packets", "congestion C", "dilation d",
               "makespan (no delay)", "makespan (rand delay)", "LB max(C,d)",
               "C + d*log2^2 n"});
  for (std::uint32_t jobs : {2u, 4u, 8u, 16u}) {
    const std::uint32_t packets = 32;
    std::vector<algo::SpanningTree> trees;
    trees.reserve(jobs);
    for (std::uint32_t j = 0; j < jobs; ++j)
      trees.push_back(
          algo::run_bfs(g, static_cast<NodeId>(rng.below(n))).tree);

    std::vector<algo::TreeJob> naive, delayed;
    for (std::uint32_t j = 0; j < jobs; ++j) {
      naive.push_back({&trees[j], packets, 0});
      delayed.push_back({&trees[j], packets, 0});
    }
    const auto res_naive = algo::schedule_tree_broadcasts(g, naive);
    algo::randomize_delays(delayed, res_naive.congestion / 2 + 1, rng);
    const auto res_delay = algo::schedule_tree_broadcasts(g, delayed);
    const std::string row = std::to_string(jobs) + " jobs";
    violations += lower_bound_violated(row + ", no delay", res_naive);
    violations += lower_bound_violated(row + ", rand delay", res_delay);

    const double log2n = std::log2(static_cast<double>(n));
    table.add_row(
        {Table::num(std::size_t{jobs}), Table::num(std::size_t{packets}),
         Table::num(std::size_t{res_naive.congestion}),
         Table::num(std::size_t{res_naive.dilation}),
         Table::num(std::size_t{res_naive.makespan}),
         Table::num(std::size_t{res_delay.makespan}),
         Table::num(std::max(res_naive.congestion, res_naive.dilation)),
         Table::num(res_naive.congestion +
                        res_naive.dilation * log2n * log2n,
                    0)});
  }
  table.print(std::cout);
  return violations;
}

int experiment_e10_disjoint_vs_shared() {
  int violations = 0;
  banner("E10b / edge-disjoint vs shared trees",
         "the Theorem 1 regime (edge-disjoint trees) schedules with ZERO "
         "interference: makespan equals one job's pipeline, while the same "
         "jobs on a single shared tree serialize.");
  Rng rng(83);
  const Graph g = gen::random_regular(128, 32, rng);
  // Edge-disjoint trees from the Theorem 2 partition.
  const auto partition = random_edge_partition(g, 4, 7);
  std::vector<algo::SpanningTree> trees;
  std::vector<bool> ok;
  for (const auto& part : partition.parts) {
    auto t = algo::run_bfs(part.graph, 0).tree;
    ok.push_back(t.covered == g.node_count());
    trees.push_back(std::move(t));
  }
  // Lift is unnecessary here: each job runs on its own part's arcs; for the
  // shared-tree comparison we use one global BFS tree for all jobs.
  const auto shared = algo::run_bfs(g, 0).tree;
  const std::uint32_t packets = 64;

  std::vector<algo::TreeJob> shared_jobs(4,
                                         algo::TreeJob{&shared, packets, 0});
  const auto res_shared = algo::schedule_tree_broadcasts(g, shared_jobs);
  violations += lower_bound_violated("4 jobs, one shared tree", res_shared);

  // Disjoint case: each job alone on its own part.
  std::uint64_t disjoint_makespan = 0;
  for (std::size_t i = 0; i < trees.size(); ++i) {
    if (!ok[i]) continue;
    std::vector<algo::TreeJob> solo{{&trees[i], packets, 0}};
    const auto r = algo::schedule_tree_broadcasts(partition.parts[i].graph,
                                                  solo);
    violations +=
        lower_bound_violated("edge-disjoint part " + std::to_string(i), r);
    disjoint_makespan = std::max(disjoint_makespan, r.makespan);
  }
  Table table({"configuration", "makespan"});
  table.add_row({"4 jobs, one shared tree",
                 Table::num(std::size_t{res_shared.makespan})});
  table.add_row({"4 jobs, edge-disjoint trees (Thm 2)",
                 Table::num(std::size_t{disjoint_makespan})});
  table.print(std::cout);
  return violations;
}

// --graph=<spec> override: Theorem 12 co-scheduling on caller-chosen
// scenarios; --jobs=<J> (default 8) BFS-tree jobs of --packets=<p>
// (default 32) packets each.
int experiment_specs(const std::vector<NamedGraph>& graphs,
                     const Options& opts) {
  int violations = 0;
  const auto jobs = static_cast<std::uint32_t>(opts.get_int("jobs", 8));
  const auto packets = static_cast<std::uint32_t>(opts.get_int("packets", 32));
  banner("E10 on custom scenarios",
         "co-scheduled tree broadcasts on --graph=<spec> workloads: "
         "makespan vs max(C, d) and the C + d log^2 n envelope.");
  Table table({"graph", "n", "congestion C", "dilation d",
               "makespan (no delay)", "makespan (rand delay)", "LB max(C,d)",
               "C + d*log2^2 n"});
  Rng rng(81);
  for (const auto& [name, g] : graphs) {
    if (!is_connected(g)) {
      std::cout << "skipping " << name
                << ": tree jobs need a connected graph\n";
      continue;
    }
    std::vector<algo::SpanningTree> trees;
    trees.reserve(jobs);
    for (std::uint32_t j = 0; j < jobs; ++j)
      trees.push_back(
          algo::run_bfs(g, static_cast<NodeId>(rng.below(g.node_count())))
              .tree);
    std::vector<algo::TreeJob> naive, delayed;
    for (std::uint32_t j = 0; j < jobs; ++j) {
      naive.push_back({&trees[j], packets, 0});
      delayed.push_back({&trees[j], packets, 0});
    }
    const auto res_naive = algo::schedule_tree_broadcasts(g, naive);
    algo::randomize_delays(delayed, res_naive.congestion / 2 + 1, rng);
    const auto res_delay = algo::schedule_tree_broadcasts(g, delayed);
    violations += lower_bound_violated(name + ", no delay", res_naive);
    violations += lower_bound_violated(name + ", rand delay", res_delay);
    const double log2n = std::log2(static_cast<double>(g.node_count()));
    table.add_row(
        {name, Table::num(std::size_t{g.node_count()}),
         Table::num(std::size_t{res_naive.congestion}),
         Table::num(std::size_t{res_naive.dilation}),
         Table::num(std::size_t{res_naive.makespan}),
         Table::num(std::size_t{res_delay.makespan}),
         Table::num(std::max(res_naive.congestion, res_naive.dilation)),
         Table::num(res_naive.congestion +
                        res_naive.dilation * log2n * log2n,
                    0)});
  }
  table.print(std::cout);
  return violations;
}

}  // namespace
}  // namespace fc::bench

int main(int argc, char** argv) {
  int violations = 0;
  if (const auto rc = fc::bench::spec_mode(
          "bench_scheduler", argc, argv, [&](const auto& graphs) {
            violations =
                fc::bench::experiment_specs(graphs, fc::Options(argc, argv));
          }))
    return *rc != 0 ? *rc : violations != 0;
  violations += fc::bench::experiment_e10();
  violations += fc::bench::experiment_e10_disjoint_vs_shared();
  return violations != 0;
}
