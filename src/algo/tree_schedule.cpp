#include "algo/tree_schedule.hpp"

#include <algorithm>
#include <stdexcept>

namespace fc::algo {

TreeSchedule::TreeSchedule(const Graph& g, std::vector<TreeJob> jobs)
    : jobs_(std::move(jobs)),
      rooted_(g.node_count()),
      fifo_(g.arc_count()),
      last_event_(g.node_count(), 0) {
  const NodeId n = g.node_count();
  std::uint64_t pending = 0;
  for (std::uint32_t j = 0; j < jobs_.size(); ++j) {
    const TreeJob& job = jobs_[j];
    if (!job.tree || job.tree->covered != n)
      throw std::invalid_argument(
          "tree-schedule: job tree must span the graph");
    dilation_ = std::max(dilation_, job.tree->depth);
    max_packets_ = std::max(max_packets_, job.packets);
    if (job.packets == 0) continue;
    rooted_[job.tree->root].push_back(j);
    // One injection at the root plus one arrival at every other node.
    pending += std::uint64_t{job.packets} * n;
  }
  arrived_.assign(static_cast<std::size_t>(n) * max_packets_, 0);
  altered_.assign(arrived_.size(), 0);
  pending_.store(pending, std::memory_order_relaxed);
}

void TreeSchedule::tick(congest::Context& ctx) {
  const NodeId v = ctx.id();
  const std::uint64_t r = ctx.round();
  std::uint64_t events = 0;

  const auto push = [&](NodeId at, std::uint32_t job, Packet p) {
    for (const ArcId c : jobs_[job].tree->child_arcs[at])
      fifo_[c].items.push_back(p);
  };
  for (const auto& in : ctx.inbox()) {
    const Packet p{static_cast<std::uint32_t>(in.msg.b), in.msg.tag,
                   in.msg.a};
    ++arrived_[slot(v, p.seq)];
    if (p.word != packet_word(p.seq)) ++altered_[slot(v, p.seq)];
    ++events;
    push(v, p.job, p);
  }

  bool busy = false;  // a backlog or a future injection: wake next round
  for (const std::uint32_t j : rooted_[v]) {
    const TreeJob& job = jobs_[j];
    const std::uint64_t end = job.start_delay + job.packets;
    if (r >= job.start_delay && r < end) {
      const auto seq = static_cast<std::uint32_t>(r - job.start_delay);
      push(v, j, {j, seq, packet_word(seq)});
      last_event_[v] = r + 1;
      ++events;
    }
    busy |= r + 1 < end;
  }

  for (ArcId a = ctx.arc_begin(); a < ctx.arc_end(); ++a) {
    Fifo& q = fifo_[a];
    if (q.head == q.items.size()) continue;
    const Packet p = q.items[q.head++];
    ctx.send(a, {p.seq, p.word, p.job});
    last_event_[v] = r + 1;
    if (q.head == q.items.size()) {
      q.items.clear();
      q.head = 0;
    } else {
      busy = true;
    }
  }

  if (busy) ctx.request_wakeup();
  if (events != 0) pending_.fetch_sub(events, std::memory_order_relaxed);
}

std::uint64_t TreeSchedule::makespan() const {
  return last_event_.empty()
             ? 0
             : *std::max_element(last_event_.begin(), last_event_.end());
}

ScheduleResult schedule_tree_broadcasts(const Graph& g,
                                        std::vector<TreeJob> jobs,
                                        std::uint64_t max_rounds) {
  TreeSchedule alg(g, std::move(jobs));
  congest::Network net(g);
  congest::RunOptions ro;
  ro.max_rounds = max_rounds;
  const congest::RunResult res = net.run(alg, ro);
  if (!res.finished)
    throw std::runtime_error("tree-schedule: exceeded max_rounds");
  return {alg.makespan(), congest::max_arc_congestion(res.arc_sends),
          alg.dilation(), res.messages};
}

void randomize_delays(std::vector<TreeJob>& jobs, std::uint64_t max_delay,
                      Rng& rng) {
  for (auto& j : jobs) j.start_delay = rng.below(max_delay + 1);
}

}  // namespace fc::algo
