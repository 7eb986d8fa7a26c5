#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <utility>

namespace perfbench {

namespace {

// Distinct streams per purpose, so adding draws to one never shifts another.
constexpr std::uint64_t kRootsTag = 0x524f4f5453ULL;
constexpr std::uint64_t kWarmTag = 0x5741524dULL;
constexpr std::uint64_t kChurnTag = 0x434855524eULL;
constexpr std::uint64_t kPlaceTag = 0x504c414345ULL;

/// The query mix, bfs:sssp:mst = 4:4:1, dealt in blocks of nine whose order
/// is shuffled per block: every run gets the exact mix, in seeded order.
class AlgoDeck {
 public:
  const char* next(SplitMix64& rng) {
    if (pos_ == kBlock.size()) {
      block_ = kBlock;
      for (std::size_t i = block_.size() - 1; i > 0; --i)
        std::swap(block_[i], block_[rng.below(i + 1)]);
      pos_ = 0;
    }
    return block_[pos_++];
  }

 private:
  static constexpr std::array<const char*, 9> kBlock = {
      "bfs", "bfs", "bfs", "bfs", "sssp", "sssp", "sssp", "sssp", "mst"};
  std::array<const char*, 9> block_{};
  std::size_t pos_ = kBlock.size();
};

RequestLine query_line(std::uint64_t id, std::size_t target_index,
                       const Target& target, AlgoDeck& deck,
                       SplitMix64& rng) {
  RequestLine line;
  line.kind = LineKind::kQuery;
  line.id = id;
  line.target = target_index;
  line.algo = deck.next(rng);
  line.root = target.roots[rng.below(target.roots.size())];
  line.text = "{\"id\": " + std::to_string(id) + ", \"spec\": \"" +
              target.spec + "\", \"algo\": \"" + line.algo +
              "\", \"root\": " + std::to_string(line.root) +
              ", \"payload\": true}";
  return line;
}

}  // namespace

std::vector<std::string> churn_specs() {
  std::vector<std::string> specs;
  for (int s = 11; s <= 16; ++s)
    specs.push_back("rmat:n=4096,deg=8,seed=" + std::to_string(s) +
                    ",weights=1..100");
  specs.push_back("rmat:n=4096,deg=8,seed=17,weights=1..100,churn=0.01");
  return specs;
}

std::vector<fc::NodeId> largest_component(const fc::Graph& g) {
  const fc::NodeId n = g.node_count();
  std::vector<std::int32_t> comp(n, -1);
  std::vector<fc::NodeId> best;
  std::int32_t next = 0;
  for (fc::NodeId s = 0; s < n; ++s) {
    if (comp[s] >= 0) continue;
    std::vector<fc::NodeId> members{s};
    comp[s] = next;
    for (std::size_t i = 0; i < members.size(); ++i)
      for (const fc::NodeId w : g.neighbors(members[i]))
        if (comp[w] < 0) {
          comp[w] = next;
          members.push_back(w);
        }
    ++next;
    if (members.size() > best.size()) best = std::move(members);
  }
  std::sort(best.begin(), best.end());
  return best;
}

Target make_target(const std::string& spec,
                   const std::vector<fc::NodeId>& candidates,
                   std::uint64_t seed, std::size_t size) {
  // A systematic sample with a seeded start: evenly spaced over the sorted
  // candidates, so every seed's pool spans the same range of node ids (and
  // with them, of degrees) and per-seed pools cost about the same.
  SplitMix64 rng(seed ^ kRootsTag);
  Target t;
  t.spec = spec;
  const double step =
      static_cast<double>(candidates.size()) / static_cast<double>(size);
  const double start = step * static_cast<double>(rng.below(1 << 20)) /
                       static_cast<double>(1 << 20);
  for (std::size_t i = 0; i < size; ++i)
    t.roots.push_back(candidates[static_cast<std::size_t>(
                                     start + step * static_cast<double>(i)) %
                                 candidates.size()]);
  return t;
}

std::vector<RequestLine> serve_warm_stream(std::uint64_t seed,
                                           const Target& target,
                                           std::size_t count) {
  SplitMix64 rng(seed ^ kWarmTag);
  AlgoDeck deck;
  std::vector<RequestLine> lines;
  lines.reserve(count);
  for (std::size_t i = 0; i < count; ++i)
    lines.push_back(query_line(i + 1, 0, target, deck, rng));
  return lines;
}

std::vector<RequestLine> serve_churn_stream(
    std::uint64_t seed, const std::vector<Target>& targets,
    std::size_t dynamic_index, std::size_t count) {
  SplitMix64 rng(seed ^ kChurnTag);
  AlgoDeck deck;
  std::vector<RequestLine> lines;
  lines.reserve(count);
  std::size_t queries = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t id = i + 1;
    if (i % 4 == 3) {
      RequestLine line;
      line.kind = LineKind::kUpdate;
      line.id = id;
      line.target = dynamic_index;
      line.text = "{\"id\": " + std::to_string(id) +
                  ", \"cmd\": \"update\", \"spec\": \"" +
                  targets[dynamic_index].spec + "\", \"batches\": 1}";
      lines.push_back(std::move(line));
      continue;
    }
    const std::size_t t = queries++ % targets.size();
    lines.push_back(query_line(id, t, targets[t], deck, rng));
  }
  return lines;
}

std::vector<fc::algo::PlacedMessage> broadcast_placements(std::uint64_t seed,
                                                          fc::NodeId n,
                                                          std::uint64_t k) {
  SplitMix64 rng(seed ^ kPlaceTag);
  std::vector<fc::algo::PlacedMessage> msgs;
  msgs.reserve(k);
  for (std::uint64_t i = 0; i < k; ++i) {
    const auto origin = static_cast<fc::NodeId>(rng.below(n));
    msgs.push_back({origin, i, rng.next()});
  }
  return msgs;
}

}  // namespace perfbench
