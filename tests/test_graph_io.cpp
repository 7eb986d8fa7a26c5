#include "scenario/graph_io.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "graph/generators.hpp"
#include "util/rng.hpp"

namespace fc::scenario {
namespace {

namespace fs = std::filesystem;

std::string temp_path(const std::string& name) {
  return (fs::path(::testing::TempDir()) / name).string();
}

/// Full identity: node count, edge list (ids + order), and per-node arc
/// order — everything the CSR layout is made of.
void expect_identical(const Graph& a, const Graph& b) {
  ASSERT_EQ(a.node_count(), b.node_count());
  ASSERT_EQ(a.edge_count(), b.edge_count());
  EXPECT_EQ(a.edge_list(), b.edge_list());
  for (NodeId v = 0; v < a.node_count(); ++v) {
    ASSERT_EQ(a.arc_begin(v), b.arc_begin(v));
    const auto na = a.neighbors(v);
    const auto nb = b.neighbors(v);
    ASSERT_TRUE(std::equal(na.begin(), na.end(), nb.begin(), nb.end()))
        << "arc order differs at node " << v;
  }
  EXPECT_EQ(graph_checksum(a), graph_checksum(b));
}

Graph sample_graph() { return build_graph("rmat:n=256,deg=8,seed=3"); }

/// Write a v1 `.fcg` file by hand, with a valid checksum, for an edge list
/// save_binary could never produce (save_binary only sees valid graphs).
void write_raw_fcg(const std::string& path, std::uint32_t n,
                   const std::vector<std::pair<NodeId, NodeId>>& edges) {
  std::vector<std::uint32_t> words = {0x46434752, 1, n,
                                      static_cast<std::uint32_t>(edges.size())};
  for (const auto& e : edges) words.push_back(e.first);
  for (const auto& e : edges) words.push_back(e.second);
  std::uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (const std::uint32_t w : words) h = mix64(h, w);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(words.data()),
            static_cast<std::streamsize>(words.size() * sizeof(words[0])));
  out.write(reinterpret_cast<const char*>(&h), sizeof h);
}

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// "" when load_binary throws std::runtime_error (the documented type);
/// otherwise what went wrong instead.
std::string load_fails_cleanly(const std::string& path) {
  try {
    load_binary(path);
    return "loaded without error";
  } catch (const std::runtime_error&) {
    return "";
  } catch (const std::exception& err) {
    return std::string("wrong exception type: ") + err.what();
  }
}

TEST(EdgeListIo, RoundTrip) {
  const Graph g = sample_graph();
  const auto path = temp_path("roundtrip.txt");
  save_edge_list(g, path);
  expect_identical(g, load_edge_list(path));
}

TEST(EdgeListIo, CommentsAndErrors) {
  const auto path = temp_path("edgelist.txt");
  {
    std::ofstream out(path);
    out << "# a comment\n3 2\n0 1\n% another\n1 2\n";
  }
  const Graph g = load_edge_list(path);
  EXPECT_EQ(g.node_count(), 3u);
  EXPECT_EQ(g.edge_count(), 2u);

  {
    std::ofstream out(path);
    out << "3 5\n0 1\n";  // header promises more edges than present
  }
  EXPECT_THROW(load_edge_list(path), std::runtime_error);
  {
    std::ofstream out(path);
    out << "3 1\n0 7\n";  // endpoint out of range
  }
  EXPECT_THROW(load_edge_list(path), std::runtime_error);
  EXPECT_THROW(load_edge_list(temp_path("no_such_file.txt")),
               std::runtime_error);
}

TEST(BinaryIo, RoundTripIdentity) {
  const Graph g = sample_graph();
  const auto path = temp_path("roundtrip.fcg");
  save_binary(g, path);
  expect_identical(g, load_binary(path));
}

TEST(BinaryIo, ChecksumCatchesCorruption) {
  const Graph g = sample_graph();
  const auto path = temp_path("corrupt.fcg");
  save_binary(g, path);
  // Flip one payload byte.
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(20);
    char byte = 0;
    f.read(&byte, 1);
    f.seekp(20);
    byte = static_cast<char>(byte ^ 0x40);
    f.write(&byte, 1);
  }
  try {
    load_binary(path);
    FAIL() << "expected checksum failure";
  } catch (const std::runtime_error& err) {
    EXPECT_NE(std::string(err.what()).find("checksum"), std::string::npos);
  }
}

TEST(BinaryIo, RejectsTruncation) {
  // Every 4-byte boundary: inside the header, edge_u[], edge_v[] and the
  // checksum.
  const auto path = temp_path("trunc.fcg");
  save_binary(gen::cycle(10), path);
  const std::string bytes = read_bytes(path);
  ASSERT_EQ(bytes.size(), 16u + 8u * 10u + 8u);
  for (std::size_t len = 0; len < bytes.size(); len += 4) {
    write_bytes(path, bytes.substr(0, len));
    EXPECT_EQ(load_fails_cleanly(path), "") << "truncated to " << len;
  }
}

TEST(BinaryIo, RejectsBadMagicAndVersion) {
  const Graph g = gen::cycle(8);
  const auto path = temp_path("magic.fcg");
  save_binary(g, path);
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    const std::uint32_t not_magic = 0xdeadbeef;
    f.write(reinterpret_cast<const char*>(&not_magic), 4);
  }
  EXPECT_THROW(load_binary(path), std::runtime_error);

  save_binary(g, path);
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(4);
    const std::uint32_t future_version = 99;
    f.write(reinterpret_cast<const char*>(&future_version), 4);
  }
  try {
    load_binary(path);
    FAIL() << "expected version failure";
  } catch (const std::runtime_error& err) {
    EXPECT_NE(std::string(err.what()).find("version"), std::string::npos);
  }
}

TEST(BinaryIo, OneBitFlipInEveryWordThrowsRuntimeError) {
  // Header (magic, version, n, m), edge_u[], edge_v[] and both checksum
  // words, every bit of each.
  const auto path = temp_path("flip_every.fcg");
  save_binary(gen::cycle(10), path);
  const std::string bytes = read_bytes(path);
  for (std::size_t bit = 0; bit < 8 * bytes.size(); ++bit) {
    std::string damaged = bytes;
    damaged[bit / 8] = static_cast<char>(damaged[bit / 8] ^ (1 << (bit % 8)));
    write_bytes(path, damaged);
    EXPECT_EQ(load_fails_cleanly(path), "")
        << "word " << bit / 32 << ", bit " << bit % 32;
  }
}

TEST(BinaryIo, ChecksummedInvalidGraphThrowsRuntimeError) {
  const auto path = temp_path("invalid_graph.fcg");
  const std::vector<std::pair<std::vector<std::pair<NodeId, NodeId>>,
                              std::string>>
      cases = {{{{0, 1}, {1, 2}, {2, 1}}, "duplicate edge"},
               {{{0, 1}, {2, 2}}, "self-loop"},
               {{{0, 1}, {1, 7}}, "endpoint >= n"}};
  for (const auto& [edges, reason] : cases) {
    write_raw_fcg(path, 4, edges);
    try {
      load_binary(path);
      ADD_FAILURE() << "expected " << reason;
    } catch (const std::runtime_error& err) {
      EXPECT_NE(std::string(err.what()).find(reason), std::string::npos)
          << err.what();
    }
  }
}

TEST(Corpus, ChecksummedInvalidGraphIsQuarantinedAndRegenerated) {
  const auto dir = temp_path("corpus_invalid_graph");
  fs::remove_all(dir);
  fs::create_directories(dir);
  const auto spec = GraphSpec::parse("cycle:n=12");
  const std::string file = (fs::path(dir) / cache_file_name(spec)).string();
  write_raw_fcg(file, 12, {{0, 1}, {1, 2}, {2, 1}});

  bool from_cache = true;
  const Graph g = load_or_generate(spec, dir, &from_cache);
  EXPECT_FALSE(from_cache);
  EXPECT_TRUE(fs::exists(file + ".bad"));
  expect_identical(g, build_graph("cycle:n=12"));
  expect_identical(g, load_binary(file));
}

TEST(Corpus, LoadOrGenerateCachesAndReloads) {
  const auto dir = temp_path("corpus_cache");
  fs::remove_all(dir);
  const auto spec = GraphSpec::parse("dumbbell:s=16,bridges=2");

  bool from_cache = true;
  const Graph generated = load_or_generate(spec, dir, &from_cache);
  EXPECT_FALSE(from_cache);
  EXPECT_TRUE(fs::exists(fs::path(dir) / cache_file_name(spec)));

  const Graph reloaded = load_or_generate(spec, dir, &from_cache);
  EXPECT_TRUE(from_cache);
  expect_identical(generated, reloaded);
}

TEST(Corpus, CorruptCacheRegenerates) {
  const auto dir = temp_path("corpus_corrupt");
  fs::remove_all(dir);
  const auto spec = GraphSpec::parse("cycle:n=12");
  const Graph first = load_or_generate(spec, dir, nullptr);
  const auto file = fs::path(dir) / cache_file_name(spec);
  fs::resize_file(file, 3);  // destroy the cache entry

  bool from_cache = true;
  const Graph second = load_or_generate(spec, dir, &from_cache);
  EXPECT_FALSE(from_cache);
  expect_identical(first, second);
  // And the rewritten cache is valid again.
  expect_identical(first, load_binary(file.string()));
}

TEST(Corpus, DistinctSpecsGetDistinctFiles) {
  EXPECT_NE(cache_file_name(GraphSpec::parse("rmat:n=256,deg=8,seed=1")),
            cache_file_name(GraphSpec::parse("rmat:n=256,deg=8,seed=2")));
  // Canonicalization: parameter order does not change the cache identity.
  EXPECT_EQ(cache_file_name(GraphSpec::parse("rmat:seed=1,n=256,deg=8")),
            cache_file_name(GraphSpec::parse("rmat:n=256,deg=8,seed=1")));
}

TEST(Corpus, CacheIdentityBakesDefaultsAndStripsWeights) {
  // A spec relying on defaults and one spelling them out share one file.
  EXPECT_EQ(cache_file_name(GraphSpec::parse("rmat:n=256")),
            cache_file_name(GraphSpec::parse(
                "rmat:a=0.57,b=0.19,c=0.19,deg=8,n=256,seed=1")));
  // Changing a defaulted value changes the identity.
  EXPECT_NE(cache_file_name(GraphSpec::parse("rmat:n=256")),
            cache_file_name(GraphSpec::parse("rmat:n=256,a=0.6")));
  // Weighted specs share the topology file with their unweighted sibling.
  EXPECT_EQ(cache_file_name(GraphSpec::parse("rmat:n=256,weights=1..9")),
            cache_file_name(GraphSpec::parse("rmat:n=256")));
}

TEST(Manifest, RecordsCanonicalSpecFileAndChecksum) {
  const auto dir = temp_path("corpus_manifest");
  fs::remove_all(dir);
  const auto spec = GraphSpec::parse("rmat:n=256,deg=8,seed=3");
  const Graph g = load_or_generate(spec, dir, nullptr);

  const auto entries = read_manifest(dir);
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].spec,
            "rmat:a=0.57,b=0.19,c=0.19,deg=8,n=256,seed=3");
  EXPECT_EQ(entries[0].file, cache_file_name(spec));
  EXPECT_EQ(entries[0].checksum, graph_checksum(g));

  // A second spec appends; regenerating the first upserts, not duplicates.
  load_or_generate(GraphSpec::parse("cycle:n=12"), dir, nullptr);
  load_or_generate(spec, dir, nullptr);
  EXPECT_EQ(read_manifest(dir).size(), 2u);
}

TEST(Manifest, ChecksumMismatchForcesRegeneration) {
  const auto dir = temp_path("corpus_stale");
  fs::remove_all(dir);
  const auto spec = GraphSpec::parse("dumbbell:s=16,bridges=2");
  const Graph first = load_or_generate(spec, dir, nullptr);

  // Simulate a stale ledger: the manifest claims a different graph for this
  // spec (as if the family's generator changed without a version bump).
  auto entries = read_manifest(dir);
  ASSERT_EQ(entries.size(), 1u);
  upsert_manifest(dir, {entries[0].spec, entries[0].file,
                        entries[0].checksum ^ 0xdeadbeefULL});

  bool from_cache = true;
  const Graph second = load_or_generate(spec, dir, &from_cache);
  EXPECT_FALSE(from_cache);  // mismatch detected -> regenerated
  expect_identical(first, second);
  // And the ledger is repaired.
  const auto repaired = read_manifest(dir);
  ASSERT_EQ(repaired.size(), 1u);
  EXPECT_EQ(repaired[0].checksum, graph_checksum(second));
}

TEST(Manifest, MalformedLinesAreSkipped) {
  const auto dir = temp_path("corpus_malformed");
  fs::remove_all(dir);
  load_or_generate(GraphSpec::parse("cycle:n=10"), dir, nullptr);
  {
    std::ofstream out(fs::path(dir) / "manifest.txt", std::ios::app);
    out << "not a manifest line\n\tweird\t\n";
  }
  const auto entries = read_manifest(dir);
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].spec, "cycle:n=10");
}

TEST(Corpus, CacheIdentityStripsSources) {
  // sources= never affects the topology, so batch specs share the file (and
  // manifest entry) with their plain sibling.
  EXPECT_EQ(cache_file_name(GraphSpec::parse("rmat:n=256,sources=8")),
            cache_file_name(GraphSpec::parse("rmat:n=256")));
  EXPECT_EQ(
      cache_file_name(GraphSpec::parse("rmat:n=256,sources=8,weights=1..9")),
      cache_file_name(GraphSpec::parse("rmat:n=256")));
}

TEST(CorpusGc, MissingDirectoryIsANoOp) {
  const auto gc = gc_corpus(temp_path("gc_no_such_dir"));
  EXPECT_EQ(gc.kept, 0u);
  EXPECT_EQ(gc.evicted_files, 0u);
  EXPECT_EQ(gc.dropped_entries, 0u);
}

TEST(CorpusGc, KeepsVerifiedEntriesUntouched) {
  const auto dir = temp_path("gc_clean");
  fs::remove_all(dir);
  const auto spec_a = GraphSpec::parse("cycle:n=12");
  const auto spec_b = GraphSpec::parse("dumbbell:s=16,bridges=2");
  const Graph a = load_or_generate(spec_a, dir, nullptr);
  load_or_generate(spec_b, dir, nullptr);

  const auto gc = gc_corpus(dir);
  EXPECT_EQ(gc.kept, 2u);
  EXPECT_EQ(gc.evicted_files, 0u);
  EXPECT_EQ(gc.dropped_entries, 0u);
  EXPECT_EQ(read_manifest(dir).size(), 2u);
  // The survivors still load from cache.
  bool from_cache = false;
  expect_identical(a, load_or_generate(spec_a, dir, &from_cache));
  EXPECT_TRUE(from_cache);
}

TEST(CorpusGc, EvictsOrphanAndCorruptFilesButNotForeignOnes) {
  const auto dir = temp_path("gc_evict");
  fs::remove_all(dir);
  const auto spec = GraphSpec::parse("cycle:n=12");
  load_or_generate(spec, dir, nullptr);

  // An orphan cache file (no manifest entry) and a corrupt vouched one.
  { std::ofstream out(fs::path(dir) / "orphan.fcg"); out << "junk"; }
  const auto vouched = fs::path(dir) / cache_file_name(spec);
  fs::resize_file(vouched, 3);
  // A non-.fcg bystander must survive any sweep.
  { std::ofstream out(fs::path(dir) / "notes.txt"); out << "keep me"; }

  const auto gc = gc_corpus(dir);
  EXPECT_EQ(gc.kept, 0u);
  EXPECT_EQ(gc.evicted_files, 2u);
  EXPECT_EQ(gc.dropped_entries, 1u);
  EXPECT_FALSE(fs::exists(fs::path(dir) / "orphan.fcg"));
  EXPECT_FALSE(fs::exists(vouched));
  EXPECT_TRUE(fs::exists(fs::path(dir) / "notes.txt"));
  EXPECT_TRUE(read_manifest(dir).empty());
}

TEST(CorpusGc, EvictsFilesFailingTheManifestChecksum) {
  const auto dir = temp_path("gc_mismatch");
  fs::remove_all(dir);
  const auto spec = GraphSpec::parse("cycle:n=12");
  load_or_generate(spec, dir, nullptr);
  // Swap in a VALID binary of a different graph: the file alone looks fine,
  // only the manifest cross-check can catch it.
  const auto file = fs::path(dir) / cache_file_name(spec);
  save_binary(gen::path(5), file.string());

  const auto gc = gc_corpus(dir);
  EXPECT_EQ(gc.kept, 0u);
  EXPECT_EQ(gc.evicted_files, 1u);
  EXPECT_EQ(gc.dropped_entries, 1u);
  EXPECT_FALSE(fs::exists(file));

  // The next load_or_generate rebuilds a clean corpus.
  bool from_cache = true;
  load_or_generate(spec, dir, &from_cache);
  EXPECT_FALSE(from_cache);
  EXPECT_EQ(gc_corpus(dir).kept, 1u);
}

TEST(CorpusGc, DropsDanglingManifestEntries) {
  const auto dir = temp_path("gc_dangling");
  fs::remove_all(dir);
  const auto spec = GraphSpec::parse("cycle:n=12");
  load_or_generate(spec, dir, nullptr);
  load_or_generate(GraphSpec::parse("path:n=9"), dir, nullptr);
  fs::remove(fs::path(dir) / cache_file_name(spec));  // file gone, entry stays

  const auto gc = gc_corpus(dir);
  EXPECT_EQ(gc.kept, 1u);
  EXPECT_EQ(gc.evicted_files, 0u);
  EXPECT_EQ(gc.dropped_entries, 1u);
  const auto entries = read_manifest(dir);
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].spec, "path:n=9");
}

TEST(Corpus, WeightedLoadSharesTopologyAndRederivesWeights) {
  const auto dir = temp_path("corpus_weighted");
  fs::remove_all(dir);
  const auto weighted_spec =
      GraphSpec::parse("erdos_renyi:n=80,p=0.1,seed=2,weights=3..30");

  bool from_cache = true;
  const WeightedGraph generated =
      load_or_generate_weighted(weighted_spec, dir, &from_cache);
  EXPECT_FALSE(from_cache);
  for (EdgeId e = 0; e < generated.graph().edge_count(); ++e) {
    EXPECT_GE(generated.weight(e), 3);
    EXPECT_LE(generated.weight(e), 30);
  }

  // Reload: topology comes from cache, weights re-derive bit-identically.
  const WeightedGraph reloaded =
      load_or_generate_weighted(weighted_spec, dir, &from_cache);
  EXPECT_TRUE(from_cache);
  expect_identical(generated.graph(), reloaded.graph());
  for (EdgeId e = 0; e < generated.graph().edge_count(); ++e)
    ASSERT_EQ(generated.weight(e), reloaded.weight(e));

  // The unweighted sibling hits the same cached topology file.
  const auto unweighted_spec = weighted_spec.without("weights");
  const Graph topo = load_or_generate(unweighted_spec, dir, &from_cache);
  EXPECT_TRUE(from_cache);
  expect_identical(topo, generated.graph());
  EXPECT_EQ(read_manifest(dir).size(), 1u);
}

}  // namespace
}  // namespace fc::scenario
