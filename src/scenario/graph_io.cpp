#include "scenario/graph_io.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "graph/generators.hpp"
#include "util/rng.hpp"

namespace fc::scenario {

namespace {

constexpr std::uint32_t kMagic = 0x46434752;  // "FCGR"
constexpr std::uint32_t kVersion = 1;

[[noreturn]] void io_fail(const std::string& path, const std::string& what) {
  throw std::runtime_error("graph_io: " + path + ": " + what);
}

/// Running digest; chained mix64 so word order matters.
struct Digest {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL;
  void word(std::uint64_t w) { h = mix64(h, w); }
};

void write_u32(std::ofstream& out, std::uint32_t v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof v);
}

void write_u64(std::ofstream& out, std::uint64_t v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof v);
}

std::uint32_t read_u32(std::ifstream& in, const std::string& path,
                       const std::string& field) {
  std::uint32_t v = 0;
  if (!in.read(reinterpret_cast<char*>(&v), sizeof v))
    io_fail(path, "truncated while reading " + field);
  return v;
}

}  // namespace

std::uint64_t graph_checksum(const Graph& g) {
  Digest d;
  d.word(g.node_count());
  d.word(g.edge_count());
  for (EdgeId e = 0; e < g.edge_count(); ++e)
    d.word((static_cast<std::uint64_t>(g.edge_u(e)) << 32) | g.edge_v(e));
  return d.h;
}

void save_edge_list(const Graph& g, const std::string& path) {
  std::ofstream out(path);
  if (!out) io_fail(path, "cannot open for writing");
  out << g.node_count() << ' ' << g.edge_count() << '\n';
  for (EdgeId e = 0; e < g.edge_count(); ++e)
    out << g.edge_u(e) << ' ' << g.edge_v(e) << '\n';
  if (!out) io_fail(path, "write failed");
}

Graph load_edge_list(const std::string& path) {
  std::ifstream in(path);
  if (!in) io_fail(path, "cannot open for reading");
  std::string line;
  std::uint64_t n = 0, m = 0;
  bool have_header = false;
  std::vector<std::pair<NodeId, NodeId>> edges;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#' || line[0] == '%') continue;
    std::istringstream fields(line);
    if (!have_header) {
      if (!(fields >> n >> m))
        io_fail(path, "line " + std::to_string(line_no) +
                          ": expected header 'n m'");
      have_header = true;
      edges.reserve(m);
      continue;
    }
    std::uint64_t u = 0, v = 0;
    if (!(fields >> u >> v))
      io_fail(path,
              "line " + std::to_string(line_no) + ": expected edge 'u v'");
    if (u >= n || v >= n)
      io_fail(path, "line " + std::to_string(line_no) + ": endpoint " +
                        std::to_string(std::max(u, v)) + " >= n = " +
                        std::to_string(n));
    edges.emplace_back(static_cast<NodeId>(u), static_cast<NodeId>(v));
  }
  if (!have_header) io_fail(path, "missing 'n m' header");
  if (edges.size() != m)
    io_fail(path, "header promises " + std::to_string(m) + " edges, found " +
                      std::to_string(edges.size()));
  return Graph::from_edges(static_cast<NodeId>(n), edges);
}

void save_binary(const Graph& g, const std::string& path) {
  // Write-then-rename, like the manifest: the final path only ever holds a
  // complete file, so a crash mid-write can't leave a torn .fcg the
  // manifest vouches for.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) io_fail(tmp, "cannot open for writing");
    Digest d;
    write_u32(out, kMagic);
    write_u32(out, kVersion);
    write_u32(out, g.node_count());
    write_u32(out, g.edge_count());
    d.word(kMagic);
    d.word(kVersion);
    d.word(g.node_count());
    d.word(g.edge_count());
    for (EdgeId e = 0; e < g.edge_count(); ++e) {
      write_u32(out, g.edge_u(e));
      d.word(g.edge_u(e));
    }
    for (EdgeId e = 0; e < g.edge_count(); ++e) {
      write_u32(out, g.edge_v(e));
      d.word(g.edge_v(e));
    }
    write_u64(out, d.h);
    if (!out) io_fail(tmp, "write failed");
  }
  std::filesystem::rename(tmp, path);
}

Graph load_binary(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) io_fail(path, "cannot open for reading");
  Digest d;
  const std::uint32_t magic = read_u32(in, path, "magic");
  if (magic != kMagic)
    io_fail(path, "not a fastcast binary graph (bad magic)");
  const std::uint32_t version = read_u32(in, path, "version");
  if (version != kVersion)
    io_fail(path, "format version " + std::to_string(version) +
                      " unsupported (expected " + std::to_string(kVersion) +
                      "); regenerate the cache");
  const std::uint32_t n = read_u32(in, path, "node count");
  const std::uint32_t m = read_u32(in, path, "edge count");
  // Validate the promised payload against the real file size BEFORE
  // allocating anything from the untrusted header: a flipped byte in the
  // edge count must surface as the documented runtime_error, not bad_alloc.
  const std::uint64_t expected_size = 16 + 8ull * m + 8;
  const auto actual_size = std::filesystem::file_size(path);
  if (actual_size != expected_size)
    io_fail(path, "header promises " + std::to_string(m) + " edges (" +
                      std::to_string(expected_size) + " bytes) but the file "
                      "has " + std::to_string(actual_size) + " bytes");
  d.word(magic);
  d.word(version);
  d.word(n);
  d.word(m);
  // The rest of the file in one read: edge_u[m], edge_v[m], then the u64
  // checksum as two words.
  std::vector<std::uint32_t> words(2ull * m + 2);
  if (!in.read(reinterpret_cast<char*>(words.data()),
               static_cast<std::streamsize>(words.size() * sizeof(words[0]))))
    io_fail(path, "truncated while reading edges and checksum");
  for (std::uint64_t i = 0; i < 2ull * m; ++i) d.word(words[i]);
  std::uint64_t stored = 0;
  std::memcpy(&stored, words.data() + 2ull * m, sizeof stored);
  if (stored != d.h)
    io_fail(path, "checksum mismatch (file corrupt or partially written)");
  char extra = 0;
  if (in.read(&extra, 1))
    io_fail(path, "trailing bytes after checksum");
  std::vector<std::pair<NodeId, NodeId>> edges(m);
  for (std::uint32_t e = 0; e < m; ++e)
    edges[e] = {words[e], words[std::size_t{m} + e]};
  words = {};  // freed before the CSR build allocates
  // A checksummed file can still hold a graph the library rejects (written
  // by another tool, or by hand); report it like any other bad file.
  try {
    return Graph::from_edges(n, edges);
  } catch (const std::invalid_argument& err) {
    io_fail(path, err.what());
  }
}

namespace {

/// The corpus identity of a spec: registry defaults baked in, weights and
/// batch source parameters stripped (cache files store topology only;
/// weights re-derive from the spec seed, and `sources=`/`source_mode=`
/// never affect the graph).
GraphSpec corpus_spec(const GraphSpec& spec) {
  return Registry::instance()
      .canonical(spec)
      .without("weights")
      .without("sources")
      .without("source_mode")
      .without("churn")
      .without("updates");
}

constexpr const char* kManifestName = "manifest.txt";

/// Rewrite the whole manifest via write-then-rename, so a crash mid-write
/// can never leave a truncated ledger (a missing one only disables the
/// staleness cross-check, but a half-written one would shadow every entry
/// after the cut).
void write_manifest(const std::string& cache_dir,
                    const std::vector<ManifestEntry>& entries) {
  namespace fs = std::filesystem;
  fs::create_directories(cache_dir);
  const fs::path path = fs::path(cache_dir) / kManifestName;
  const fs::path tmp = path.string() + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) io_fail(tmp.string(), "cannot open for writing");
    for (const auto& e : entries) {
      char hex[24];
      std::snprintf(hex, sizeof hex, "%016llx",
                    static_cast<unsigned long long>(e.checksum));
      out << e.spec << '\t' << e.file << '\t' << hex << '\n';
    }
    if (!out) io_fail(tmp.string(), "write failed");
  }
  fs::rename(tmp, path);
}

}  // namespace

std::vector<ManifestEntry> read_manifest(const std::string& cache_dir) {
  std::vector<ManifestEntry> out;
  std::ifstream in(std::filesystem::path(cache_dir) / kManifestName);
  if (!in) return out;
  std::string line;
  while (std::getline(in, line)) {
    const auto tab1 = line.find('\t');
    const auto tab2 = tab1 == std::string::npos ? tab1
                                                : line.find('\t', tab1 + 1);
    if (tab2 == std::string::npos) continue;  // malformed: skip, don't poison
    ManifestEntry entry;
    entry.spec = line.substr(0, tab1);
    entry.file = line.substr(tab1 + 1, tab2 - tab1 - 1);
    const std::string hex = line.substr(tab2 + 1);
    char* end = nullptr;
    entry.checksum = std::strtoull(hex.c_str(), &end, 16);
    if (entry.spec.empty() || entry.file.empty() || end == hex.c_str())
      continue;
    out.push_back(std::move(entry));
  }
  return out;
}

void upsert_manifest(const std::string& cache_dir,
                     const ManifestEntry& entry) {
  auto entries = read_manifest(cache_dir);
  bool replaced = false;
  for (auto& e : entries)
    if (e.spec == entry.spec) {
      e = entry;
      replaced = true;
    }
  if (!replaced) entries.push_back(entry);
  write_manifest(cache_dir, entries);
}

GcResult gc_corpus(const std::string& cache_dir) {
  namespace fs = std::filesystem;
  GcResult out;
  if (!fs::is_directory(cache_dir)) return out;
  const auto entries = read_manifest(cache_dir);
  std::map<std::string, const ManifestEntry*> by_file;
  for (const auto& e : entries) by_file[e.file] = &e;
  // Pass 1 over the files: a cache file survives only if the manifest
  // vouches for it AND its content still hashes to the vouched checksum.
  std::set<std::string> verified;
  for (const auto& dir_entry : fs::directory_iterator(cache_dir)) {
    if (!dir_entry.is_regular_file()) continue;
    const fs::path& path = dir_entry.path();
    if (path.extension() != ".fcg") continue;  // never touch foreign files
    const std::string file = path.filename().string();
    bool clean = false;
    const auto it = by_file.find(file);
    if (it != by_file.end()) {
      try {
        clean = graph_checksum(load_binary(path.string())) ==
                it->second->checksum;
      } catch (const std::exception&) {
        clean = false;  // truncated/corrupt: evict
      }
    }
    if (clean) {
      verified.insert(file);
    } else {
      fs::remove(path);
      ++out.evicted_files;
    }
  }
  // Pass 2 over the ledger: drop entries whose file is gone (missing on
  // disk, or evicted above).
  std::vector<ManifestEntry> kept;
  kept.reserve(entries.size());
  for (const auto& e : entries) {
    if (verified.count(e.file) > 0)
      kept.push_back(e);
    else
      ++out.dropped_entries;
  }
  out.kept = kept.size();
  write_manifest(cache_dir, kept);
  return out;
}

std::string cache_file_name(const GraphSpec& spec) {
  const std::string canon = corpus_spec(spec).to_string();
  std::string safe;
  safe.reserve(canon.size());
  for (const char ch : canon) {
    const bool keep = (ch >= 'a' && ch <= 'z') || (ch >= 'A' && ch <= 'Z') ||
                      (ch >= '0' && ch <= '9') || ch == '=' || ch == '.' ||
                      ch == '-';
    safe += keep ? ch : '_';
  }
  // Hash suffix keeps distinct specs distinct even after sanitizing.
  std::uint64_t h = 0x72d2e1f3c5a7b911ULL;
  for (const char ch : canon) h = mix64(h, static_cast<unsigned char>(ch));
  char suffix[32];
  std::snprintf(suffix, sizeof suffix, "-%08llx.fcg",
                static_cast<unsigned long long>(h & 0xffffffffULL));
  return safe + suffix;
}

Graph load_or_generate(const GraphSpec& spec, const std::string& cache_dir,
                       bool* from_cache) {
  namespace fs = std::filesystem;
  const GraphSpec canon = corpus_spec(spec);
  const std::string file_name = cache_file_name(canon);
  const fs::path file = fs::path(cache_dir) / file_name;
  if (fs::exists(file)) {
    try {
      Graph g = load_binary(file.string());
      // The file is internally consistent; now hold it to the manifest's
      // promise. A disagreeing checksum means the file no longer is what
      // the ledger says this spec produces — regenerate.
      const std::string canon_text = canon.to_string();
      const std::uint64_t checksum = graph_checksum(g);
      bool stale = false;
      for (const auto& entry : read_manifest(cache_dir))
        if (entry.spec == canon_text) stale = entry.checksum != checksum;
      if (!stale) {
        if (from_cache != nullptr) *from_cache = true;
        return g;
      }
    } catch (const std::exception&) {
      // Corrupt cache entry (bad magic, truncation, checksum mismatch):
      // quarantine it as <file>.bad for post-mortem instead of silently
      // overwriting the evidence, then fall through and regenerate.
      std::error_code ec;
      fs::rename(file, fs::path(file.string() + ".bad"), ec);
      if (ec) fs::remove(file, ec);  // rename failed: at least unblock
    }
  }
  Graph g = Registry::instance().build(spec);
  fs::create_directories(cache_dir);
  save_binary(g, file.string());
  upsert_manifest(cache_dir, {canon.to_string(), file_name, graph_checksum(g)});
  if (from_cache != nullptr) *from_cache = false;
  return g;
}

WeightedGraph load_or_generate_weighted(const GraphSpec& spec,
                                        const std::string& cache_dir,
                                        bool* from_cache) {
  return apply_spec_weights(load_or_generate(spec, cache_dir, from_cache),
                            spec);
}

}  // namespace fc::scenario
