#pragma once
// Graph corpus I/O: text edge lists for interchange, and a versioned,
// checksummed binary format so large generated graphs are built once and
// reloaded in milliseconds.
//
// The binary format stores the canonical edge list (the graph's identity:
// Graph::from_edges rebuilds the exact same CSR, arc ids included):
//
//   u32 magic "FCGR"  | u32 version | u32 n | u32 m
//   u32 edge_u[m]     | u32 edge_v[m]
//   u64 checksum      (mix64 chain over everything above)
//
// load_binary reads the 16-byte header, checks the promised size against
// the real file size, then reads the edge arrays and the checksum with one
// read and digests that buffer. Loaders never trust the file: magic,
// version, size, checksum and trailing bytes are all validated, and so is
// the graph itself (a checksummed file holding a self-loop or duplicate
// edge is rejected too). Every failure throws std::runtime_error with the
// reason — a truncated or stale cache regenerates instead of corrupting an
// experiment.
//
// A corpus directory additionally carries a `manifest.txt` ledger: one
// tab-separated line per cached graph,
//
//   <canonical spec> \t <file name> \t <checksum as 16 hex digits>
//
// where the canonical spec has every registry default baked in
// (Registry::canonical). The manifest closes the cache-identity hole: if a
// family default changes in spec.cpp, the canonical spec string changes, so
// the entry (and file name) no longer match and the graph regenerates; if a
// file is swapped or regenerated incompatibly, the checksum mismatch is
// detected on load and the entry is refreshed.
//
// Thread-safety: the functions here touch the filesystem and are not
// synchronized. Concurrent load_or_generate calls may duplicate work, and
// concurrent MANIFEST updates can lose each other's entries (the manifest
// itself is rewritten via rename, so it is never left half-written; a
// missing entry only disables the staleness cross-check for that spec).
// Loads validate checksums, and large CSR builds serialize on the global
// ThreadPool, so loaded graphs are never corrupt. For guaranteed-complete
// manifests, populate a corpus from one thread.

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "graph/weighted_graph.hpp"
#include "scenario/spec.hpp"

namespace fc::scenario {

/// Order-sensitive digest of (n, edge list). Two graphs with equal
/// checksums have identical CSR layouts (same nodes, edges, arc order).
std::uint64_t graph_checksum(const Graph& g);

/// Text edge list: header line "n m", then one "u v" line per edge.
/// Lines starting with '#' or '%' are comments.
void save_edge_list(const Graph& g, const std::string& path);
Graph load_edge_list(const std::string& path);

/// Binary CSR cache (see the format note above). Written atomically —
/// to `path + ".tmp"` then renamed into place, like the manifest — so the
/// final path only ever holds a complete, checksummed file.
void save_binary(const Graph& g, const std::string& path);
Graph load_binary(const std::string& path);

/// Cache-file name a spec maps to inside a corpus directory: the sanitized
/// CANONICAL spec (registry defaults baked in, `weights=`, `sources=` and
/// `source_mode=` stripped — the file stores topology only) plus a hash
/// suffix, e.g.
/// "rmat_a=0.57_b=0.19_c=0.19_deg=8_n=4096_seed=1-1a2b3c.fcg". Because
/// defaults are part of the identity, changing a family default in spec.cpp
/// changes the file name and stale corpora can never be silently reloaded.
std::string cache_file_name(const GraphSpec& spec);

/// One manifest line: canonical spec -> file -> checksum.
struct ManifestEntry {
  std::string spec;   // canonical, weights stripped
  std::string file;   // file name inside the corpus directory
  std::uint64_t checksum = 0;
};

/// Read `cache_dir`/manifest.txt. Missing file: empty vector. Malformed
/// lines are skipped (a half-written manifest must not poison the corpus);
/// entries are returned in file order.
std::vector<ManifestEntry> read_manifest(const std::string& cache_dir);

/// Rewrite the manifest with `entry` inserted (or replaced, matching on
/// spec). Creates the directory when needed.
void upsert_manifest(const std::string& cache_dir, const ManifestEntry& entry);

/// Outcome of a corpus garbage collection (scenario_runner --cache-gc).
struct GcResult {
  std::size_t kept = 0;             // manifest entries whose file verified
  std::size_t evicted_files = 0;    // .fcg files deleted
  std::size_t dropped_entries = 0;  // manifest entries removed
};

/// Garbage-collect `cache_dir` against its manifest: delete every `.fcg`
/// file the manifest does not vouch for — no entry, or the file's content no
/// longer hashes to the entry's checksum (swapped, truncated, corrupt) —
/// and drop manifest entries whose file is missing or was just evicted.
/// Only `.fcg` files are touched; the manifest is rewritten atomically
/// (write + rename). A missing directory is a no-op (all-zero result).
GcResult gc_corpus(const std::string& cache_dir);

/// Load the spec's graph from `cache_dir` if a valid cache file exists;
/// otherwise generate it via the Registry and write the cache + manifest
/// entry. A corrupt or unreadable cache file (bad magic, truncation,
/// checksum failure) is QUARANTINED — renamed to `<file>.bad` so the
/// evidence survives for post-mortem — and the graph regenerates; one
/// whose content merely disagrees with the manifest's checksum is
/// regenerated in place. `from_cache` (optional) reports which path was
/// taken. Any `weights=` parameter is ignored here: caching is by
/// topology (see load_or_generate_weighted).
Graph load_or_generate(const GraphSpec& spec, const std::string& cache_dir,
                       bool* from_cache = nullptr);

/// Weighted variant: the topology loads/caches exactly as load_or_generate
/// (weighted specs SHARE the topology cache file with their unweighted
/// sibling), then `weights=lo..hi` weights are re-derived from the spec
/// seed via gen::with_hashed_weights — bit-identical whether the topology
/// was generated or reloaded. Unit weights when `weights=` is absent.
WeightedGraph load_or_generate_weighted(const GraphSpec& spec,
                                        const std::string& cache_dir,
                                        bool* from_cache = nullptr);

}  // namespace fc::scenario
