// HNSW-style approximate nearest-neighbor index over an EmbeddingStore.
//
// Hierarchical Navigable Small World (Malkov & Yashunin): every row is a
// node; node levels follow a geometric distribution so the sparse upper
// layers form an expressway for greedy routing and layer 0 holds the full
// navigable graph. Search descends greedily to layer 1, then runs a
// best-first beam of width `ef` on layer 0 — sublinear in rows where the
// exact scan is linear, at the price of approximate results (the
// `gosh_query --eval` mode and the test suite measure recall against the
// brute-force scan).
//
// The index stores only graph structure (per-node levels + adjacency) and,
// for cosine, the per-row inverse norms; vectors themselves stay in the
// mmap'd store, so the index file is small and building it never copies
// the matrix. It is built offline and persisted beside the store
// ("<store>.hnsw" by convention, see default_path).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "gosh/api/status.hpp"
#include "gosh/query/metric.hpp"
#include "gosh/store/embedding_store.hpp"

namespace gosh::query {

struct HnswOptions {
  /// Neighbors kept per node per layer (layer 0 keeps 2*M).
  unsigned M = 16;
  /// Beam width while inserting; larger = better graph, slower build.
  unsigned ef_construction = 200;
  std::uint64_t seed = 42;
  Metric metric = Metric::kCosine;
};

class HnswIndex {
 public:
  HnswIndex() = default;

  /// Builds the index over every row of `store` (offline, sequential
  /// insertions; O(rows * ef_construction) distance evaluations).
  /// `precomputed_inv_norms` (cosine only) skips the full-store norm pass
  /// when the caller already holds row_inverse_norms(store, metric); it
  /// must have store.rows() entries.
  static HnswIndex build(const store::EmbeddingStore& store,
                         const HnswOptions& options = {},
                         std::span<const float> precomputed_inv_norms = {});

  /// kInvalidArgument unless the index was built over `store`'s shape
  /// (rows x dim) for `metric` — the check before serving a loaded index.
  api::Status fits(const store::EmbeddingStore& store, Metric metric) const;

  /// Approximate top-k of `query` (length = store.dim()). `ef` is the
  /// layer-0 beam width; it is clamped up to `k`. `store` must be the
  /// store the index was built over (check fits() first). A non-empty
  /// `filter` keeps filtered-out nodes navigable (the graph stays
  /// connected) but bars them from the result set; callers wanting
  /// exact-strategy-like coverage under a selective filter should widen
  /// `ef`.
  std::vector<Neighbor> search(const store::EmbeddingStore& store,
                               std::span<const float> query, unsigned k,
                               unsigned ef = 64,
                               const RowFilter& filter = {}) const;

  /// Serializes to `path` ("GSHH" format, FNV-checksummed).
  api::Status save(const std::string& path) const;
  static api::Result<HnswIndex> load(const std::string& path);

  /// Conventional index location for a store rooted at `store_path`.
  static std::string default_path(const std::string& store_path) {
    return store_path + ".hnsw";
  }

  Metric metric() const noexcept { return metric_; }
  unsigned M() const noexcept { return M_; }
  unsigned ef_construction() const noexcept { return ef_construction_; }
  std::uint64_t rows() const noexcept { return rows_; }
  std::uint64_t dim() const noexcept { return dim_; }
  int max_level() const noexcept { return max_level_; }

 private:
  friend struct HnswBuilder;

  float node_similarity(const store::EmbeddingStore& store,
                        const float* query, float query_inv,
                        vid_t node) const noexcept;

  /// Best-first beam search on one layer; returns up to `ef` candidates
  /// (unsorted). `visited` is an epoch-stamped scratch array of
  /// rows() entries. `filter` (may be null) bars nodes from the result
  /// set without removing them from the frontier.
  std::vector<Neighbor> search_layer(const store::EmbeddingStore& store,
                                     const float* query, float query_inv,
                                     vid_t entry, unsigned ef, unsigned layer,
                                     std::vector<std::uint32_t>& visited,
                                     std::uint32_t mark,
                                     const RowFilter* filter = nullptr) const;

  Metric metric_ = Metric::kCosine;
  unsigned M_ = 16;
  unsigned ef_construction_ = 200;
  std::uint64_t rows_ = 0;
  std::uint64_t dim_ = 0;
  vid_t entry_ = 0;
  int max_level_ = -1;
  std::vector<std::uint8_t> levels_;            ///< per node
  /// links_[layer][node] — adjacency; nodes below `layer` have empty rows.
  std::vector<std::vector<std::vector<vid_t>>> links_;
  std::vector<float> inv_norms_;                ///< cosine only, else empty
};

}  // namespace gosh::query
