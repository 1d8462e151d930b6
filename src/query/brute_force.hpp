// Exact top-k by blocked parallel scan over an EmbeddingStore.
//
// The scan is the ground truth the approximate index is measured against
// and the fallback when no index has been built. Rows are traversed in
// blocks (a few thousand rows per claim from the shared cursor of the
// global thread_pool), which keeps the mmap access pattern sequential —
// the page-cache-friendly direction for a store bigger than RAM — and, in
// the batched variant, lets one pass over each block answer EVERY pending
// query while the rows are hot in cache. The serving layer's ScanCombiner
// turns concurrent requests into such batched passes.
//
// Inside a block the scan walks tiles of up to 64 contiguous rows (fewer
// when the query block holds more than 64 vectors, so a tile never holds
// more than 4096 scores). A tile stops at the block's end, at the shard's
// end and before a row the filter rejects, so one row pointer covers it;
// one gosh::simd dot_block/l2_block call scores it against the whole
// query block (the metric branch is hoisted out of the row loop
// entirely). L2 negation and cosine scaling then run over the whole tile
// buffer. Last, each query aggregates each row's scores and compares the
// result with its worker's current k-th score: only a row that can enter
// the top-k pays for a heap update. Every (query, row) score is
// accumulated exactly as dot()/l2_squared() would, then scaled and
// aggregated with the same operations in the same order as per-row code,
// so scores are bit-identical across thread counts, block shapes and
// tiles at a fixed SIMD ISA.
//
// Malformed shapes (query buffer vs vector_counts/dim mismatch, a query
// with no vectors, missing cosine norms) are kInvalidArgument — the scan
// is below the service layer's own validation, but release builds must
// not turn a bad count table into an out-of-bounds read or a made-up
// answer.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "gosh/api/status.hpp"
#include "gosh/query/metric.hpp"
#include "gosh/store/embedding_store.hpp"

namespace gosh::query {

struct ScanOptions {
  /// Worker count; 0 = every worker of the global pool.
  unsigned threads = 0;
  /// Rows claimed per pull; large enough to amortize the cursor, small
  /// enough to balance skewless work.
  std::size_t block_rows = 2048;
};

/// Exact top-k of `query` (length = store.dim()) under `metric`.
/// `inv_norms` must be row_inverse_norms(store, metric). Returns
/// min(k, rows) neighbors ordered by (score desc, id asc).
api::Result<std::vector<Neighbor>> scan_top_k(
    const store::EmbeddingStore& store, std::span<const float> query,
    unsigned k, Metric metric, std::span<const float> inv_norms,
    const ScanOptions& options = {});

/// Batched exact top-k: `queries` holds `count` back-to-back vectors of
/// store.dim() floats; one blocked pass over the store serves all of them.
api::Result<std::vector<std::vector<Neighbor>>> scan_top_k_batch(
    const store::EmbeddingStore& store, std::span<const float> queries,
    std::size_t count, unsigned k, Metric metric,
    std::span<const float> inv_norms, const ScanOptions& options = {});

/// The fully general exact scan underneath the serving layer: query q owns
/// `vector_counts[q]` vectors (laid back-to-back in `vectors`, after the
/// previous query's vectors) and a candidate's score is the Aggregate of
/// its similarity to each of them; rows failing `filter` (when non-empty)
/// never enter an answer. Still one blocked pass over the store for the
/// whole batch. scan_top_k / scan_top_k_batch are the all-counts-1,
/// unfiltered special case.
api::Result<std::vector<std::vector<Neighbor>>> scan_top_k_multi(
    const store::EmbeddingStore& store, std::span<const float> vectors,
    std::span<const std::size_t> vector_counts, unsigned k, Metric metric,
    std::span<const float> inv_norms, Aggregate aggregate,
    const RowFilter& filter, const ScanOptions& options = {});

}  // namespace gosh::query
