#include "gosh/query/brute_force.hpp"

#include <algorithm>
#include <string>

#include "gosh/common/parallel_for.hpp"
#include "gosh/common/simd.hpp"

namespace gosh::query {
namespace {

// Bounded top-k kept as a heap whose front is the WORST retained neighbor
// (std::push_heap with `better` as the ordering puts the minimum of the
// `better` order at the front), so a candidate only costs a heap update
// when it actually beats the current cut line.
struct TopK {
  std::vector<Neighbor> heap;

  void offer(unsigned k, Neighbor candidate) {
    if (heap.size() < k) {
      heap.push_back(candidate);
      std::push_heap(heap.begin(), heap.end(), better);
    } else if (better(candidate, heap.front())) {
      std::pop_heap(heap.begin(), heap.end(), better);
      heap.back() = candidate;
      std::push_heap(heap.begin(), heap.end(), better);
    }
  }
};

// One candidate's score from its similarities to a query's `n` vectors:
// the best one (kMax) or their mean (kMean). The mean starts from 0.0f
// even for one vector, so a -0.0 similarity scores +0.0.
inline float aggregate_score(const float* sims, std::size_t n, bool mean) {
  if (mean) {
    float sum = 0.0f;
    for (std::size_t i = 0; i < n; ++i) sum += sims[i];
    return sum / static_cast<float>(n);
  }
  float best = sims[0];
  for (std::size_t i = 1; i < n; ++i) {
    if (sims[i] > best) best = sims[i];
  }
  return best;
}

// Rows scored per block-kernel call: 64 rows of d = 128 are 32 KiB, so a
// tile and its query block stay in L1/L2 while the per-row loop reads
// the scores back. A block of more than 64 query vectors gets fewer rows
// per tile, so the tile's score buffer never exceeds kTileScores (16 KiB)
// whatever the batch size.
constexpr std::size_t kTileRows = 64;
constexpr std::size_t kTileScores = 4096;

}  // namespace

api::Result<std::vector<std::vector<Neighbor>>> scan_top_k_multi(
    const store::EmbeddingStore& store, std::span<const float> vectors,
    std::span<const std::size_t> vector_counts, unsigned k, Metric metric,
    std::span<const float> inv_norms, Aggregate aggregate,
    const RowFilter& filter, const ScanOptions& options) {
  const unsigned d = store.dim();
  const std::size_t count = vector_counts.size();
  std::size_t total_vectors = 0;
  for (std::size_t q = 0; q < count; ++q) {
    // A query without vectors has no score to rank by.
    if (vector_counts[q] == 0) {
      return api::Status::invalid_argument("exact scan: query " +
                                           std::to_string(q) +
                                           " holds no vectors");
    }
    total_vectors += vector_counts[q];
  }
  // A malformed count table must be a clean error: in a release build the
  // old assert compiled away and the scan read past the query buffer.
  if (vectors.size() != total_vectors * d) {
    return api::Status::invalid_argument(
        "exact scan: query buffer holds " + std::to_string(vectors.size()) +
        " floats, vector_counts sum to " + std::to_string(total_vectors) +
        " x dim " + std::to_string(d));
  }
  if (metric == Metric::kCosine && inv_norms.size() != store.rows()) {
    return api::Status::invalid_argument(
        "exact scan: cosine needs one inverse norm per stored row (got " +
        std::to_string(inv_norms.size()) + ", store has " +
        std::to_string(store.rows()) + " rows)");
  }
  std::vector<std::vector<Neighbor>> results(count);
  if (count == 0 || k == 0 || store.rows() == 0) return results;

  // Per-vector inverse norms (cosine only) and each query's offset into the
  // flat vector buffer, both computed once up front.
  std::vector<float> vector_inv(metric == Metric::kCosine ? total_vectors : 0);
  for (std::size_t i = 0; i < vector_inv.size(); ++i) {
    vector_inv[i] = inverse_norm(vectors.data() + i * d, d);
  }
  std::vector<std::size_t> first_vector(count, 0);
  for (std::size_t q = 1; q < count; ++q) {
    first_vector[q] = first_vector[q - 1] + vector_counts[q - 1];
  }

  ParallelForOptions parallel;
  parallel.threads = options.threads;
  parallel.grain = options.block_rows > 0 ? options.block_rows : 1;

  const unsigned workers = effective_threads(parallel);
  // scratch[worker][query] — merged after the scan; tile_scores[worker]
  // holds one similarity per (tile row, query vector).
  std::vector<std::vector<TopK>> scratch(workers);
  for (auto& per_query : scratch) per_query.resize(count);
  std::vector<std::vector<float>> tile_scores(workers);
  const std::size_t tile_rows =
      std::clamp<std::size_t>(kTileScores / total_vectors, 1, kTileRows);

  // The kernel table and the metric branch are resolved out here, once:
  // each tile is scored by a single block-kernel call, then the per-row
  // loop reads the branch-free similarity buffer.
  const simd::KernelTable& kernels = simd::kernels();
  const bool is_l2 = metric == Metric::kL2;
  const bool is_cosine = metric == Metric::kCosine;
  const bool mean = aggregate == Aggregate::kMean;

  parallel_for_worker(
      store.rows(),
      [&](unsigned worker, std::size_t begin, std::size_t end) {
        std::vector<TopK>& local = scratch[worker];
        std::vector<float>& scores = tile_scores[worker];
        scores.resize(tile_rows * total_vectors);
        std::size_t v = begin;
        while (v < end) {
          // A tile stops at the block's end, at the shard's end (so one
          // row pointer covers it) and before the first filtered-out row.
          const std::size_t stop = std::min<std::size_t>(
              {end, v + tile_rows,
               v + store.contiguous_rows(static_cast<vid_t>(v))});
          std::size_t rows = stop - v;
          if (filter) {
            rows = 0;
            while (v + rows < stop && filter(static_cast<vid_t>(v + rows))) {
              ++rows;
            }
          }
          const float* tile = store.row(static_cast<vid_t>(v)).data();
          if (is_l2) {
            kernels.l2_block(vectors.data(), total_vectors, tile, rows, d,
                             scores.data());
          } else {
            kernels.dot_block(vectors.data(), total_vectors, tile, rows, d,
                              scores.data());
          }
          // L2 negation and cosine scaling over the whole tile, each score
          // computed with the same operations in the same order as before.
          const std::size_t scored = rows * total_vectors;
          if (is_l2) {
            for (std::size_t i = 0; i < scored; ++i) {
              scores[i] = -scores[i];
            }
          } else if (is_cosine) {
            for (std::size_t r = 0; r < rows; ++r) {
              float* row_scores = scores.data() + r * total_vectors;
              const float row_inv = inv_norms[v + r];
              for (std::size_t i = 0; i < total_vectors; ++i) {
                row_scores[i] = row_scores[i] * vector_inv[i] * row_inv;
              }
            }
          }
          for (std::size_t q = 0; q < count; ++q) {
            TopK& top = local[q];
            const float* sims = scores.data() + first_vector[q];
            const std::size_t n = vector_counts[q];
            for (std::size_t r = 0; r < rows; ++r) {
              const float score =
                  aggregate_score(sims + r * total_vectors, n, mean);
              // The gate: once the heap holds k, a row that cannot beat its
              // worst entry skips offer(). `>=` is false for NaN on either
              // side, exactly where offer() would reject too; ties go on
              // to offer(), which orders them by id.
              if (top.heap.size() < k || score >= top.heap.front().score) {
                top.offer(k, {static_cast<vid_t>(v + r), score});
              }
            }
          }
          // Past the tile, and past the row that failed the filter.
          v += rows < stop - v ? rows + 1 : rows;
        }
      },
      parallel);

  for (std::size_t q = 0; q < count; ++q) {
    std::vector<Neighbor>& merged = results[q];
    for (unsigned w = 0; w < workers; ++w) {
      merged.insert(merged.end(), scratch[w][q].heap.begin(),
                    scratch[w][q].heap.end());
    }
    std::sort(merged.begin(), merged.end(), better);
    if (merged.size() > k) merged.resize(k);
  }
  return results;
}

api::Result<std::vector<std::vector<Neighbor>>> scan_top_k_batch(
    const store::EmbeddingStore& store, std::span<const float> queries,
    std::size_t count, unsigned k, Metric metric,
    std::span<const float> inv_norms, const ScanOptions& options) {
  const std::vector<std::size_t> ones(count, 1);
  return scan_top_k_multi(store, queries, ones, k, metric, inv_norms,
                          Aggregate::kMax, RowFilter{}, options);
}

api::Result<std::vector<Neighbor>> scan_top_k(
    const store::EmbeddingStore& store, std::span<const float> query,
    unsigned k, Metric metric, std::span<const float> inv_norms,
    const ScanOptions& options) {
  auto results = scan_top_k_batch(store, query, 1, k, metric, inv_norms,
                                  options);
  if (!results.ok()) return results.status();
  return std::move(results.value().front());
}

}  // namespace gosh::query
