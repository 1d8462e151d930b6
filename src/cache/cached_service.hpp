// CachedService — the "cached:<inner>" registry strategy: any QueryService
// behind a SemanticCache.
//
// The wrapper normalizes each cacheable query to its raw vector (a vertex
// query's stored row, or the single raw vector) and caches the *raw*
// top-(k+1) ranked list the inner service computes for that vector —
// un-finalized, before the probe vertex is dropped. Hits and misses then
// share one finalize step (drop the requesting vertex, trim to k), so a
// threshold-1.0 cache answers bit-identically to the uncached strategy:
// an exact-byte hit replays the same raw list the inner scan would
// recompute, and the k+1 fetch matches EngineService's own vertex idiom.
//
// Not every request is expressible as a cache key. Filters, metric/ef
// overrides and multi-vector queries pass straight through the inner
// service and are reported as `cache-skip`. A degraded inner answer (a
// partial merge) keeps its degraded flag and shard statuses and is never
// inserted: a hit would replay it after the missing shard recovers.
#pragma once

#include <atomic>
#include <memory>
#include <string>

#include "gosh/cache/semantic_cache.hpp"
#include "gosh/serving/service.hpp"

namespace gosh::cache {

/// Wraps `inner` (already opened) behind a SemanticCache configured from
/// the cache_* fields of `options`. `metrics` (optional) receives the
/// gosh_cache_* counters, the hit-ratio gauge and the lookup histogram.
/// Generation token for the store rooted at `path`: the path plus every
/// shard file's size and mtime. Cheap (no payload read), and different
/// for any store rewritten through the filesystem — what the semantic
/// cache flushes on and what /healthz reports as "store_generation" so a
/// restarted shard child can be checked for serving the same bytes.
std::uint64_t store_fingerprint(const std::string& path);

/// The cache generation is derived from the store files' identity
/// (path + size + mtime), so a service opened over a rewritten store
/// starts cold even if the cache object were shared.
api::Result<std::unique_ptr<serving::QueryService>> wrap_with_cache(
    std::unique_ptr<serving::QueryService> inner,
    const serving::ServeOptions& options,
    serving::MetricsRegistry* metrics);

class CachedService final : public serving::QueryService {
 public:
  CachedService(std::unique_ptr<serving::QueryService> inner,
                const serving::ServeOptions& options,
                serving::MetricsRegistry* metrics);

  api::Result<serving::QueryResponse> serve(
      const serving::QueryRequest& request) override;
  vid_t rows() const noexcept override { return inner_->rows(); }
  unsigned dim() const noexcept override { return inner_->dim(); }
  serving::Metric default_metric() const noexcept override {
    return inner_->default_metric();
  }
  std::string_view strategy_name() const noexcept override { return name_; }
  api::Result<std::vector<float>> row_vector(vid_t v) const override {
    return inner_->row_vector(v);
  }

  SemanticCache& cache() noexcept { return cache_; }
  const serving::QueryService& inner() const noexcept { return *inner_; }

 private:
  /// Forwards the whole request untouched, tagging every query cache-skip.
  api::Result<serving::QueryResponse> serve_skipped(
      const serving::QueryRequest& request);
  void publish_gauges();

  std::unique_ptr<serving::QueryService> inner_;
  std::string name_;  ///< "cached:" + inner strategy name
  unsigned default_k_;
  SemanticCache cache_;

  serving::Counter* hits_ = nullptr;
  serving::Counter* misses_ = nullptr;
  serving::Counter* skips_ = nullptr;
  serving::Counter* insertions_ = nullptr;
  serving::Counter* evictions_ = nullptr;
  serving::Gauge* hit_ratio_ = nullptr;
  serving::Gauge* entries_ = nullptr;
  serving::Histogram* lookup_seconds_ = nullptr;
  /// Evictions already pushed to the counter (TTL/generation evictions
  /// happen inside the cache, so the counter reconciles against stats()).
  std::atomic<std::uint64_t> evictions_seen_{0};
};

}  // namespace gosh::cache
