#include "gosh/cache/cached_service.hpp"

#include <filesystem>
#include <utility>

#include "gosh/common/timer.hpp"
#include "gosh/store/embedding_store.hpp"
#include "gosh/trace/trace.hpp"

namespace gosh::cache {

/// Generation token for the store behind a service: the store path plus
/// every shard file's size and mtime. A rewritten or replaced store gets a
/// different token, so set_generation() flushes whatever an earlier
/// incarnation cached. (The payload checksum would be the perfect token,
/// but reading it costs a full store pass; file identity is the cheap
/// fingerprint that catches every rewrite-through-the-filesystem.)
std::uint64_t store_fingerprint(const std::string& path) {
  namespace fs = std::filesystem;
  std::uint64_t h = store::fnv1a64(path.data(), path.size());
  auto info = store::EmbeddingStore::probe(path);
  const std::uint32_t shards = info.ok() ? info.value().shard_count : 1;
  for (std::uint32_t s = 0; s < shards; ++s) {
    const fs::path shard = store::EmbeddingStore::shard_path(path, s, shards);
    std::error_code ec;
    const std::uintmax_t size = fs::file_size(shard, ec);
    if (ec) continue;
    h = store::fnv1a64(&size, sizeof(size), h);
    const auto mtime = fs::last_write_time(shard, ec);
    if (!ec) {
      const auto ticks = mtime.time_since_epoch().count();
      h = store::fnv1a64(&ticks, sizeof(ticks), h);
    }
  }
  return h;
}

CachedService::CachedService(std::unique_ptr<serving::QueryService> inner,
                             const serving::ServeOptions& options,
                             serving::MetricsRegistry* metrics)
    : inner_(std::move(inner)),
      name_("cached:" + std::string(inner_->strategy_name())),
      default_k_(options.k),
      cache_(SemanticCacheOptions{
          .capacity = static_cast<std::size_t>(options.cache_capacity),
          .threshold = options.cache_threshold,
          .ttl_ms = options.cache_ttl_ms,
      }) {
  if (metrics != nullptr) {
    hits_ = &metrics->counter("gosh_cache_hits_total",
                              "Queries answered from the semantic cache");
    misses_ = &metrics->counter("gosh_cache_misses_total",
                                "Cacheable queries the cache could not answer");
    skips_ = &metrics->counter(
        "gosh_cache_skips_total",
        "Queries bypassing the cache (filters, overrides, multi-vector)");
    insertions_ = &metrics->counter("gosh_cache_insertions_total",
                                    "Raw result lists inserted");
    evictions_ = &metrics->counter(
        "gosh_cache_evictions_total",
        "Entries dropped by capacity, TTL or generation flush");
    hit_ratio_ = &metrics->gauge("gosh_cache_hit_ratio",
                                 "hits / (hits + misses) since start");
    entries_ = &metrics->gauge("gosh_cache_entries", "Live cached entries");
    lookup_seconds_ = &metrics->histogram("gosh_cache_lookup_seconds",
                                          "Cache lookup latency");
  }
}

void CachedService::publish_gauges() {
  const CacheStats stats = cache_.stats();
  if (evictions_ != nullptr) {
    // The cache also evicts outside insert() (TTL lapse, generation
    // flush); reconcile the counter against the cache's own total. The CAS
    // claims [prev, total) for exactly one thread, so concurrent serves
    // never double-count an eviction.
    std::uint64_t prev = evictions_seen_.load(std::memory_order_relaxed);
    while (stats.evictions > prev) {
      if (evictions_seen_.compare_exchange_weak(prev, stats.evictions,
                                                std::memory_order_relaxed)) {
        evictions_->increment(stats.evictions - prev);
        break;
      }
    }
  }
  if (hit_ratio_ != nullptr && stats.hits + stats.misses > 0) {
    hit_ratio_->set(static_cast<double>(stats.hits) /
                    static_cast<double>(stats.hits + stats.misses));
  }
  if (entries_ != nullptr) {
    entries_->set(static_cast<double>(cache_.size()));
  }
}

api::Result<serving::QueryResponse> CachedService::serve_skipped(
    const serving::QueryRequest& request) {
  auto response = inner_->serve(request);
  if (!response.ok()) return response;
  response.value().cache.assign(request.queries.size(),
                                serving::CacheOutcome::kSkip);
  if (skips_ != nullptr) skips_->increment(request.queries.size());
  return response;
}

api::Result<serving::QueryResponse> CachedService::serve(
    const serving::QueryRequest& request) {
  using serving::CacheOutcome;
  // Request-wide knobs the cache key does not encode bypass the cache
  // wholesale (and say so in the response).
  if (request.filter || request.metric.has_value() || request.ef > 0) {
    return serve_skipped(request);
  }

  WallTimer timer;
  const unsigned k = request.k > 0 ? request.k : default_k_;
  if (api::Status status = check_request(request, rows(), dim(), k);
      !status.is_ok()) {
    return status;
  }

  const std::size_t n = request.queries.size();
  serving::QueryResponse response;
  response.results.resize(n);
  response.cache.assign(n, CacheOutcome::kMiss);

  // Misses (and multi-vector skips) collect into one inner sub-request.
  // It fetches k+1 so a vertex probe can be dropped from its own raw list
  // — the EngineService idiom — and the cached entry keeps the full k+1
  // so proximity hits from OTHER vertices still have k answers left after
  // dropping themselves.
  serving::QueryRequest sub;
  sub.k = k + 1;
  sub.aggregate = request.aggregate;
  std::vector<std::size_t> forwarded;
  std::vector<std::vector<float>> miss_vecs(n);

  std::uint64_t hit_count = 0, skip_count = 0, miss_count = 0;
  for (std::size_t q = 0; q < n; ++q) {
    const serving::Query& query = request.queries[q];
    if (!query.is_vertex && query.vector_count != 1) {
      response.cache[q] = CacheOutcome::kSkip;
      ++skip_count;
      forwarded.push_back(q);
      sub.queries.push_back(query);
      continue;
    }
    std::vector<float> vec;
    if (query.is_vertex) {
      auto row = inner_->row_vector(query.vertex_id);
      if (!row.ok()) return row.status();
      vec = std::move(row).value();
    } else {
      vec = query.vectors;
    }
    std::optional<std::vector<query::Neighbor>> cached;
    {
      TRACE_SPAN("cache-lookup");
      WallTimer lookup_timer;
      cached = cache_.lookup(vec, k);
      if (lookup_seconds_ != nullptr) {
        lookup_seconds_->observe(lookup_timer.seconds());
      }
    }
    if (cached.has_value()) {
      response.results[q] = std::move(cached).value();
      response.cache[q] = CacheOutcome::kHit;
      ++hit_count;
    } else {
      ++miss_count;
      forwarded.push_back(q);
      sub.queries.push_back(serving::Query::vector(vec));
      miss_vecs[q] = std::move(vec);
    }
  }

  if (!sub.queries.empty()) {
    auto served = inner_->serve(sub);
    if (!served.ok()) return served.status();
    // A partial merge is answered as such and never cached: a hit would
    // replay it after the missing shard recovers.
    response.degraded = served.value().degraded;
    response.shards = std::move(served.value().shards);
    for (std::size_t j = 0; j < forwarded.size(); ++j) {
      const std::size_t q = forwarded[j];
      std::vector<query::Neighbor>& raw = served.value().results[j];
      if (response.cache[q] == CacheOutcome::kMiss && !response.degraded) {
        TRACE_SPAN("cache-insert");
        const InsertOutcome inserted = cache_.insert(miss_vecs[q], k, raw);
        if (insertions_ != nullptr && inserted.inserted) {
          insertions_->increment();
        }
      }
      response.results[q] = std::move(raw);
    }
  }

  // One finalize step shared by hits, misses and skips, mirroring the
  // inner strategies.
  for (std::size_t q = 0; q < n; ++q) {
    serving::finalize_answer(response.results[q], request.queries[q], k);
  }

  response.seconds = timer.seconds();
  if (hits_ != nullptr) {
    hits_->increment(hit_count);
    misses_->increment(miss_count);
    skips_->increment(skip_count);
  }
  publish_gauges();
  return response;
}

api::Result<std::unique_ptr<serving::QueryService>> wrap_with_cache(
    std::unique_ptr<serving::QueryService> inner,
    const serving::ServeOptions& options, serving::MetricsRegistry* metrics) {
  if (inner == nullptr) {
    return api::Status::invalid_argument("cached: null inner service");
  }
  auto service =
      std::make_unique<CachedService>(std::move(inner), options, metrics);
  service->cache().set_generation(store_fingerprint(options.store_path));
  return std::unique_ptr<serving::QueryService>(std::move(service));
}

}  // namespace gosh::cache
