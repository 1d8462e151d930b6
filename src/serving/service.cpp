#include "gosh/serving/service.hpp"

#include <algorithm>
#include <utility>

#include "gosh/common/parallel_for.hpp"
#include "gosh/common/timer.hpp"
#include "gosh/query/brute_force.hpp"
#include "gosh/trace/trace.hpp"

namespace gosh::serving {

/// The whole request is rejected on the first malformed query, before any
/// work happens.
api::Status check_request(const QueryRequest& request, vid_t rows,
                          unsigned dim, unsigned k) {
  if (k == 0) return api::Status::invalid_argument("k must be >= 1");
  for (std::size_t q = 0; q < request.queries.size(); ++q) {
    const Query& query = request.queries[q];
    if (query.is_vertex) {
      if (query.vertex_id >= rows) {
        return api::Status::invalid_argument(
            "query " + std::to_string(q) + ": vertex " +
            std::to_string(query.vertex_id) + " out of range (store has " +
            std::to_string(rows) + " rows)");
      }
      continue;
    }
    if (query.vector_count == 0) {
      return api::Status::invalid_argument(
          "query " + std::to_string(q) + ": needs at least one vector");
    }
    if (query.vectors.size() != query.vector_count * dim) {
      return api::Status::invalid_argument(
          "query " + std::to_string(q) + ": holds " +
          std::to_string(query.vectors.size()) + " floats, expected " +
          std::to_string(query.vector_count) + " x dim " +
          std::to_string(dim));
    }
  }
  return api::Status::ok();
}

unsigned fetch_k(const QueryRequest& request, unsigned k) {
  const bool any_vertex =
      std::any_of(request.queries.begin(), request.queries.end(),
                  [](const Query& q) { return q.is_vertex; });
  return any_vertex ? k + 1 : k;
}

void finalize_answer(std::vector<Neighbor>& neighbors, const Query& query,
                     unsigned k) {
  if (query.is_vertex) {
    std::erase_if(neighbors, [&query](const Neighbor& n) {
      return n.id == query.vertex_id;
    });
  }
  if (neighbors.size() > k) neighbors.resize(k);
}

api::Status partial_merge_status(std::string_view what,
                                 std::span<const ShardStatus> shards) {
  std::string missing;
  for (const ShardStatus& shard : shards) {
    if (shard.ok) continue;
    if (!missing.empty()) missing += "; ";
    missing += "shard " + std::to_string(shard.shard) + " (" +
               (shard.backend.empty() ? "no backend" : shard.backend) +
               "): " + shard.error;
  }
  return api::Status::unavailable(std::string(what) + " — " + missing);
}

QueryRequest QueryRequest::for_vertex(vid_t v, unsigned k) {
  QueryRequest request;
  request.queries.push_back(Query::vertex(v));
  request.k = k;
  return request;
}

QueryRequest QueryRequest::for_vector(std::vector<float> values, unsigned k) {
  QueryRequest request;
  request.queries.push_back(Query::vector(std::move(values)));
  request.k = k;
  return request;
}

namespace {

/// The one answer of a single-query response; a partial merge is an error
/// here, since the plain list has nowhere to say which rows are missing.
api::Result<std::vector<Neighbor>> single_answer(
    api::Result<QueryResponse> response) {
  if (!response.ok()) return response.status();
  if (response.value().degraded) {
    return partial_merge_status("partial merge", response.value().shards);
  }
  return std::move(response.value().results.front());
}

}  // namespace

api::Result<std::vector<Neighbor>> QueryService::top_k(
    std::span<const float> query, unsigned k) {
  return single_answer(serve(QueryRequest::for_vector(
      std::vector<float>(query.begin(), query.end()), k)));
}

api::Result<std::vector<Neighbor>> QueryService::top_k_vertex(vid_t v,
                                                              unsigned k) {
  return single_answer(serve(QueryRequest::for_vertex(v, k)));
}

// ---- EngineService --------------------------------------------------------

api::Result<std::unique_ptr<EngineService>> EngineService::open(
    const ServeOptions& options, Strategy strategy, MetricsRegistry* metrics) {
  // Refuses degenerate scan settings (block_rows or ef_search of 0,
  // implausible thread counts) set programmatically, not only by flag.
  if (api::Status status = options.validate(); !status.is_ok()) return status;
  // --shard I/N: serve one shard of a sharded store as a whole store in
  // LOCAL ids — the dist-router child's view of the world.
  auto opened =
      options.shard_count > 0
          ? store::EmbeddingStore::open_shard(
                options.store_path, options.shard_index, options.shard_count,
                options.open_options())
          : store::EmbeddingStore::open(options.store_path,
                                        options.open_options());
  if (!opened.ok()) return opened.status();
  query::HnswIndex index;
  if (strategy == Strategy::kHnsw) {
    auto loaded = query::HnswIndex::load(options.resolved_index_path());
    if (!loaded.ok()) return loaded.status();
    if (api::Status status =
            loaded.value().fits(opened.value(), options.metric);
        !status.is_ok()) {
      return status;
    }
    index = std::move(loaded).value();
  }
  return std::unique_ptr<EngineService>(
      new EngineService(std::move(opened).value(), std::move(index), strategy,
                        options, metrics));
}

EngineService::EngineService(store::EmbeddingStore store,
                             query::HnswIndex index, Strategy strategy,
                             const ServeOptions& options,
                             MetricsRegistry* metrics)
    : store_(std::move(store)),
      index_(std::move(index)),
      strategy_(strategy),
      metric_(options.metric),
      default_k_(options.k),
      default_ef_(options.ef_search),
      scan_{.threads = options.threads,
            .block_rows = static_cast<std::size_t>(options.block_rows)},
      // Metric overrides are lock-free at serve time: the norms a cosine
      // override needs on the exact path are prepared here.
      cosine_norms_(metric_ == Metric::kCosine || strategy == Strategy::kExact
                        ? query::row_inverse_norms(store_, Metric::kCosine)
                        : std::vector<float>()),
      combiner_(
          [this](const ScanKey& key, std::span<const float> vectors,
                 std::span<const std::size_t> vector_counts,
                 const RowFilter& filter) {
            const std::span<const float> norms =
                key.metric == Metric::kCosine ? cosine_norms_
                                              : std::span<const float>();
            return query::scan_top_k_multi(store_, vectors, vector_counts,
                                           key.k, key.metric, norms,
                                           key.aggregate, filter, scan_);
          },
          static_cast<std::size_t>(options.max_batch),
          strategy == Strategy::kExact ? metrics : nullptr) {
  if (metrics != nullptr) {
    requests_ = &metrics->counter("gosh_serving_requests_total",
                                  "QueryService requests served");
    queries_ = &metrics->counter("gosh_serving_queries_total",
                                 "Logical queries answered");
    seconds_ = &metrics->histogram("gosh_serving_request_seconds",
                                   "Wall time per QueryService request");
  }
}

api::Result<std::vector<float>> EngineService::row_vector(vid_t v) const {
  if (v >= rows()) {
    return api::Status::invalid_argument(
        "vertex " + std::to_string(v) + " out of range (store has " +
        std::to_string(rows()) + " rows)");
  }
  const auto row = store_.row(v);
  return std::vector<float>(row.begin(), row.end());
}

api::Result<QueryResponse> EngineService::serve(const QueryRequest& request) {
  WallTimer timer;
  const unsigned k = request.k > 0 ? request.k : default_k_;
  const unsigned ef = request.ef > 0 ? request.ef : default_ef_;
  const Metric metric = request.metric.value_or(metric_);

  if (api::Status status = check_request(request, rows(), dim(), k);
      !status.is_ok()) {
    return status;
  }
  if (strategy_ == Strategy::kHnsw && metric != metric_) {
    return api::Status::invalid_argument(
        std::string("hnsw index was built for metric '") +
        std::string(query::metric_name(metric_)) +
        "', request asks for '" + std::string(query::metric_name(metric)) +
        "'");
  }

  const unsigned fetch = fetch_k(request, k);

  QueryResponse response;
  response.results.resize(request.queries.size());

  if (strategy_ == Strategy::kExact) {
    // Flatten the batch into the generalized scan's shape: one flat vector
    // buffer plus per-query vector counts.
    std::vector<float> vectors;
    std::vector<std::size_t> counts;
    counts.reserve(request.queries.size());
    for (const Query& query : request.queries) {
      if (query.is_vertex) {
        const auto row = store_.row(query.vertex_id);
        vectors.insert(vectors.end(), row.begin(), row.end());
        counts.push_back(1);
      } else {
        vectors.insert(vectors.end(), query.vectors.begin(),
                       query.vectors.end());
        counts.push_back(query.vector_count);
      }
    }
    // Shares a pass with concurrent requests of the same metric,
    // aggregate and fetch k. check_request vets the shapes first, but the
    // scan's own validation (buffer/count mismatch, missing norms) must
    // surface as a Status, not an out-of-bounds read.
    auto scanned = combiner_.scan({metric, request.aggregate, fetch},
                                  vectors, counts, request.filter);
    if (!scanned.ok()) return scanned.status();
    response.results = std::move(scanned).value();
  } else {
    TRACE_SPAN("scan");
    // HNSW: one beam search per vector, fanned across the pool. A filter
    // narrows what the beam may keep, so widen it; multi-vector queries
    // union their per-vector candidates and re-score under the aggregate.
    const unsigned ef_effective =
        request.filter ? std::max(ef, 2 * fetch) : ef;
    ParallelForOptions parallel;
    parallel.threads = scan_.threads;
    parallel.grain = 1;
    parallel_for(
        request.queries.size(),
        [&](std::size_t q) {
          const Query& query = request.queries[q];
          if (query.is_vertex || query.vector_count == 1) {
            const std::span<const float> vec =
                query.is_vertex ? store_.row(query.vertex_id)
                                : std::span<const float>(query.vectors);
            response.results[q] =
                index_.search(store_, vec, fetch, ef_effective, request.filter);
            return;
          }
          // Multi-vector: candidates from each vector's beam...
          std::vector<Neighbor> candidates;
          for (std::size_t i = 0; i < query.vector_count; ++i) {
            const auto vec =
                std::span<const float>(query.vectors).subspan(i * dim(), dim());
            auto found =
                index_.search(store_, vec, fetch, ef_effective, request.filter);
            candidates.insert(candidates.end(), found.begin(), found.end());
          }
          std::sort(candidates.begin(), candidates.end(),
                    [](const Neighbor& a, const Neighbor& b) {
                      return a.id < b.id;
                    });
          candidates.erase(std::unique(candidates.begin(), candidates.end(),
                                       [](const Neighbor& a,
                                          const Neighbor& b) {
                                         return a.id == b.id;
                                       }),
                           candidates.end());
          // ...then re-scored exactly under the aggregate rule.
          const std::span<const float> row_norms = cosine_norms_;
          std::vector<float> vec_norms(
              metric == Metric::kCosine ? query.vector_count : 0);
          for (std::size_t i = 0; i < vec_norms.size(); ++i) {
            vec_norms[i] =
                query::inverse_norm(query.vectors.data() + i * dim(), dim());
          }
          for (Neighbor& candidate : candidates) {
            const float* row = store_.row(candidate.id).data();
            const float row_inv =
                metric == Metric::kCosine ? row_norms[candidate.id] : 0.0f;
            float score = 0.0f;
            for (std::size_t i = 0; i < query.vector_count; ++i) {
              const float* vec = query.vectors.data() + i * dim();
              const float vec_inv =
                  metric == Metric::kCosine ? vec_norms[i] : 0.0f;
              const float sim = query::similarity(metric, vec, row, dim(),
                                                  vec_inv, row_inv);
              if (request.aggregate == Aggregate::kMean) {
                score += sim;
              } else if (i == 0 || sim > score) {
                score = sim;
              }
            }
            if (request.aggregate == Aggregate::kMean) {
              score /= static_cast<float>(query.vector_count);
            }
            candidate.score = score;
          }
          std::sort(candidates.begin(), candidates.end(), query::better);
          if (candidates.size() > fetch) candidates.resize(fetch);
          response.results[q] = std::move(candidates);
        },
        parallel);
  }

  for (std::size_t q = 0; q < request.queries.size(); ++q) {
    finalize_answer(response.results[q], request.queries[q], k);
  }

  response.seconds = timer.seconds();
  if (requests_ != nullptr) {
    requests_->increment();
    queries_->increment(request.queries.size());
    seconds_->observe(response.seconds);
  }
  return response;
}

// ---- Offline index build --------------------------------------------------

api::Result<IndexBuildReport> build_index(const ServeOptions& options) {
  auto opened =
      store::EmbeddingStore::open(options.store_path, options.open_options());
  if (!opened.ok()) return opened.status();
  const store::EmbeddingStore& store = opened.value();
  // The one norm pass a cosine build needs (empty for the other metrics).
  const std::vector<float> norms =
      query::row_inverse_norms(store, options.metric);

  WallTimer timer;
  const query::HnswIndex index =
      query::HnswIndex::build(store, options.hnsw_options(), norms);
  IndexBuildReport report;
  report.seconds = timer.seconds();
  report.path = options.resolved_index_path();
  report.M = index.M();
  report.ef_construction = index.ef_construction();
  report.max_level = index.max_level();
  if (api::Status status = index.save(report.path); !status.is_ok()) {
    return status;
  }
  return report;
}

}  // namespace gosh::serving
