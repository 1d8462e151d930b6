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

namespace {

/// Drops the probe vertex from its own answer and trims to k.
void finalize_answer(std::vector<Neighbor>& neighbors, const Query& query,
                     unsigned k) {
  if (query.is_vertex) {
    std::erase_if(neighbors, [&query](const Neighbor& n) {
      return n.id == query.vertex_id;
    });
  }
  if (neighbors.size() > k) neighbors.resize(k);
}

}  // namespace

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

api::Result<std::vector<Neighbor>> QueryService::top_k(
    std::span<const float> query, unsigned k) {
  auto response = serve(QueryRequest::for_vector(
      std::vector<float>(query.begin(), query.end()), k));
  if (!response.ok()) return response.status();
  return std::move(response.value().results.front());
}

api::Result<std::vector<Neighbor>> QueryService::top_k_vertex(vid_t v,
                                                              unsigned k) {
  auto response = serve(QueryRequest::for_vertex(v, k));
  if (!response.ok()) return response.status();
  return std::move(response.value().results.front());
}

// ---- EngineService --------------------------------------------------------

api::Result<std::unique_ptr<EngineService>> EngineService::open(
    const ServeOptions& options, query::Strategy strategy,
    MetricsRegistry* metrics) {
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
  auto engine = query::QueryEngine::create(std::move(opened).value(),
                                           options.engine_options());
  if (!engine.ok()) return engine.status();
  auto service = std::make_unique<EngineService>(
      std::move(engine).value(), strategy, options, metrics);
  if (strategy == query::Strategy::kHnsw) {
    if (api::Status status =
            service->engine_.load_index(options.resolved_index_path());
        !status.is_ok()) {
      return status;
    }
  }
  return service;
}

EngineService::EngineService(query::QueryEngine engine,
                             query::Strategy strategy,
                             const ServeOptions& defaults,
                             MetricsRegistry* metrics)
    : engine_(std::move(engine)),
      strategy_(strategy),
      default_k_(defaults.k),
      default_ef_(defaults.ef_search),
      combiner_(
          [this](const ScanKey& key, std::span<const float> vectors,
                 std::span<const std::size_t> vector_counts,
                 const RowFilter& filter) {
            query::ScanOptions scan;
            scan.threads = engine_.options().threads;
            scan.block_rows = engine_.options().block_rows;
            return query::scan_top_k_multi(
                engine_.store(), vectors, vector_counts, key.k, key.metric,
                norms_for(key.metric), key.aggregate, filter, scan);
          },
          static_cast<std::size_t>(defaults.max_batch),
          strategy == query::Strategy::kExact ? metrics : nullptr) {
  if (metrics != nullptr) {
    requests_ = &metrics->counter("gosh_serving_requests_total",
                                  "QueryService requests served");
    queries_ = &metrics->counter("gosh_serving_queries_total",
                                 "Logical queries answered");
    seconds_ = &metrics->histogram("gosh_serving_request_seconds",
                                   "Wall time per QueryService request");
  }
  // Metric overrides are lock-free at serve time: the only mutable state a
  // cosine override needs (norms for a non-cosine engine) is prepared
  // here, with one extra pass over the store.
  if (engine_.metric() != Metric::kCosine &&
      strategy_ == query::Strategy::kExact) {
    override_cosine_norms_ =
        query::row_inverse_norms(engine_.store(), Metric::kCosine);
  }
}

std::span<const float> EngineService::norms_for(Metric metric) const noexcept {
  if (metric != Metric::kCosine) return {};
  return engine_.metric() == Metric::kCosine
             ? engine_.inv_norms()
             : std::span<const float>(override_cosine_norms_);
}

api::Result<std::vector<float>> EngineService::row_vector(vid_t v) const {
  if (v >= rows()) {
    return api::Status::invalid_argument(
        "vertex " + std::to_string(v) + " out of range (store has " +
        std::to_string(rows()) + " rows)");
  }
  const auto row = engine_.store().row(v);
  return std::vector<float>(row.begin(), row.end());
}

api::Result<QueryResponse> EngineService::serve(const QueryRequest& request) {
  WallTimer timer;
  const unsigned k = request.k > 0 ? request.k : default_k_;
  const unsigned ef = request.ef > 0 ? request.ef : default_ef_;
  const Metric metric = request.metric.value_or(engine_.metric());

  if (api::Status status = check_request(request, rows(), dim(), k);
      !status.is_ok()) {
    return status;
  }
  if (strategy_ == query::Strategy::kHnsw && metric != engine_.metric()) {
    return api::Status::invalid_argument(
        std::string("hnsw index was built for metric '") +
        std::string(query::metric_name(engine_.metric())) +
        "', request asks for '" + std::string(query::metric_name(metric)) +
        "'");
  }

  // Vertex queries fetch one extra neighbor so dropping the probe itself
  // still leaves k answers — the QueryEngine::top_k_vertex idiom.
  const bool any_vertex =
      std::any_of(request.queries.begin(), request.queries.end(),
                  [](const Query& q) { return q.is_vertex; });
  const unsigned fetch_k = any_vertex ? k + 1 : k;

  QueryResponse response;
  response.results.resize(request.queries.size());

  if (strategy_ == query::Strategy::kExact) {
    // Flatten the batch into the generalized scan's shape: one flat vector
    // buffer plus per-query vector counts.
    std::vector<float> vectors;
    std::vector<std::size_t> counts;
    counts.reserve(request.queries.size());
    for (const Query& query : request.queries) {
      if (query.is_vertex) {
        const auto row = engine_.store().row(query.vertex_id);
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
    auto scanned = combiner_.scan({metric, request.aggregate, fetch_k},
                                  vectors, counts, request.filter);
    if (!scanned.ok()) return scanned.status();
    response.results = std::move(scanned).value();
  } else {
    TRACE_SPAN("scan");
    // HNSW: one beam search per vector, fanned across the pool. A filter
    // narrows what the beam may keep, so widen it; multi-vector queries
    // union their per-vector candidates and re-score under the aggregate.
    const unsigned ef_effective =
        request.filter ? std::max(ef, 2 * fetch_k) : ef;
    ParallelForOptions parallel;
    parallel.threads = engine_.options().threads;
    parallel.grain = 1;
    parallel_for(
        request.queries.size(),
        [&](std::size_t q) {
          const Query& query = request.queries[q];
          if (query.is_vertex || query.vector_count == 1) {
            const std::span<const float> vec =
                query.is_vertex
                    ? engine_.store().row(query.vertex_id)
                    : std::span<const float>(query.vectors);
            response.results[q] = engine_.index().search(
                engine_.store(), vec, fetch_k, ef_effective, request.filter);
            return;
          }
          // Multi-vector: candidates from each vector's beam...
          std::vector<Neighbor> candidates;
          for (std::size_t i = 0; i < query.vector_count; ++i) {
            const auto vec =
                std::span<const float>(query.vectors).subspan(i * dim(), dim());
            auto found = engine_.index().search(engine_.store(), vec, fetch_k,
                                                ef_effective, request.filter);
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
          const std::span<const float> row_norms = engine_.inv_norms();
          std::vector<float> vec_norms(
              metric == Metric::kCosine ? query.vector_count : 0);
          for (std::size_t i = 0; i < vec_norms.size(); ++i) {
            vec_norms[i] =
                query::inverse_norm(query.vectors.data() + i * dim(), dim());
          }
          for (Neighbor& candidate : candidates) {
            const float* row = engine_.store().row(candidate.id).data();
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
          if (candidates.size() > fetch_k) candidates.resize(fetch_k);
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
  auto engine = query::QueryEngine::create(std::move(opened).value(),
                                           options.engine_options());
  if (!engine.ok()) return engine.status();

  WallTimer timer;
  // Built through the engine so the build reuses its cosine norm cache
  // instead of re-scanning the store.
  if (api::Status status = engine.value().build_index(options.hnsw_options());
      !status.is_ok()) {
    return status;
  }
  IndexBuildReport report;
  report.seconds = timer.seconds();
  report.path = options.resolved_index_path();
  const query::HnswIndex& index = engine.value().index();
  report.M = index.M();
  report.ef_construction = index.ef_construction();
  report.max_level = index.max_level();
  if (api::Status status = index.save(report.path); !status.is_ok()) {
    return status;
  }
  return report;
}

}  // namespace gosh::serving
