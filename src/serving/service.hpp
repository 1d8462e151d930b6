// QueryService — the serving facade's one interface, the query-side twin
// of api::Embedder.
//
// The query layer's kernels (the exact scan, HnswIndex) sit behind one
// request/response model here, the way the training side folded its
// engines behind Embedder. A QueryRequest carries a batch of logical
// queries — each a stored vertex (self-excluded from its own answer) or
// one-or-more raw vectors scored jointly — plus per-request overrides
// (k, ef, metric) and an optional vertex-filter predicate; every strategy
// ("exact", "hnsw", the sharded dist-router, ...) answers the same model, so
// callers pick a strategy by registry key, not by API shape.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "gosh/api/status.hpp"
#include "gosh/common/types.hpp"
#include "gosh/query/brute_force.hpp"
#include "gosh/query/hnsw.hpp"
#include "gosh/query/metric.hpp"
#include "gosh/serving/metrics.hpp"
#include "gosh/serving/options.hpp"
#include "gosh/serving/scan_combiner.hpp"
#include "gosh/store/embedding_store.hpp"

namespace gosh::serving {

using query::Aggregate;
using query::Metric;
using query::Neighbor;
using query::RowFilter;

/// One logical query. Exactly one of the two shapes:
///   * vertex — the stored row becomes the query vector and the vertex is
///     excluded from its own answer;
///   * vectors — `vector_count` raw dim-float vectors laid back-to-back,
///     scored jointly under the request's Aggregate rule (1 vector = the
///     plain single-query case).
struct Query {
  static Query vertex(vid_t v) {
    Query query;
    query.is_vertex = true;
    query.vertex_id = v;
    return query;
  }
  static Query vector(std::vector<float> values) {
    return multi(std::move(values), 1);
  }
  static Query multi(std::vector<float> values, std::size_t count) {
    Query query;
    query.vectors = std::move(values);
    query.vector_count = count;
    return query;
  }

  bool is_vertex = false;
  vid_t vertex_id = 0;
  std::vector<float> vectors;     ///< vector_count * dim floats
  std::size_t vector_count = 0;   ///< 0 for vertex queries
};

struct QueryRequest {
  std::vector<Query> queries;     ///< the batch; serve() answers each
  unsigned k = 0;                 ///< 0 = the service's default
  unsigned ef = 0;                ///< hnsw beam width; 0 = service default
  /// Per-request metric override. The exact strategy honors any metric;
  /// index-backed strategies reject a metric their index was not built
  /// for (kInvalidArgument).
  std::optional<Metric> metric;
  Aggregate aggregate = Aggregate::kMax;  ///< multi-vector combine rule
  /// Only ids passing the predicate may appear in answers (global ids,
  /// also under the sharded dist-router). Empty = no filter.
  RowFilter filter;
  /// The structured [begin, end) range behind `filter`, when the filter
  /// came off the wire or a --filter flag (0,0 = not expressible as a
  /// range). The predicate stays authoritative for in-process strategies;
  /// remote strategies can only FORWARD a filter that carries this range —
  /// an arbitrary predicate does not serialize.
  vid_t filter_begin = 0;
  vid_t filter_end = 0;

  // Single-query conveniences.
  static QueryRequest for_vertex(vid_t v, unsigned k = 0);
  static QueryRequest for_vector(std::vector<float> values, unsigned k = 0);
};

/// How the semantic cache treated one query of a request (the
/// "cached:<inner>" strategy). kHit = answered from a cached entry,
/// kMiss = computed by the inner service (and inserted), kSkip = not
/// expressible as a cache key (filter/metric/ef override, multi-vector).
enum class CacheOutcome : std::uint8_t { kMiss = 0, kHit, kSkip };

constexpr std::string_view cache_outcome_name(CacheOutcome outcome) noexcept {
  switch (outcome) {
    case CacheOutcome::kHit:
      return "hit";
    case CacheOutcome::kSkip:
      return "skip";
    case CacheOutcome::kMiss:
    default:
      return "miss";
  }
}

/// How one shard of a distributed scatter fared — the per-shard
/// annotation a degraded DistRouter response carries so callers can see
/// WHICH shard is missing from a partial merge, not just that one is.
struct ShardStatus {
  unsigned shard = 0;       ///< shard index in the store's layout
  std::string backend;      ///< "host:port" answering (or last tried)
  bool ok = false;          ///< this shard's rows are in the merge
  unsigned retries = 0;     ///< extra attempts spent on this shard
  bool hedged = false;      ///< a hedge request was launched
  double seconds = 0.0;     ///< wall time until answer (or give-up)
  std::string error;        ///< empty when ok; else the failure, briefly
};

struct QueryResponse {
  /// One ranked (score desc, id asc) list per request query.
  std::vector<std::vector<Neighbor>> results;
  /// Per-query cache disposition, parallel to `results`. Empty unless a
  /// caching strategy served the request; the HTTP handler surfaces it as
  /// a "cache" array for debuggability.
  std::vector<CacheOutcome> cache;
  /// True when a distributed strategy answered from a PARTIAL merge (a
  /// shard was down past its deadline/breaker). The results are still
  /// correctly ranked — over the shards that answered.
  bool degraded = false;
  /// Per-shard disposition, one entry per shard of the scattered store.
  /// Empty unless a distributed strategy served the request.
  std::vector<ShardStatus> shards;
  double seconds = 0.0;  ///< service-side wall time for the whole request
};

/// Shape-checks every query of a request against a service's store (k
/// positive, vertices in range, vector buffers = vector_count * dim).
/// Shared by the concrete services so every strategy rejects the same
/// malformed requests with the same messages.
api::Status check_request(const QueryRequest& request, vid_t rows,
                          unsigned dim, unsigned k);

/// Neighbors to fetch per query for an answer of k: one extra when any
/// query is a vertex, so dropping the probe itself still leaves k.
unsigned fetch_k(const QueryRequest& request, unsigned k);

/// Drops the probe vertex from its own answer and trims to k.
void finalize_answer(std::vector<Neighbor>& neighbors, const Query& query,
                     unsigned k);

/// kUnavailable whose message is `what`, then each shard missing from a
/// partial merge: its index, its backend and its error.
api::Status partial_merge_status(std::string_view what,
                                 std::span<const ShardStatus> shards);

class QueryService {
 public:
  virtual ~QueryService() = default;

  /// Answers every query of the request or fails as a whole — a malformed
  /// query (bad dim, vertex out of range, unsupported override) rejects
  /// the request without partial results.
  virtual api::Result<QueryResponse> serve(const QueryRequest& request) = 0;

  virtual vid_t rows() const noexcept = 0;
  virtual unsigned dim() const noexcept = 0;
  virtual Metric default_metric() const noexcept = 0;
  /// The registry key this service answers as ("exact", "hnsw", ...).
  virtual std::string_view strategy_name() const noexcept = 0;

  /// The stored embedding of vertex `v` — how tools turn ids into raw
  /// vectors (e.g. to build multi-vector queries) without a store handle.
  virtual api::Result<std::vector<float>> row_vector(vid_t v) const = 0;

  // Convenience single-query entry points over serve(). A degraded
  // (partial) answer is kUnavailable naming the missing shards.
  api::Result<std::vector<Neighbor>> top_k(std::span<const float> query,
                                           unsigned k = 0);
  api::Result<std::vector<Neighbor>> top_k_vertex(vid_t v, unsigned k = 0);
};

/// How an EngineService answers: the "exact" and "hnsw" registry entries.
enum class Strategy {
  kExact,  ///< blocked parallel brute-force scan (ground truth)
  kHnsw,   ///< approximate graph index, loaded beside the store
};

constexpr std::string_view strategy_name(Strategy strategy) noexcept {
  return strategy == Strategy::kExact ? "exact" : "hnsw";
}

/// QueryService over one mapped store, answering with a fixed strategy.
/// Thread-safe for concurrent serve() calls. Exact requests go through a
/// ScanCombiner, so concurrent compatible requests share one pass over
/// the store (at most ServeOptions::max_batch queries per pass); the HNSW
/// path only reads shared state. Callers must not be global-pool workers
/// if they want to share passes (see scan_combiner.hpp).
class EngineService final : public QueryService {
 public:
  /// Validates `options`, opens the store they name and, for the "hnsw"
  /// strategy, loads options.resolved_index_path() and checks it fits the
  /// store and metric. `metrics` (optional) receives request counters and
  /// latency histograms.
  static api::Result<std::unique_ptr<EngineService>> open(
      const ServeOptions& options, Strategy strategy,
      MetricsRegistry* metrics = nullptr);

  api::Result<QueryResponse> serve(const QueryRequest& request) override;
  vid_t rows() const noexcept override { return store_.rows(); }
  unsigned dim() const noexcept override { return store_.dim(); }
  Metric default_metric() const noexcept override { return metric_; }
  std::string_view strategy_name() const noexcept override {
    return serving::strategy_name(strategy_);
  }
  api::Result<std::vector<float>> row_vector(vid_t v) const override;

 private:
  EngineService(store::EmbeddingStore store, query::HnswIndex index,
                Strategy strategy, const ServeOptions& options,
                MetricsRegistry* metrics);

  store::EmbeddingStore store_;
  query::HnswIndex index_;  ///< empty for the exact strategy
  Strategy strategy_;
  Metric metric_;
  unsigned default_k_;
  unsigned default_ef_;
  query::ScanOptions scan_;
  /// Per-row cosine inverse norms, computed once at open (one store pass)
  /// when the metric is cosine or the strategy is exact (a cosine
  /// override); empty otherwise.
  std::vector<float> cosine_norms_;
  Counter* requests_ = nullptr;
  Counter* queries_ = nullptr;
  Histogram* seconds_ = nullptr;
  /// Exact passes; declared last, after everything its scan reads.
  ScanCombiner combiner_;
};

/// What an offline index build produced (gosh_query --build-index).
struct IndexBuildReport {
  std::string path;
  unsigned M = 0;
  unsigned ef_construction = 0;
  int max_level = -1;
  double seconds = 0.0;
};

/// Builds the HNSW index over the store named by `options` and saves it to
/// options.resolved_index_path() — the offline step that turns the "hnsw"
/// and "auto" strategies on.
api::Result<IndexBuildReport> build_index(const ServeOptions& options);

}  // namespace gosh::serving
