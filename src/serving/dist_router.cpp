#include "gosh/serving/dist_router.hpp"

#include <algorithm>
#include <cstddef>
#include <thread>
#include <utility>
#include <vector>

#include "gosh/common/timer.hpp"
#include "gosh/net/json.hpp"
#include "gosh/net/query_handler.hpp"
#include "gosh/trace/trace.hpp"

namespace gosh::serving {

namespace {

/// K-way merge of per-shard sorted partials into one global top-k. Shard
/// ids are local; `row_begin[c]` rebases them. Ties resolve by
/// query::better's global (score desc, id asc) order, so the merge is
/// bit-identical to sorting one unsharded scan.
std::vector<Neighbor> merge_top_k(
    const std::vector<std::vector<Neighbor>>& partials,
    const std::vector<vid_t>& row_begin, unsigned k) {
  struct Cursor {
    std::size_t child;
    std::size_t pos;
    Neighbor head;  ///< already rebased to global ids
  };
  const auto worse = [](const Cursor& a, const Cursor& b) {
    return query::better(b.head, a.head);  // min-heap on `better`
  };
  std::vector<Cursor> heap;
  heap.reserve(partials.size());
  for (std::size_t c = 0; c < partials.size(); ++c) {
    if (partials[c].empty()) continue;
    Neighbor head = partials[c][0];
    head.id += row_begin[c];
    heap.push_back({c, 0, head});
  }
  std::make_heap(heap.begin(), heap.end(), worse);

  std::vector<Neighbor> merged;
  merged.reserve(k);
  while (!heap.empty() && merged.size() < k) {
    std::pop_heap(heap.begin(), heap.end(), worse);
    Cursor cursor = heap.back();
    heap.pop_back();
    merged.push_back(cursor.head);
    if (++cursor.pos < partials[cursor.child].size()) {
      cursor.head = partials[cursor.child][cursor.pos];
      cursor.head.id += row_begin[cursor.child];
      heap.push_back(cursor);
      std::push_heap(heap.begin(), heap.end(), worse);
    }
  }
  return merged;
}

}  // namespace

api::Result<std::unique_ptr<DistRouter>> DistRouter::open(
    std::vector<std::vector<Endpoint>> groups, const ServeOptions& options,
    MetricsRegistry* metrics) {
  auto info = store::EmbeddingStore::probe(options.store_path);
  if (!info.ok()) return info.status();
  if (groups.size() != info.value().shard_count) {
    return api::Status::invalid_argument(
        "dist-router: --backends names " + std::to_string(groups.size()) +
        " shard group(s) but the store at " + options.store_path + " has " +
        std::to_string(info.value().shard_count) +
        " shard(s) — one group per shard, ',' between shards, '|' between "
        "replicas");
  }

  std::unique_ptr<DistRouter> router(new DistRouter());
  router->rows_ = static_cast<vid_t>(info.value().rows);
  router->dim_ = info.value().dim;
  router->metric_ = options.metric;
  router->default_k_ = options.k;
  router->require_all_shards_ = options.require_all_shards;
  if (metrics != nullptr) {
    router->requests_ = &metrics->counter("gosh_serving_requests_total",
                                          "QueryService requests served");
    router->scattered_ =
        &metrics->counter("gosh_serving_router_scatters_total",
                          "Per-shard calls the dist-router fanned out");
    router->degraded_total_ = &metrics->counter(
        "gosh_remote_degraded_responses_total",
        "Scatters answered from a partial merge (a shard was down)");
    router->seconds_ = &metrics->histogram(
        "gosh_serving_request_seconds", "Wall time per QueryService request");
  }

  const ReplicaOptions replica_options = ReplicaOptions::from(options);
  for (std::uint32_t s = 0; s < info.value().shard_count; ++s) {
    auto shard_store = store::EmbeddingStore::open_shard(
        options.store_path, s, info.value().shard_count,
        options.open_options());
    if (!shard_store.ok()) return shard_store.status();
    Shard shard;
    shard.row_begin = static_cast<vid_t>(shard_store.value().row_begin());
    shard.rows = shard_store.value().rows();
    shard.store = std::move(shard_store).value();
    shard.replicas = std::make_unique<ReplicaSet>(std::move(groups[s]),
                                                  replica_options, metrics);
    router->shards_.push_back(std::move(shard));
  }
  return router;
}

const DistRouter::Shard& DistRouter::owner(vid_t v) const noexcept {
  // Equal-split layout: every shard but the last holds shards_[0].rows.
  const vid_t per_shard =
      shards_.front().rows > 0 ? shards_.front().rows : 1;
  std::size_t s = static_cast<std::size_t>(v / per_shard);
  if (s >= shards_.size()) s = shards_.size() - 1;  // defensive clamp
  return shards_[s];
}

api::Result<std::vector<float>> DistRouter::row_vector(vid_t v) const {
  if (v >= rows_) {
    return api::Status::invalid_argument(
        "vertex " + std::to_string(v) + " out of range (store has " +
        std::to_string(rows_) + " rows)");
  }
  const Shard& shard = owner(v);
  const auto row = shard.store.row(v - shard.row_begin);
  return std::vector<float>(row.begin(), row.end());
}

api::Result<QueryResponse> DistRouter::serve(const QueryRequest& request) {
  WallTimer timer;
  const unsigned k = request.k > 0 ? request.k : default_k_;
  if (api::Status status = check_request(request, rows_, dim_, k);
      !status.is_ok()) {
    return status;
  }
  if (request.filter && request.filter_end <= request.filter_begin) {
    return api::Status::invalid_argument(
        "dist-router: filter predicate carries no [begin, end) range and "
        "cannot be forwarded to remote shards");
  }

  const unsigned fetch = fetch_k(request, k);

  // Scatter shape shared by every shard: vertex queries become raw-vector
  // queries (a child only holds its own slice in LOCAL ids — a global
  // vertex id means nothing to it), resolved once from the owning shard's
  // mmapped file.
  QueryRequest scattered;
  scattered.k = fetch;
  scattered.ef = request.ef;
  scattered.metric = request.metric;
  scattered.aggregate = request.aggregate;
  scattered.queries.reserve(request.queries.size());
  for (const Query& query : request.queries) {
    if (!query.is_vertex) {
      scattered.queries.push_back(query);
      continue;
    }
    auto row = row_vector(query.vertex_id);
    if (!row.ok()) return row.status();
    scattered.queries.push_back(Query::vector(std::move(row).value()));
  }

  // Pre-render one JSON body per shard — only the (rebased, intersected)
  // filter differs. A shard whose slice misses the filter entirely is
  // answered locally with empty lists; no wire call, not degraded.
  struct ShardCall {
    std::string body;       ///< empty = skipped (filtered out)
    ShardStatus status;
    std::vector<std::vector<Neighbor>> partials;
  };
  std::vector<ShardCall> calls(shards_.size());
  for (std::size_t c = 0; c < shards_.size(); ++c) {
    const Shard& shard = shards_[c];
    ShardCall& call = calls[c];
    call.status.shard = static_cast<unsigned>(c);
    if (request.filter) {
      const vid_t lo = std::max(request.filter_begin, shard.row_begin);
      const vid_t hi = std::min(request.filter_end,
                                shard.row_begin + shard.rows);
      if (lo >= hi) {
        call.status.ok = true;
        call.partials.resize(request.queries.size());
        continue;
      }
      scattered.filter = request.filter;  // any non-empty predicate
      scattered.filter_begin = lo - shard.row_begin;
      scattered.filter_end = hi - shard.row_begin;
    }
    auto body = net::QueryHandler::render_request(scattered);
    if (!body.ok()) return body.status();
    call.body = body.value().dump();
  }

  {
    trace::Span scatter_span("scatter");
    // One bounded worker per shard: each call() is capped by the remote
    // deadline budget, so the join is too — a dead shard costs one
    // deadline, not a hang.
    std::shared_ptr<trace::Trace> trace = trace::current_shared();
    std::vector<std::thread> workers;
    workers.reserve(shards_.size());
    for (std::size_t c = 0; c < shards_.size(); ++c) {
      if (calls[c].body.empty()) continue;  // filtered-out shard
      workers.emplace_back([this, c, &calls, &trace] {
        ShardCall& call = calls[c];
        const std::uint64_t begin = trace::now_ns();
        CallStats stats;
        auto wire =
            shards_[c].replicas->call("/v1/query", call.body, &stats);
        call.status.backend = stats.backend;
        call.status.retries = stats.retries;
        call.status.hedged = stats.hedged;
        call.status.seconds = stats.seconds;
        if (!wire.ok()) {
          call.status.ok = false;
          call.status.error = stats.error.empty()
                                  ? wire.status().message()
                                  : stats.error;
        } else {
          auto parsed = net::json::Value::parse(wire.value().body);
          auto answer =
              parsed.ok()
                  ? net::QueryHandler::parse_response(parsed.value())
                  : api::Result<QueryResponse>(parsed.status());
          if (!answer.ok()) {
            call.status.ok = false;
            call.status.error =
                "unparsable answer: " + answer.status().message();
          } else {
            call.status.ok = true;
            call.partials = std::move(answer.value().results);
          }
        }
        if (trace != nullptr) {
          trace->record("shard-" + std::to_string(c), begin,
                        trace::now_ns());
        }
      });
    }
    for (std::thread& worker : workers) worker.join();
  }

  // A shard that answered with the wrong list count would mis-merge;
  // treat it as failed instead.
  for (ShardCall& call : calls) {
    if (call.status.ok && call.partials.size() != request.queries.size()) {
      call.status.ok = false;
      call.status.error = "answered " + std::to_string(call.partials.size()) +
                          " result lists for " +
                          std::to_string(request.queries.size()) + " queries";
    }
  }

  QueryResponse response;
  response.shards.reserve(calls.size());
  for (ShardCall& call : calls) {
    response.shards.push_back(std::move(call.status));
  }
  response.degraded =
      std::any_of(response.shards.begin(), response.shards.end(),
                  [](const ShardStatus& shard) { return !shard.ok; });
  if (response.degraded && degraded_total_ != nullptr) {
    degraded_total_->increment();
  }
  if (response.degraded && require_all_shards_) {
    return partial_merge_status(
        "--require-all-shards: partial merge refused", response.shards);
  }

  // Merge over the shards that DID answer. A full scatter is
  // bit-identical to one exact scan of the unsharded store.
  std::vector<vid_t> row_begins;
  std::vector<ShardCall*> answered;
  row_begins.reserve(shards_.size());
  answered.reserve(shards_.size());
  for (std::size_t c = 0; c < shards_.size(); ++c) {
    if (!response.shards[c].ok) continue;
    row_begins.push_back(shards_[c].row_begin);
    answered.push_back(&calls[c]);
  }

  response.results.resize(request.queries.size());
  trace::Span merge_span("merge");
  for (std::size_t q = 0; q < request.queries.size(); ++q) {
    std::vector<std::vector<Neighbor>> per_child;
    per_child.reserve(answered.size());
    for (ShardCall* call : answered) {
      per_child.push_back(std::move(call->partials[q]));
    }
    response.results[q] = merge_top_k(per_child, row_begins, fetch);
    finalize_answer(response.results[q], request.queries[q], k);
  }

  response.seconds = timer.seconds();
  if (requests_ != nullptr) {
    requests_->increment();
    scattered_->increment(shards_.size());
    seconds_->observe(response.seconds);
  }
  return response;
}

}  // namespace gosh::serving
