// DistRouter — sharded serving across processes: scatter to REMOTE shard
// children, merge partials, degrade instead of dying.
//
// Inside one process a sharded store needs no router: one exact engine
// scans every shard. The DistRouter points one ReplicaSet per shard at
// child gosh_serve processes started with `--shard I/N` (each answering
// in its shard's LOCAL ids) and scatters each request over HTTP, one
// bounded worker per shard. Its k-way merge orders by the global (score
// desc, id asc) order, so with every shard healthy it answers
// bit-identically to one exact scan of the unsharded store.
//
// When a shard cannot answer inside the deadline budget (process killed,
// chaos-stalled, breaker open), the DistRouter merges what DID arrive and
// annotates the response: degraded = true plus one ShardStatus per shard
// saying who answered, who retried, who hedged, and who is missing.
// `--require-all-shards` flips that into kUnavailable (HTTP 503) for
// callers that would rather fail than serve partial answers.
//
// The parent still needs the store FILES (not the payload in RAM): vertex
// queries must be resolved to raw vectors before the scatter — a child
// only knows local ids — so each shard is mmapped lazily for row_vector.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "gosh/api/status.hpp"
#include "gosh/serving/remote.hpp"
#include "gosh/serving/service.hpp"
#include "gosh/store/embedding_store.hpp"

namespace gosh::serving {

class DistRouter final : public QueryService {
 public:
  /// `groups` is one replica group per shard, in shard order — exactly
  /// options.backends parsed by parse_backends(). The group count must
  /// match the store's shard count (probed from options.store_path).
  static api::Result<std::unique_ptr<DistRouter>> open(
      std::vector<std::vector<Endpoint>> groups, const ServeOptions& options,
      MetricsRegistry* metrics = nullptr);

  ~DistRouter() override = default;

  api::Result<QueryResponse> serve(const QueryRequest& request) override;
  vid_t rows() const noexcept override { return rows_; }
  unsigned dim() const noexcept override { return dim_; }
  Metric default_metric() const noexcept override { return metric_; }
  std::string_view strategy_name() const noexcept override {
    return "dist-router";
  }
  api::Result<std::vector<float>> row_vector(vid_t v) const override;

  std::size_t shard_count() const noexcept { return shards_.size(); }
  ReplicaSet& replicas(std::size_t shard) noexcept {
    return *shards_[shard].replicas;
  }

 private:
  struct Shard {
    std::unique_ptr<ReplicaSet> replicas;
    store::EmbeddingStore store;  ///< this shard's slice, lazily mmapped
    vid_t row_begin = 0;
    vid_t rows = 0;
  };

  DistRouter() = default;

  const Shard& owner(vid_t v) const noexcept;

  std::vector<Shard> shards_;
  vid_t rows_ = 0;
  unsigned dim_ = 0;
  Metric metric_ = Metric::kCosine;
  unsigned default_k_ = 10;
  bool require_all_shards_ = false;

  Counter* requests_ = nullptr;
  Counter* scattered_ = nullptr;
  Counter* degraded_total_ = nullptr;
  Histogram* seconds_ = nullptr;
};

}  // namespace gosh::serving
