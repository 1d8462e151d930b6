// ScanCombiner — concurrent exact-scan requests share one pass over the
// store (flat combining).
//
// An exact scan streams every stored row. A pass that answers several
// queries reads the store once for all of them, scoring each tile of rows
// against every query while it sits in cache, so each query costs less
// than a pass of its own. The combiner turns concurrent requests into such
// shared passes without a dispatcher thread:
//
//   - A request that finds no pass running becomes the leader.
//   - The leader takes every waiting request compatible with its own (same
//     ScanKey, no filter) while the pass stays within max_batch queries,
//     runs ONE scan for all of them on its own thread plus the global pool,
//     and hands each member its answers.
//   - It then passes leadership to the oldest request still waiting;
//     requests that arrived during the pass wait for the next one.
//
// So one pass runs at a time per combiner. A filtered request (its
// predicate cannot be merged with another's) and a request that alone
// holds more than max_batch queries scan alone, as a pass of their own. A
// failed or throwing scan fails every member of its pass with the same
// Status, and leadership still moves on.
//
// Threads that wait here must never be global-pool workers: the leader's
// scan needs every pool worker for its parallel_for, so a worker parked
// behind a pass could deadlock it. A call made on a pool worker therefore
// scans alone at once, without joining the queue.
#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <span>
#include <vector>

#include "gosh/api/status.hpp"
#include "gosh/common/sync.hpp"
#include "gosh/query/metric.hpp"
#include "gosh/serving/metrics.hpp"

namespace gosh::serving {

/// What requests must agree on to share a pass.
struct ScanKey {
  query::Metric metric = query::Metric::kCosine;
  query::Aggregate aggregate = query::Aggregate::kMax;
  unsigned k = 0;  ///< neighbors fetched per query

  bool operator==(const ScanKey&) const = default;
};

/// One ranked answer list per query.
using ScanAnswers = std::vector<std::vector<query::Neighbor>>;

/// One pass: query q owns vector_counts[q] vectors, laid back to back in
/// `vectors`; must return one answer list per query.
using ScanFunction = std::function<api::Result<ScanAnswers>(
    const ScanKey& key, std::span<const float> vectors,
    std::span<const std::size_t> vector_counts,
    const query::RowFilter& filter)>;

class ScanCombiner {
 public:
  /// `metrics` (optional) receives gosh_serving_batches_total (passes),
  /// gosh_serving_batch_queries_total (queries answered by them),
  /// gosh_serving_batch_seconds (time per pass) and
  /// gosh_serving_request_latency_seconds (arrival to answer, per request).
  ScanCombiner(ScanFunction scan, std::size_t max_batch,
               MetricsRegistry* metrics = nullptr);
  ScanCombiner(const ScanCombiner&) = delete;
  ScanCombiner& operator=(const ScanCombiner&) = delete;

  /// Answers one request (one entry of `vector_counts` per query), sharing
  /// a pass with compatible concurrent requests when `filter` is empty.
  /// Records "queue-wait" and "scan" spans into the caller's trace.
  api::Result<ScanAnswers> scan(const ScanKey& key,
                                std::span<const float> vectors,
                                std::span<const std::size_t> vector_counts,
                                const query::RowFilter& filter = {});

  /// Requests waiting for a pass.
  std::size_t waiting() const;

 private:
  struct Member;

  /// Runs one pass for `first` and the members linked after it, and fills
  /// every member's result; never throws.
  void run_pass(Member& first) noexcept;

  const ScanFunction scan_;
  const std::size_t max_batch_;
  Counter* batches_ = nullptr;
  Counter* batch_queries_ = nullptr;
  Histogram* batch_seconds_ = nullptr;
  Histogram* latency_seconds_ = nullptr;

  mutable common::Mutex mutex_;
  std::deque<Member*> waiting_ GOSH_GUARDED_BY(mutex_);
  bool scanning_ GOSH_GUARDED_BY(mutex_) = false;
};

}  // namespace gosh::serving
