#include "gosh/serving/scan_combiner.hpp"

#include <algorithm>
#include <cstdint>
#include <exception>
#include <iterator>
#include <memory>
#include <string>
#include <utility>

#include "gosh/common/thread_pool.hpp"
#include "gosh/trace/trace.hpp"

namespace gosh::serving {

/// One request in the combiner. It lives on the requesting thread's stack
/// for the whole call, so the leader may read its spans and write its
/// result while the owner waits.
struct ScanCombiner::Member {
  ScanKey key;
  std::span<const float> vectors;
  std::span<const std::size_t> counts;
  const query::RowFilter* filter = nullptr;
  std::uint64_t arrived_ns = 0;
  /// The caller's trace, captured on its own thread so the leader can
  /// record into it (null when tracing is off).
  std::shared_ptr<trace::Trace> trace;
  std::uint32_t depth = 0;
  /// The next member of the same pass (an intrusive list, so gathering a
  /// pass under the lock allocates nothing and cannot throw).
  Member* next = nullptr;
  common::CondVar cv;
  // Written by the leader; the owner reads them after it sees `done` or
  // `lead` under the combiner's mutex.
  bool done = false;
  bool lead = false;
  api::Status status;
  ScanAnswers answers;
};

ScanCombiner::ScanCombiner(ScanFunction scan, std::size_t max_batch,
                           MetricsRegistry* metrics)
    : scan_(std::move(scan)), max_batch_(std::max<std::size_t>(1, max_batch)) {
  if (metrics != nullptr) {
    batches_ = &metrics->counter("gosh_serving_batches_total",
                                 "Exact-scan passes over the store");
    batch_queries_ = &metrics->counter("gosh_serving_batch_queries_total",
                                       "Queries answered by those passes");
    batch_seconds_ = &metrics->histogram("gosh_serving_batch_seconds",
                                         "Wall time per exact-scan pass");
    latency_seconds_ = &metrics->histogram(
        "gosh_serving_request_latency_seconds",
        "Exact-scan request latency, arrival to answer");
  }
}

std::size_t ScanCombiner::waiting() const {
  common::MutexLock lock(mutex_);
  return waiting_.size();
}

api::Result<ScanAnswers> ScanCombiner::scan(
    const ScanKey& key, std::span<const float> vectors,
    std::span<const std::size_t> vector_counts,
    const query::RowFilter& filter) {
  Member self;
  self.key = key;
  self.vectors = vectors;
  self.counts = vector_counts;
  self.filter = filter ? &filter : nullptr;
  self.arrived_ns = trace::now_ns();
  if (trace::enabled() && trace::current() != nullptr) {
    self.trace = trace::current_shared();
    self.depth = trace::current_depth();
  }
  const auto result = [&self]() -> api::Result<ScanAnswers> {
    if (!self.status.is_ok()) return self.status;
    return std::move(self.answers);
  };
  // No queries, no pass; every member below holds at least one query, so
  // a combined pass has at most max_batch members.
  if (vector_counts.empty()) return ScanAnswers{};

  if (global_pool().on_worker_thread()) {
    run_pass(self);
    return result();
  }
  {
    common::UniqueLock lock(mutex_);
    if (scanning_) {
      waiting_.push_back(&self);
      while (!self.done && !self.lead) self.cv.wait(lock);
      if (self.done) return result();
    }
    scanning_ = true;
    if (self.filter == nullptr) {
      std::size_t queries = self.counts.size();
      Member* tail = &self;
      for (auto it = waiting_.begin(); it != waiting_.end();) {
        Member* candidate = *it;
        if (candidate->filter == nullptr && candidate->key == self.key &&
            queries + candidate->counts.size() <= max_batch_) {
          queries += candidate->counts.size();
          tail->next = candidate;
          tail = candidate;
          it = waiting_.erase(it);
        } else {
          ++it;
        }
      }
    }
  }

  run_pass(self);

  {
    common::MutexLock lock(mutex_);
    // Notified under the lock: a member may return, destroying its Member,
    // as soon as it can take the lock and see `done`.
    for (Member* member = self.next; member != nullptr;) {
      Member* following = member->next;
      member->done = true;
      member->cv.notify_one();
      member = following;
    }
    if (waiting_.empty()) {
      scanning_ = false;
    } else {
      Member* next = waiting_.front();
      waiting_.pop_front();
      next->lead = true;
      next->cv.notify_one();
    }
  }
  return result();
}

void ScanCombiner::run_pass(Member& first) noexcept {
  std::size_t queries = 0;
  for (const Member* member = &first; member != nullptr;
       member = member->next) {
    queries += member->counts.size();
  }

  const std::uint64_t begin = trace::now_ns();
  api::Status status;
  try {
    api::Result<ScanAnswers> scanned = api::Status::internal("no scan ran");
    if (first.next == nullptr) {
      scanned = scan_(first.key, first.vectors, first.counts,
                      first.filter != nullptr ? *first.filter
                                              : query::RowFilter{});
    } else {
      std::vector<float> vectors;
      std::vector<std::size_t> counts;
      counts.reserve(queries);
      for (const Member* member = &first; member != nullptr;
           member = member->next) {
        vectors.insert(vectors.end(), member->vectors.begin(),
                       member->vectors.end());
        counts.insert(counts.end(), member->counts.begin(),
                      member->counts.end());
      }
      scanned = scan_(first.key, vectors, counts, query::RowFilter{});
    }
    if (!scanned.ok()) {
      status = scanned.status();
    } else if (scanned.value().size() != queries) {
      status = api::Status::internal(
          "exact scan answered " + std::to_string(scanned.value().size()) +
          " of " + std::to_string(queries) + " queries");
    } else {
      auto answer = scanned.value().begin();
      for (Member* member = &first; member != nullptr;
           member = member->next) {
        const auto end = answer + static_cast<std::ptrdiff_t>(
                                      member->counts.size());
        member->answers.assign(std::make_move_iterator(answer),
                               std::make_move_iterator(end));
        answer = end;
      }
    }
  } catch (const std::exception& error) {
    status = api::Status::internal(std::string("exact scan failed: ") +
                                   error.what());
  } catch (...) {
    status = api::Status::internal("exact scan failed: unknown exception");
  }
  const std::uint64_t end = trace::now_ns();

  const std::uint32_t thread = trace::thread_ordinal();
  for (Member* member = &first; member != nullptr; member = member->next) {
    if (!status.is_ok()) {
      member->status = status;
      member->answers.clear();
    }
    // Recorded explicitly: the member's own thread may be asleep, and the
    // captured handle keeps its Trace alive.
    if (member->trace != nullptr) {
      member->trace->record("queue-wait", member->arrived_ns, begin,
                            member->depth, thread);
      member->trace->record("scan", begin, end, member->depth, thread);
    }
  }
  if (batches_ != nullptr) {
    batches_->increment();
    batch_queries_->increment(queries);
    batch_seconds_->observe(static_cast<double>(end - begin) * 1e-9);
    for (const Member* member = &first; member != nullptr;
         member = member->next) {
      latency_seconds_->observe(static_cast<double>(end - member->arrived_ns) *
                                1e-9);
    }
  }
}

}  // namespace gosh::serving
