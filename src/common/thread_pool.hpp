// Persistent worker-thread pool.
//
// One pool is shared by the whole process (see `global_pool()`): the
// coarsening passes, the CPU baselines, the SIMT device executor and the
// large-graph sample manager all schedule onto it. Creating threads per
// parallel region would dominate run time at the millisecond-scale kernel
// granularity GOSH uses, so workers are started once and parked on a
// condition variable between tasks.
#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <thread>
#include <vector>

#include "gosh/common/sync.hpp"

namespace gosh {

class ThreadPool {
 public:
  /// Starts `threads` workers (defaults to hardware concurrency, min 1).
  explicit ThreadPool(unsigned threads = 0);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Drains outstanding tasks, then joins the workers.
  ~ThreadPool();

  /// Enqueues `fn` for execution; returns a future for its completion.
  std::future<void> submit(std::function<void()> fn);

  /// Enqueues `fn` without a future (fire-and-forget); cheaper when the
  /// caller synchronizes by other means (e.g. a latch or atomic counter).
  void submit_detached(std::function<void()> fn);

  unsigned size() const noexcept { return static_cast<unsigned>(workers_.size()); }

  /// True when called on one of this pool's worker threads.
  bool on_worker_thread() const noexcept;

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  common::Mutex mutex_;
  common::CondVar cv_;
  std::deque<std::function<void()>> queue_ GOSH_GUARDED_BY(mutex_);
  bool stopping_ GOSH_GUARDED_BY(mutex_) = false;
};

/// Process-wide pool, created on first use with hardware concurrency.
ThreadPool& global_pool();

}  // namespace gosh
