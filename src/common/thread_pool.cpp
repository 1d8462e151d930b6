#include "gosh/common/thread_pool.hpp"

#include <algorithm>

namespace gosh {
namespace {

thread_local const ThreadPool* t_worker_of = nullptr;

}  // namespace

ThreadPool::ThreadPool(unsigned threads) {
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (unsigned i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    common::MutexLock lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

std::future<void> ThreadPool::submit(std::function<void()> fn) {
  auto task = std::make_shared<std::packaged_task<void()>>(std::move(fn));
  std::future<void> result = task->get_future();
  submit_detached([task] { (*task)(); });
  return result;
}

void ThreadPool::submit_detached(std::function<void()> fn) {
  {
    common::MutexLock lock(mutex_);
    queue_.push_back(std::move(fn));
  }
  cv_.notify_one();
}

bool ThreadPool::on_worker_thread() const noexcept {
  return t_worker_of == this;
}

void ThreadPool::worker_loop() {
  t_worker_of = this;
  for (;;) {
    std::function<void()> task;
    {
      common::UniqueLock lock(mutex_);
      while (!stopping_ && queue_.empty()) cv_.wait(lock);
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

ThreadPool& global_pool() {
  static ThreadPool pool;
  return pool;
}

}  // namespace gosh
