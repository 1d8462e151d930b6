#include "gosh/simt/device.hpp"

#include <unistd.h>

#include <algorithm>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "gosh/common/aligned_buffer.hpp"
#include "gosh/common/sync.hpp"

namespace gosh::simt {

DeviceOutOfMemory::DeviceOutOfMemory(std::size_t requested,
                                     std::size_t free_bytes)
    : std::runtime_error("gosh: device out of memory (requested " +
                         std::to_string(requested) + " bytes, free " +
                         std::to_string(free_bytes) + ")"),
      requested_(requested),
      free_(free_bytes) {}

std::size_t core_l2_bytes() noexcept {
  static const std::size_t bytes = [] {
    const long reported = ::sysconf(_SC_LEVEL2_CACHE_SIZE);
    return reported > 0 ? static_cast<std::size_t>(reported)
                        : std::size_t{1} << 20;
  }();
  return bytes;
}

// Dedicated worker threads (not the global host pool): device kernels are
// launched *from* host pool threads in the large-graph engine, and sharing
// one pool there could deadlock two nested waits.
//
// Lifecycle discipline: the Launch record lives on the launcher's stack, so
// the launcher may not return while any worker still holds a pointer to it.
// All hand-off state (launch slot, current launch, completion count,
// reference count, generation number) is guarded by one mutex; only the
// warp-claim cursor is atomic so that chunk claims stay wait-free on the
// hot path. An inline launch holds the slot but never publishes itself as
// `current`, so the workers sleep through it; its warps use one arena of
// their own, which the slot makes exclusive.
struct Device::Impl {
  struct Launch {
    std::size_t num_warps = 0;
    std::size_t shared_bytes = 0;
    std::size_t grain = 1;  // warps one cursor claim takes
    const WarpKernel* kernel = nullptr;
    std::atomic<std::size_t> cursor{0};
    std::size_t completed = 0;  // guarded by Impl::mutex
    unsigned refs = 0;          // guarded by Impl::mutex
  };

  Impl(unsigned workers, const DeviceConfig& device_config)
      : config(device_config), inline_arena(config.max_shared_bytes) {
    shared_arenas.reserve(workers);
    for (unsigned i = 0; i < workers; ++i) {
      shared_arenas.emplace_back(config.max_shared_bytes);
    }
    threads.reserve(workers);
    for (unsigned i = 0; i < workers; ++i) {
      threads.emplace_back([this, i] { worker_loop(i); });
    }
  }

  ~Impl() {
    {
      common::MutexLock lock(mutex);
      stopping = true;
    }
    work_cv.notify_all();
    for (auto& t : threads) t.join();
  }

  /// `grain` is the claim size of a spread launch; an inline launch
  /// (`grain` == 0) runs every warp on the calling thread.
  void run(std::size_t num_warps, std::size_t shared_bytes, std::size_t grain,
           const WarpKernel& kernel) {
    common::UniqueLock lock(mutex);
    // One launch at a time per device; concurrent launchers (one per
    // stream) serialize here. In-order execution per stream and a full
    // barrier per launch are exactly the guarantees the trainer's
    // epoch-synchronization relies on.
    while (busy) idle_cv.wait(lock);
    busy = true;

    if (grain == 0) {
      lock.unlock();
      // Releases the slot even if the kernel throws, so the device stays
      // usable for the next launcher.
      struct SlotRelease {
        Impl& impl;
        ~SlotRelease() { impl.release_slot(); }
      } release{*this};
      WarpContext ctx;
      ctx.shared = inline_arena.data();
      ctx.shared_bytes = shared_bytes;
      for (std::size_t w = 0; w < num_warps; ++w) {
        ctx.warp_id = w;
        kernel(ctx);
      }
      return;
    }

    Launch launch;
    launch.num_warps = num_warps;
    launch.shared_bytes = shared_bytes;
    launch.grain = grain;
    launch.kernel = &kernel;
    current = &launch;
    ++generation;
    work_cv.notify_all();

    while (launch.completed != launch.num_warps || launch.refs != 0) {
      done_cv.wait(lock);
    }
    current = nullptr;
    busy = false;
    idle_cv.notify_one();
  }

  void release_slot() {
    {
      common::MutexLock lock(mutex);
      busy = false;
    }
    idle_cv.notify_one();
  }

  void worker_loop(unsigned worker_index) {
    AlignedBuffer<std::byte>& arena = shared_arenas[worker_index];

    common::UniqueLock lock(mutex);
    for (;;) {
      while (!stopping && current == nullptr) work_cv.wait(lock);
      if (stopping) return;
      Launch* launch = current;
      const std::uint64_t my_generation = generation;
      launch->refs++;
      lock.unlock();

      std::size_t processed = 0;
      for (;;) {
        const std::size_t begin =
            launch->cursor.fetch_add(launch->grain, std::memory_order_relaxed);
        if (begin >= launch->num_warps) break;
        const std::size_t end =
            std::min(begin + launch->grain, launch->num_warps);
        WarpContext ctx;
        ctx.shared = arena.data();
        ctx.shared_bytes = launch->shared_bytes;
        for (std::size_t w = begin; w < end; ++w) {
          ctx.warp_id = w;
          (*launch->kernel)(ctx);
        }
        processed += end - begin;
      }

      lock.lock();
      launch->refs--;
      launch->completed += processed;
      if (launch->completed == launch->num_warps && launch->refs == 0) {
        done_cv.notify_all();
      }
      // Park until this launch retires; otherwise the worker would spin on
      // the exhausted cursor while the launcher is still waking up.
      while (!stopping && generation == my_generation && current != nullptr) {
        work_cv.wait(lock);
      }
      if (stopping) return;
    }
  }

  DeviceConfig config;
  std::vector<std::thread> threads;
  std::vector<AlignedBuffer<std::byte>> shared_arenas;
  AlignedBuffer<std::byte> inline_arena;
  common::Mutex mutex;
  common::CondVar work_cv;   // new launch available
  common::CondVar done_cv;   // current launch fully complete
  common::CondVar idle_cv;   // device free for the next launcher
  bool busy GOSH_GUARDED_BY(mutex) = false;  // the launch slot is taken
  Launch* current GOSH_GUARDED_BY(mutex) = nullptr;
  std::uint64_t generation GOSH_GUARDED_BY(mutex) = 0;
  bool stopping GOSH_GUARDED_BY(mutex) = false;
};

Device::Device(const DeviceConfig& config)
    : config_(config),
      worker_count_(config.workers != 0
                        ? config.workers
                        : std::max(1u, std::thread::hardware_concurrency())),
      impl_(std::make_unique<Impl>(worker_count_, config)) {}

Device::~Device() = default;

std::size_t Device::memory_used() const noexcept {
  return used_.load(std::memory_order_relaxed);
}

void* Device::allocate(std::size_t bytes) {
  // Round up so the meter matches what the aligned allocator consumes.
  const std::size_t charged = (bytes + kCacheLine - 1) & ~(kCacheLine - 1);
  std::size_t expected = used_.load(std::memory_order_relaxed);
  for (;;) {
    if (expected + charged > config_.memory_bytes) {
      throw DeviceOutOfMemory(charged, config_.memory_bytes - expected);
    }
    if (used_.compare_exchange_weak(expected, expected + charged,
                                    std::memory_order_relaxed)) {
      break;
    }
  }
  return ::operator new[](charged == 0 ? 1 : charged,
                          std::align_val_t{kCacheLine});
}

void Device::deallocate(void* pointer, std::size_t bytes) noexcept {
  const std::size_t charged = (bytes + kCacheLine - 1) & ~(kCacheLine - 1);
  ::operator delete[](pointer, std::align_val_t{kCacheLine});
  used_.fetch_sub(charged, std::memory_order_relaxed);
}

void Device::launch_blocking(std::size_t num_warps, std::size_t shared_bytes,
                             std::size_t working_set_bytes,
                             const WarpKernel& kernel) {
  launch(num_warps, shared_bytes,
         working_set_bytes <= core_l2_bytes()
             ? 0
             : std::max<std::size_t>(1, config_.warp_grain),
         kernel);
}

void Device::launch_tasks(std::size_t num_tasks, std::size_t shared_bytes,
                          const WarpKernel& kernel) {
  launch(num_tasks, shared_bytes, /*grain=*/1, kernel);
}

void Device::launch(std::size_t num_warps, std::size_t shared_bytes,
                    std::size_t grain, const WarpKernel& kernel) {
  if (num_warps == 0) return;
  if (shared_bytes > config_.max_shared_bytes) {
    throw std::invalid_argument(
        "gosh: kernel requests more shared memory than the device provides");
  }
  metrics_.add_kernel();
  metrics_.add_warps(num_warps);
  impl_->run(num_warps, shared_bytes, grain, kernel);
}

}  // namespace gosh::simt
