// SIMT device emulation — the repository's GPU substitute.
//
// What the paper's algorithms actually depend on from the Titan X is
// reproduced here (DESIGN.md Section 1):
//   * a FINITE memory capacity — allocation beyond it throws
//     DeviceOutOfMemory, which is what routes a graph into the Algorithm 5
//     partitioned path, exactly as 12 GB does for 65M-vertex graphs;
//   * WARP-GRAINED execution — kernels are functions invoked once per
//     32-lane warp; a persistent worker pool (the "SMs") pulls warps off a
//     shared cursor; lane-level parallelism is expressed as inner loops the
//     compiler vectorizes;
//   * SHARED MEMORY — each executing warp gets a scratch arena for staging
//     (the trainer stages M[src] there, Section 3.1);
//   * ASYNCHRONY — Streams (simt/stream.hpp) order work and overlap
//     transfers with kernels, which the large-graph engine uses to hide
//     sub-matrix switches (Section 3.3.2).
//
// Occupancy: each launch names the bytes of rows its kernel writes. When
// that working set fits in one core's L2 (core_l2_bytes()), every warp
// runs on the launching thread; only larger launches spread over the
// worker pool. Spreading a cache-resident matrix buys no parallelism on a
// host: concurrent HOGWILD row writes bounce its cache lines between
// cores, so on a 4-vCPU Xeon the coarse GOSH levels ran slower on four
// workers than on one and burned 4-5x the CPU per sample. A spread launch
// over a matrix above L2 pays the other side of that trade: every sample
// is a random row far from the core. Task launches (launch_tasks) are the
// way out: the caller cuts the work into tasks that each touch an
// L2-sized slice of rows no task running at the same time touches, and
// each worker claims one task at a time, in index order, so one core owns
// a slice for the whole task. The blocked resident trainer runs its part
// pairs this way, one launch per round; the Algorithm 5 pair kernels
// above L2 on parts of up to four L2s run all rounds of their sub-part
// pairs in one launch, a task waiting for the earlier tasks that share its
// rows.
// All paths hold the device's single launch slot and are metered alike;
// only the thread that runs the warps and the claim size differ.
//
// Device "memory" is ordinary host memory behind a capacity meter: the
// emulation is about control flow and limits, not about simulating DRAM
// timing. Transfers really copy bytes (so H2D/D2H costs are nonzero and
// overlap is observable) and are metered in Metrics.
#pragma once

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstring>
#include <functional>
#include <memory>
#include <span>
#include <stdexcept>

#include "gosh/common/types.hpp"
#include "gosh/simt/metrics.hpp"

namespace gosh::simt {

class DeviceOutOfMemory : public std::runtime_error {
 public:
  DeviceOutOfMemory(std::size_t requested, std::size_t free_bytes);
  std::size_t requested() const noexcept { return requested_; }
  std::size_t free_bytes() const noexcept { return free_; }

 private:
  std::size_t requested_;
  std::size_t free_;
};

/// Per-warp execution context handed to kernels.
struct WarpContext {
  /// Global warp index in [0, num_warps) of the launch.
  std::size_t warp_id = 0;
  /// Shared-memory scratch, `shared_bytes` long, 64-byte aligned, private
  /// to this warp for the duration of the call.
  std::byte* shared = nullptr;
  std::size_t shared_bytes = 0;
};

/// A kernel body: invoked once per warp; must be safe to call concurrently
/// for distinct warps.
using WarpKernel = std::function<void(const WarpContext&)>;

struct DeviceConfig {
  /// Capacity of the emulated device memory. The paper's card has 12 GB;
  /// benches shrink this to force the large-graph path at test scale.
  std::size_t memory_bytes = std::size_t{512} << 20;
  /// Emulated SM worker threads; 0 = hardware concurrency.
  unsigned workers = 0;
  /// Warps claimed per worker pull; small keeps load balanced when warps
  /// have skewed cost (hub vertices own long sample loops).
  std::size_t warp_grain = 16;
  /// Upper bound on per-warp shared memory a launch may request (48 KiB,
  /// the per-block shared-memory size of the paper's Pascal card).
  std::size_t max_shared_bytes = std::size_t{48} << 10;
};

class Stream;

/// Per-core L2 size in bytes, read once from sysconf; 1 MiB when the host
/// does not report one. Launches whose working set fits run inline.
std::size_t core_l2_bytes() noexcept;

/// The emulated device. Thread-safe: allocation, launches and metrics may
/// be used from multiple host threads (the large-graph engine does).
class Device {
 public:
  explicit Device(const DeviceConfig& config = {});
  ~Device();

  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  std::size_t memory_capacity() const noexcept { return config_.memory_bytes; }
  std::size_t memory_used() const noexcept;
  std::size_t memory_free() const noexcept {
    return memory_capacity() - memory_used();
  }
  unsigned workers() const noexcept { return worker_count_; }

  /// Raw capacity-metered allocation (64-byte aligned). Prefer
  /// DeviceBuffer. Throws DeviceOutOfMemory when it does not fit.
  void* allocate(std::size_t bytes);
  void deallocate(void* pointer, std::size_t bytes) noexcept;

  /// Runs `kernel` for warps [0, num_warps), blocking until all complete.
  /// `shared_bytes` scratch is provided per executing warp. Epoch-level
  /// synchronization in the trainer is built from consecutive launches.
  /// `working_set_bytes` is the size of the rows the kernel writes: up to
  /// core_l2_bytes() the warps run in order on the calling thread, above
  /// it on the worker pool.
  void launch_blocking(std::size_t num_warps, std::size_t shared_bytes,
                       std::size_t working_set_bytes,
                       const WarpKernel& kernel);

  /// Runs `kernel` once per task in [0, num_tasks) on the worker pool,
  /// blocking until all complete; WarpContext::warp_id is the task index.
  /// Each worker claims one task at a time, whatever warp_grain says, so
  /// N tasks on N or more workers all run at once. Claims go in index
  /// order, so a task may wait for a lower-index one without deadlock.
  void launch_tasks(std::size_t num_tasks, std::size_t shared_bytes,
                    const WarpKernel& kernel);

  Metrics& metrics() noexcept { return metrics_; }

 private:
  /// `grain` warps per worker claim; 0 runs every warp on the caller.
  void launch(std::size_t num_warps, std::size_t shared_bytes,
              std::size_t grain, const WarpKernel& kernel);

  struct Impl;
  DeviceConfig config_;
  unsigned worker_count_;
  Metrics metrics_;
  std::atomic<std::size_t> used_{0};
  std::unique_ptr<Impl> impl_;
};

/// Typed RAII allocation in device memory with metered transfer helpers.
template <typename T>
class DeviceBuffer {
  static_assert(std::is_trivially_copyable_v<T>);

 public:
  DeviceBuffer() = default;

  DeviceBuffer(Device& device, std::size_t count)
      : device_(&device),
        count_(count),
        data_(static_cast<T*>(device.allocate(count * sizeof(T)))) {}

  DeviceBuffer(const DeviceBuffer&) = delete;
  DeviceBuffer& operator=(const DeviceBuffer&) = delete;

  DeviceBuffer(DeviceBuffer&& other) noexcept { swap(other); }
  DeviceBuffer& operator=(DeviceBuffer&& other) noexcept {
    if (this != &other) {
      release();
      swap(other);
    }
    return *this;
  }

  ~DeviceBuffer() { release(); }

  /// Copies host data into the buffer (metered H2D). An empty span is a
  /// no-op: its data() may be null, which memcpy must never see.
  void copy_from_host(std::span<const T> host, std::size_t offset = 0) {
    if (!host.empty()) {
      std::memcpy(data_ + offset, host.data(), host.size_bytes());
    }
    device_->metrics().add_h2d(host.size_bytes());
  }

  /// Copies buffer contents out to host (metered D2H). Empty span: no-op.
  void copy_to_host(std::span<T> host, std::size_t offset = 0) const {
    if (!host.empty()) {
      std::memcpy(host.data(), data_ + offset, host.size_bytes());
    }
    device_->metrics().add_d2h(host.size_bytes());
  }

  /// Copies row rows[i] of `host`, a row-major array of `width`-element
  /// rows, into row i of the buffer: the rows land contiguously, as one
  /// copy_from_host of them would. Meters the bytes it copies as H2D, once
  /// per call.
  void gather_from_host(std::span<const T> host, std::size_t width,
                        std::span<const vid_t> rows) {
    assert(rows.size() * width <= count_);
    T* out = data_;
    for (const vid_t row : rows) {
      assert((std::size_t{row} + 1) * width <= host.size());
      std::memcpy(out, host.data() + std::size_t{row} * width,
                  width * sizeof(T));
      out += width;
    }
    device_->metrics().add_h2d(rows.size() * width * sizeof(T));
  }

  /// The reverse of gather_from_host: row i of the buffer goes to row
  /// rows[i] of `host` (metered D2H, once per call).
  void scatter_to_host(std::span<T> host, std::size_t width,
                       std::span<const vid_t> rows) const {
    assert(rows.size() * width <= count_);
    const T* in = data_;
    for (const vid_t row : rows) {
      assert((std::size_t{row} + 1) * width <= host.size());
      std::memcpy(host.data() + std::size_t{row} * width, in,
                  width * sizeof(T));
      in += width;
    }
    device_->metrics().add_d2h(rows.size() * width * sizeof(T));
  }

  T* data() noexcept { return data_; }
  const T* data() const noexcept { return data_; }
  std::size_t size() const noexcept { return count_; }
  bool empty() const noexcept { return count_ == 0; }
  explicit operator bool() const noexcept { return data_ != nullptr; }

 private:
  void release() noexcept {
    if (data_ != nullptr) {
      device_->deallocate(data_, count_ * sizeof(T));
      data_ = nullptr;
      count_ = 0;
    }
  }

  void swap(DeviceBuffer& other) noexcept {
    std::swap(device_, other.device_);
    std::swap(count_, other.count_);
    std::swap(data_, other.data_);
  }

  Device* device_ = nullptr;
  std::size_t count_ = 0;
  T* data_ = nullptr;
};

}  // namespace gosh::simt
