// Device activity counters.
//
// The emulator cannot measure real DRAM transactions, so kernels account
// their traffic analytically (the trainer knows exactly how many row reads
// and writes Algorithm 1 performs) while transfers are counted at the copy
// call sites. Benches report these next to wall time: the naive-vs-optimized
// comparison in Figure 4 then shows both the time effect and the staged
// (shared-memory) access counts that explain it.
#pragma once

#include <atomic>
#include <cstdint>

namespace gosh::simt {

struct MetricsSnapshot {
  std::uint64_t h2d_bytes = 0;
  std::uint64_t d2h_bytes = 0;
  std::uint64_t kernels_launched = 0;
  std::uint64_t warps_executed = 0;
  std::uint64_t global_accesses = 0;  ///< element reads+writes to device memory
  std::uint64_t shared_accesses = 0;  ///< element reads+writes staged per warp
};

class Metrics {
 public:
  void add_h2d(std::uint64_t bytes) noexcept {
    h2d_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  }
  void add_d2h(std::uint64_t bytes) noexcept {
    d2h_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  }
  void add_kernel() noexcept {
    kernels_launched_.fetch_add(1, std::memory_order_relaxed);
  }
  void add_warps(std::uint64_t count) noexcept {
    warps_executed_.fetch_add(count, std::memory_order_relaxed);
  }
  void add_global_accesses(std::uint64_t count) noexcept {
    global_accesses_.fetch_add(count, std::memory_order_relaxed);
  }
  void add_shared_accesses(std::uint64_t count) noexcept {
    shared_accesses_.fetch_add(count, std::memory_order_relaxed);
  }

  MetricsSnapshot snapshot() const noexcept;
  void reset() noexcept;

 private:
  std::atomic<std::uint64_t> h2d_bytes_{0};
  std::atomic<std::uint64_t> d2h_bytes_{0};
  std::atomic<std::uint64_t> kernels_launched_{0};
  std::atomic<std::uint64_t> warps_executed_{0};
  std::atomic<std::uint64_t> global_accesses_{0};
  std::atomic<std::uint64_t> shared_accesses_{0};
};

}  // namespace gosh::simt
