// Device stress: concurrent allocation + launches, allocation failure
// injection mid-pipeline, rapid create/destroy cycles.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "gosh/simt/device.hpp"
#include "gosh/simt/stream.hpp"

namespace gosh::simt {
namespace {

/// Launches with a working set above any host's per-core L2, so the warps
/// spread over the worker pool whatever machine runs the test.
void launch_spread(Device& device, std::size_t num_warps,
                   std::size_t shared_bytes, const WarpKernel& kernel) {
  device.launch_blocking(num_warps, shared_bytes, std::size_t{64} << 20,
                         kernel);
}

TEST(DeviceStress, ConcurrentAllocationsRespectCapacity) {
  DeviceConfig config;
  config.memory_bytes = 1 << 20;
  config.workers = 2;
  Device device(config);

  std::atomic<int> successes{0};
  std::atomic<int> failures{0};
  auto worker = [&] {
    for (int i = 0; i < 200; ++i) {
      try {
        DeviceBuffer<std::byte> buffer(device, 16 << 10);
        successes.fetch_add(1);
      } catch (const DeviceOutOfMemory&) {
        failures.fetch_add(1);
      }
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) threads.emplace_back(worker);
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(successes.load() + failures.load(), 800);
  // Everything released: the meter must return to zero.
  EXPECT_EQ(device.memory_used(), 0u);
}

TEST(DeviceStress, LaunchesInterleavedWithTransfers) {
  DeviceConfig config;
  config.memory_bytes = 8 << 20;
  config.workers = 2;
  Device device(config);
  DeviceBuffer<int> data(device, 1024);
  std::vector<int> host(1024, 0);
  // Zero the buffer before racing: a fresh allocation holds arbitrary
  // bytes (ASan poisons it with a fill pattern), and the 0<=sum<=64
  // invariant below only holds once every element is a raced 0/1.
  data.copy_from_host(std::span<const int>(host));

  std::atomic<bool> stop{false};
  std::thread copier([&] {
    std::vector<int> scratch(1024, 1);
    while (!stop.load()) {
      data.copy_from_host(std::span<const int>(scratch));
    }
  });

  for (int i = 0; i < 200; ++i) {
    std::atomic<long> sum{0};
    launch_spread(device, 64, 0, [&](const WarpContext& ctx) {
      sum.fetch_add(data.data()[ctx.warp_id], std::memory_order_relaxed);
    });
    // Values are racing 0/1 writes; the invariant is no crash and a sum
    // within bounds.
    EXPECT_GE(sum.load(), 0);
    EXPECT_LE(sum.load(), 64);
  }
  stop.store(true);
  copier.join();
}

TEST(DeviceStress, RapidCreateDestroyCycles) {
  for (int cycle = 0; cycle < 30; ++cycle) {
    DeviceConfig config;
    config.memory_bytes = 1 << 20;
    config.workers = 2;
    Device device(config);
    std::atomic<int> ran{0};
    launch_spread(device, 8, 64, [&ran](const WarpContext&) {
      ran.fetch_add(1);
    });
    ASSERT_EQ(ran.load(), 8);
  }
}

TEST(DeviceStress, ManyStreamsDrainCleanly) {
  constexpr int kStreams = 8;
  std::vector<std::unique_ptr<Stream>> streams;
  std::atomic<int> total{0};
  for (int s = 0; s < kStreams; ++s) {
    streams.push_back(std::make_unique<Stream>());
  }
  for (int round = 0; round < 50; ++round) {
    for (auto& stream : streams) {
      stream->enqueue([&total] { total.fetch_add(1); });
    }
  }
  for (auto& stream : streams) stream->synchronize();
  EXPECT_EQ(total.load(), kStreams * 50);
}

TEST(DeviceStress, OomDuringPipelineLeavesDeviceUsable) {
  DeviceConfig config;
  config.memory_bytes = 256 << 10;
  config.workers = 1;
  Device device(config);

  DeviceBuffer<float> resident(device, 32 << 10);  // 128 KiB
  EXPECT_THROW(DeviceBuffer<float> big(device, 64 << 10),  // 256 KiB more
               DeviceOutOfMemory);

  // The device must still execute work and accept fitting allocations.
  std::atomic<int> ran{0};
  launch_spread(device, 4, 0, [&ran](const WarpContext&) {
    ran.fetch_add(1);
  });
  EXPECT_EQ(ran.load(), 4);
  DeviceBuffer<float> small(device, 1024);
  EXPECT_EQ(small.size(), 1024u);
}

}  // namespace
}  // namespace gosh::simt
