// Device emulation: capacity metering, warp execution, shared memory,
// launch serialization, occupancy (inline vs spread launches).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <thread>
#include <vector>

#include "gosh/common/aligned_buffer.hpp"
#include "gosh/simt/device.hpp"

namespace gosh::simt {
namespace {

// Working sets far from any host's per-core L2 on either side, so the
// path a launch takes does not depend on the machine running the test.
constexpr std::size_t kTinyWorkingSet = std::size_t{4} << 10;
constexpr std::size_t kLargeWorkingSet = std::size_t{64} << 20;

/// Launches on the worker pool, the path most of these tests exercise.
void launch_spread(Device& device, std::size_t num_warps,
                   std::size_t shared_bytes, const WarpKernel& kernel) {
  device.launch_blocking(num_warps, shared_bytes, kLargeWorkingSet, kernel);
}

DeviceConfig small_config(std::size_t bytes = 1 << 20, unsigned workers = 2) {
  DeviceConfig config;
  config.memory_bytes = bytes;
  config.workers = workers;
  return config;
}

TEST(DeviceMemory, AllocationIsMetered) {
  Device device(small_config());
  EXPECT_EQ(device.memory_used(), 0u);
  {
    DeviceBuffer<float> buffer(device, 1000);
    EXPECT_GE(device.memory_used(), 1000 * sizeof(float));
    EXPECT_LE(device.memory_used(), 1000 * sizeof(float) + kCacheLine);
  }
  EXPECT_EQ(device.memory_used(), 0u);  // RAII released
}

TEST(DeviceMemory, OutOfMemoryThrows) {
  Device device(small_config(4096));
  EXPECT_THROW(DeviceBuffer<float> big(device, 1 << 20), DeviceOutOfMemory);
  // The failed allocation must not leak metered bytes.
  EXPECT_EQ(device.memory_used(), 0u);
}

TEST(DeviceMemory, ExceptionCarriesSizes) {
  Device device(small_config(1024));
  try {
    DeviceBuffer<double> big(device, 1 << 20);
    FAIL() << "expected DeviceOutOfMemory";
  } catch (const DeviceOutOfMemory& oom) {
    EXPECT_GE(oom.requested(), (1 << 20) * sizeof(double));
    EXPECT_LE(oom.free_bytes(), 1024u);
  }
}

TEST(DeviceMemory, FillsToCapacityThenFrees) {
  Device device(small_config(1 << 16));
  std::vector<DeviceBuffer<std::byte>> buffers;
  for (int i = 0; i < 16; ++i) buffers.emplace_back(device, 4096 - kCacheLine);
  EXPECT_THROW(DeviceBuffer<std::byte> extra(device, 4096), DeviceOutOfMemory);
  buffers.pop_back();
  DeviceBuffer<std::byte> extra(device, 2048);  // fits again
  SUCCEED();
}

TEST(DeviceLaunch, ExecutesEveryWarpExactlyOnce) {
  Device device(small_config());
  constexpr std::size_t kWarps = 10000;
  std::vector<std::atomic<int>> executed(kWarps);
  launch_spread(device, kWarps, 0, [&executed](const WarpContext& ctx) {
    executed[ctx.warp_id].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t w = 0; w < kWarps; ++w) {
    ASSERT_EQ(executed[w].load(), 1) << "warp " << w;
  }
}

TEST(DeviceLaunch, ZeroWarpsIsNoop) {
  Device device(small_config());
  launch_spread(device, 0, 0, [](const WarpContext&) { FAIL(); });
}

TEST(DeviceLaunch, SharedMemoryIsWarpPrivate) {
  Device device(small_config());
  // Each warp writes a pattern then verifies it survives its own body —
  // concurrent warps must not see each other's arena.
  std::atomic<int> corruptions{0};
  launch_spread(device, 2000, 256, [&corruptions](const WarpContext& ctx) {
    ASSERT_NE(ctx.shared, nullptr);
    ASSERT_GE(ctx.shared_bytes, 256u);
    std::memset(ctx.shared, static_cast<int>(ctx.warp_id & 0xff), 256);
    // Busy work to increase overlap.
    int spin = 0;
    for (int i = 0; i < 50; ++i) spin += i;
    ASSERT_EQ(spin, 1225);  // also keeps the loop from folding away
    for (int i = 0; i < 256; ++i) {
      if (ctx.shared[i] != static_cast<std::byte>(ctx.warp_id & 0xff)) {
        corruptions.fetch_add(1);
        break;
      }
    }
  });
  EXPECT_EQ(corruptions.load(), 0);
}

TEST(DeviceLaunch, RejectsOversizedSharedRequest) {
  DeviceConfig config = small_config();
  config.max_shared_bytes = 128;
  Device device(config);
  EXPECT_THROW(
      launch_spread(device, 1, 256, [](const WarpContext&) {}),
      std::invalid_argument);
}

TEST(DeviceLaunch, SequentialLaunchesAreOrdered) {
  Device device(small_config());
  std::vector<int> values(100, 0);
  launch_spread(device, 100, 0, [&values](const WarpContext& ctx) {
    values[ctx.warp_id] = 1;
  });
  launch_spread(device, 100, 0, [&values](const WarpContext& ctx) {
    values[ctx.warp_id] += 1;  // must observe the first launch's writes
  });
  for (int v : values) EXPECT_EQ(v, 2);
}

TEST(DeviceLaunch, ConcurrentLaunchersSerialize) {
  Device device(small_config());
  // Warps of different launches must never interleave: each launch claims
  // a shared slot with its id; seeing another launch's id inside a warp
  // means two kernels overlapped.
  std::atomic<int> active_launch{0};
  std::atomic<int> active_warps{0};
  std::atomic<bool> overlap{false};
  auto launcher = [&](int launcher_id) {
    for (int i = 0; i < 20; ++i) {
      const int launch_id = launcher_id * 1000 + i + 1;
      launch_spread(device, 50, 0, [&, launch_id](const WarpContext&) {
        int expected = 0;
        if (!active_launch.compare_exchange_strong(expected, launch_id) &&
            expected != launch_id) {
          overlap.store(true);
        }
        active_warps.fetch_add(1);
        if (active_warps.fetch_sub(1) == 1) {
          // Last warp out clears the slot (best effort; benign race with
          // warps of the SAME launch, which re-claim the same id).
          int mine = launch_id;
          active_launch.compare_exchange_strong(mine, 0);
        }
      });
    }
  };
  std::thread a(launcher, 1), b(launcher, 2);
  a.join();
  b.join();
  EXPECT_FALSE(overlap.load());
}

TEST(Device, TaskLaunchClaimsOneTaskPerWorker) {
  // Four tasks that each wait for all four to start finish only if four
  // workers run them at once. A 16-warp claim would hand all four to one
  // worker, whose first task would wait alone: each task gives up after a
  // timeout instead of hanging the suite, and the test counts that.
  Device device(small_config(1 << 20, 4));
  std::atomic<int> started{0};
  std::atomic<int> timed_out{0};
  device.launch_tasks(4, 0, [&](const WarpContext&) {
    started.fetch_add(1);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (started.load() < 4) {
      if (std::chrono::steady_clock::now() > deadline) {
        timed_out.fetch_add(1);
        return;
      }
      std::this_thread::yield();
    }
  });
  EXPECT_EQ(started.load(), 4);
  EXPECT_EQ(timed_out.load(), 0);
}

TEST(DeviceLaunch, TaskLaunchRunsEveryTaskOnceWithPrivateShared) {
  Device device(small_config(1 << 20, 3));
  constexpr std::size_t kTasks = 50;
  std::vector<std::atomic<int>> hits(kTasks);
  std::atomic<int> clobbered{0};
  device.metrics().reset();
  device.launch_tasks(kTasks, 256, [&](const WarpContext& ctx) {
    hits[ctx.warp_id].fetch_add(1);
    std::memset(ctx.shared, static_cast<int>(ctx.warp_id), 256);
    std::this_thread::yield();
    for (std::size_t i = 0; i < 256; ++i) {
      if (ctx.shared[i] != static_cast<std::byte>(ctx.warp_id)) {
        clobbered.fetch_add(1);
        break;
      }
    }
  });
  for (std::size_t t = 0; t < kTasks; ++t) EXPECT_EQ(hits[t].load(), 1);
  EXPECT_EQ(clobbered.load(), 0);
  EXPECT_EQ(device.metrics().snapshot().kernels_launched, 1u);
  device.launch_tasks(0, 0, [](const WarpContext&) { FAIL(); });
  EXPECT_THROW(device.launch_tasks(1, std::size_t{1} << 20,
                                   [](const WarpContext&) {}),
               std::invalid_argument);
}

TEST(DeviceMetrics, CountsKernelsAndWarps) {
  // Inline and spread launches are metered alike.
  Device device(small_config());
  for (const std::size_t working_set : {kTinyWorkingSet, kLargeWorkingSet}) {
    device.metrics().reset();
    device.launch_blocking(64, 0, working_set, [](const WarpContext&) {});
    device.launch_blocking(36, 0, working_set, [](const WarpContext&) {});
    const auto snap = device.metrics().snapshot();
    EXPECT_EQ(snap.kernels_launched, 2u) << working_set;
    EXPECT_EQ(snap.warps_executed, 100u) << working_set;
  }
}

TEST(DeviceMetrics, TransfersAreMetered) {
  Device device(small_config());
  device.metrics().reset();
  DeviceBuffer<float> buffer(device, 256);
  std::vector<float> host(256, 1.0f);
  buffer.copy_from_host(std::span<const float>(host));
  buffer.copy_to_host(std::span<float>(host));
  const auto snap = device.metrics().snapshot();
  EXPECT_EQ(snap.h2d_bytes, 256 * sizeof(float));
  EXPECT_EQ(snap.d2h_bytes, 256 * sizeof(float));
}

TEST(DeviceBuffer, OffsetTransfers) {
  Device device(small_config());
  DeviceBuffer<int> buffer(device, 10);
  std::vector<int> front = {1, 2, 3};
  std::vector<int> back = {7, 8};
  buffer.copy_from_host(std::span<const int>(front), 0);
  buffer.copy_from_host(std::span<const int>(back), 8);
  std::vector<int> out(2);
  buffer.copy_to_host(std::span<int>(out), 8);
  EXPECT_EQ(out[0], 7);
  EXPECT_EQ(out[1], 8);
}

TEST(DeviceBuffer, RowGatherAndScatterMeterTheContiguousCopysBytes) {
  // Ten host rows of four ints; rows 7, 2 and 5 travel.
  constexpr std::size_t kWidth = 4;
  std::vector<int> host(10 * kWidth);
  for (std::size_t i = 0; i < host.size(); ++i) host[i] = static_cast<int>(i);
  const std::vector<vid_t> rows = {7, 2, 5};

  Device gathered(small_config());
  DeviceBuffer<int> buffer(gathered, rows.size() * kWidth);
  buffer.gather_from_host(std::span<const int>(host), kWidth, rows);
  std::vector<int> device_rows(rows.size() * kWidth);
  buffer.copy_to_host(std::span<int>(device_rows));
  for (std::size_t i = 0; i < rows.size(); ++i) {
    for (std::size_t j = 0; j < kWidth; ++j) {
      EXPECT_EQ(device_rows[i * kWidth + j], host[rows[i] * kWidth + j]);
    }
  }
  std::vector<int> scattered(host.size(), -1);
  buffer.scatter_to_host(std::span<int>(scattered), kWidth, rows);
  for (std::size_t v = 0; v < 10; ++v) {
    const bool moved = std::find(rows.begin(), rows.end(), v) != rows.end();
    for (std::size_t j = 0; j < kWidth; ++j) {
      EXPECT_EQ(scattered[v * kWidth + j], moved ? host[v * kWidth + j] : -1);
    }
  }

  // The same rows as one contiguous copy each way meter the same bytes.
  Device contiguous(small_config());
  DeviceBuffer<int> block(contiguous, rows.size() * kWidth);
  block.copy_from_host(std::span<const int>(host).first(rows.size() * kWidth));
  block.copy_to_host(std::span<int>(device_rows));
  block.copy_to_host(std::span<int>(scattered).first(rows.size() * kWidth));
  const auto expected = contiguous.metrics().snapshot();
  const auto actual = gathered.metrics().snapshot();
  EXPECT_EQ(actual.h2d_bytes, expected.h2d_bytes);
  EXPECT_EQ(actual.d2h_bytes, expected.d2h_bytes);
  EXPECT_EQ(actual.h2d_bytes, rows.size() * kWidth * sizeof(int));
}

TEST(DeviceBuffer, MoveTransfersOwnership) {
  Device device(small_config());
  DeviceBuffer<int> a(device, 100);
  const std::size_t used = device.memory_used();
  DeviceBuffer<int> b = std::move(a);
  EXPECT_EQ(device.memory_used(), used);  // no double-charge
  EXPECT_EQ(b.size(), 100u);
  EXPECT_TRUE(a.empty());
}

std::vector<std::thread::id> launch_threads(Device& device,
                                            std::size_t working_set) {
  std::vector<std::thread::id> ran_on(500);
  device.launch_blocking(ran_on.size(), 64, working_set,
                         [&ran_on](const WarpContext& ctx) {
                           ran_on[ctx.warp_id] = std::this_thread::get_id();
                         });
  return ran_on;
}

TEST(DeviceOccupancy, TinyWorkingSetRunsOnTheCaller) {
  Device device(small_config());
  for (const std::thread::id id : launch_threads(device, kTinyWorkingSet)) {
    ASSERT_EQ(id, std::this_thread::get_id());
  }
}

TEST(DeviceOccupancy, LargeWorkingSetRunsOnWorkers) {
  Device device(small_config());
  for (const std::thread::id id : launch_threads(device, kLargeWorkingSet)) {
    ASSERT_NE(id, std::thread::id{});
    ASSERT_NE(id, std::this_thread::get_id());
  }
}

/// Runs a one-warp launch sized `first` whose warp waits up to 100 ms for
/// the warp of a second launch, sized `second` and made from another
/// thread once the first is running. True when the second launch ran
/// inside the first: the launch slot failed to serialize them.
bool launches_overlap(std::size_t first, std::size_t second) {
  Device device(small_config());
  std::atomic<bool> first_running{false};
  std::atomic<bool> second_ran{false};
  bool overlapped = false;
  std::thread other([&] {
    while (!first_running.load()) std::this_thread::yield();
    device.launch_blocking(1, 0, second, [&](const WarpContext&) {
      second_ran.store(true);
    });
  });
  device.launch_blocking(1, 0, first, [&](const WarpContext&) {
    first_running.store(true);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(100);
    while (!second_ran.load() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    overlapped = second_ran.load();
  });
  other.join();
  return overlapped;
}

TEST(DeviceOccupancy, InlineAndSpreadLaunchesSerialize) {
  EXPECT_FALSE(launches_overlap(kTinyWorkingSet, kLargeWorkingSet));
  EXPECT_FALSE(launches_overlap(kLargeWorkingSet, kTinyWorkingSet));
}

class DeviceWorkerCountTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(DeviceWorkerCountTest, AllWarpsRunUnderAnyWorkerCount) {
  Device device(small_config(1 << 20, GetParam()));
  std::atomic<std::size_t> count{0};
  launch_spread(device, 997, 0, [&count](const WarpContext&) {
    count.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(count.load(), 997u);
}

INSTANTIATE_TEST_SUITE_P(Workers, DeviceWorkerCountTest,
                         ::testing::Values(1, 2, 3, 4, 8));

}  // namespace
}  // namespace gosh::simt
