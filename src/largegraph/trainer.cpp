#include "gosh/largegraph/trainer.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstring>
#include <deque>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "gosh/common/rng.hpp"
#include "gosh/common/sigmoid.hpp"
#include "gosh/common/sync.hpp"
#include "gosh/embedding/schedule.hpp"
#include "gosh/embedding/update.hpp"
#include "gosh/largegraph/rotation.hpp"
#include "gosh/largegraph/sample_pool.hpp"
#include "gosh/simt/stream.hpp"
#include "gosh/trace/trace.hpp"

namespace gosh::largegraph {
namespace {

constexpr unsigned kNoPart = ~0u;

/// A device pool slot plus the metadata of the pool it currently holds.
struct DevicePool {
  simt::DeviceBuffer<vid_t> ids;  ///< [a_from_b | b_from_a]
  unsigned part_a = kNoPart;
  unsigned part_b = kNoPart;
  std::size_t a_count = 0;  ///< entries in the a_from_b segment
  std::size_t b_count = 0;  ///< entries in the b_from_a segment
};

/// The inputs of one pair kernel: the sources of part a against part b,
/// then those of part b against part a (absent on the diagonal).
struct PairKernelArgs {
  emb_t* slot_a = nullptr;
  emb_t* slot_b = nullptr;
  vid_t a_begin = 0, a_size = 0;
  vid_t b_begin = 0, b_size = 0;
  const vid_t* a_from_b = nullptr;
  const vid_t* b_from_a = nullptr;
  unsigned batch_B = 0;
  unsigned dim = 0;
  unsigned ns = 0;
  float lr = 0.0f;
  embedding::UpdateRule rule = embedding::UpdateRule::kSimultaneous;
  std::uint64_t seed = 0;

  bool diagonal() const noexcept {
    return slot_a == slot_b && a_begin == b_begin;
  }
  /// Bytes of the rows the kernel writes: both parts, one on the diagonal.
  std::size_t working_set_bytes() const noexcept {
    return (std::size_t{a_size} + (diagonal() ? 0 : b_size)) * dim *
           sizeof(emb_t);
  }
};

/// A pair kernel as one warp launch: warps [0, |Va|) run part-a sources
/// sampling from part b, warps [|Va|, |Va|+|Vb|) the reverse (absent on the
/// diagonal). One vertex per warp; the source row is staged in shared
/// memory as in the resident-graph kernel. The launch runs inline when the
/// rows fit one core's L2, else spread over the workers (HOGWILD).
template <typename Sigmoid>
void run_warp_pair_kernel(simt::Device& device, const PairKernelArgs& args,
                          const Sigmoid& sigmoid) {
  const bool diagonal = args.diagonal();
  const std::size_t num_warps =
      static_cast<std::size_t>(args.a_size) + (diagonal ? 0 : args.b_size);
  const std::size_t shared_bytes = args.dim * sizeof(emb_t);

  auto kernel = [args, diagonal, &sigmoid](const simt::WarpContext& ctx) {
    const unsigned d = args.dim;
    // Decode which direction this warp serves.
    const bool forward = ctx.warp_id < args.a_size;
    const vid_t local = forward
                            ? static_cast<vid_t>(ctx.warp_id)
                            : static_cast<vid_t>(ctx.warp_id - args.a_size);
    emb_t* source_slot = forward ? args.slot_a : args.slot_b;
    emb_t* partner_slot = forward ? args.slot_b : args.slot_a;
    const vid_t partner_begin = forward ? args.b_begin : args.a_begin;
    const vid_t partner_size = forward ? args.b_size : args.a_size;
    const vid_t global_id =
        (forward ? args.a_begin : args.b_begin) + local;
    const vid_t* positives = forward ? args.a_from_b : args.b_from_a;

    Rng rng(hash_combine(args.seed, global_id));

    emb_t* source_row = source_slot + static_cast<std::size_t>(local) * d;
    emb_t* staged = reinterpret_cast<emb_t*>(ctx.shared);
    std::memcpy(staged, source_row, d * sizeof(emb_t));

    auto partner_row = [partner_slot, d](vid_t local_id) {
      return partner_slot + static_cast<std::size_t>(local_id) * d;
    };
    for (unsigned i = 0; i < args.batch_B; ++i) {
      // Negatives come from the partner part, generated on device
      // (Section 3.3: "the kernel for the parts draws the negative samples
      // ... randomly from V_k"). On the diagonal the partner is this part:
      // a self sample would update the stale global source row while it
      // is staged in shared memory, only for the closing writeback to
      // clobber it — skip it, as the resident kernel does.
      embedding::train_source(
          staged, d, /*positives=*/1, args.ns, args.lr, sigmoid, args.rule,
          [&]() -> emb_t* {
            const vid_t positive =
                positives[static_cast<std::size_t>(local) * args.batch_B + i];
            return positive != kInvalidVertex &&
                           (!diagonal || positive != global_id)
                       ? partner_row(positive - partner_begin)
                       : nullptr;
          },
          [&]() -> emb_t* {
            const vid_t negative =
                static_cast<vid_t>(rng.next_bounded(partner_size));
            return diagonal && negative == local ? nullptr
                                                 : partner_row(negative);
          });
    }
    std::memcpy(source_row, staged, d * sizeof(emb_t));
  };

  device.launch_blocking(num_warps, shared_bytes, args.working_set_bytes(),
                         kernel);
}

/// A pair kernel above L2, in blocked tasks over S sub-parts per part
/// (trainer.hpp). Sub-part x of the kernel is sub-part x % S of part a when
/// x < S, else of part b; the diagonal has only part a's S.
///
/// Schedule invariant: every task of the kernel is in one launch in
/// round-major order, and the device's workers claim tasks one at a time
/// in index order. A task of round r waits, blocking, until each of its
/// sub-parts has finished round r - 1, and those tasks come earlier in the
/// order. So when a task waits, every task it waits on is already claimed,
/// and the earliest unfinished task never waits: no worker count, one
/// included, can deadlock. The acquire load that ends the wait pairs with
/// the release store that published the round, so the rows a task reads
/// are the ones its sub-parts' previous tasks wrote.
template <typename Sigmoid>
void run_blocked_pair_kernel(simt::Device& device, const PairKernelArgs& args,
                             unsigned sub_parts, const Sigmoid& sigmoid) {
  const unsigned d = args.dim;
  const bool diagonal = args.diagonal();
  struct Side {
    emb_t* slot;
    vid_t begin;
    vid_t size;
    const vid_t* pool;
  };
  const Side sides[2] = {
      {args.slot_a, args.a_begin, args.a_size, args.a_from_b},
      {args.slot_b, args.b_begin, args.b_size, args.b_from_a}};
  // Rows [first, last) of sub-part x, local to its part.
  const auto sub_range = [&](unsigned x) {
    const Side& side = sides[x / sub_parts];
    const std::uint64_t i = x % sub_parts;
    return std::pair<vid_t, vid_t>(
        static_cast<vid_t>(i * side.size / sub_parts),
        static_cast<vid_t>((i + 1) * side.size / sub_parts));
  };

  struct Task {
    unsigned first, second, round;
  };
  std::vector<Task> tasks;
  const auto rounds = pair_kernel_rounds(sub_parts, diagonal);
  const auto num_rounds = static_cast<unsigned>(rounds.size());
  for (unsigned r = 0; r < num_rounds; ++r) {
    for (const embedding::PartPair& pair : rounds[r]) {
      tasks.push_back({pair.a, diagonal ? pair.b : sub_parts + pair.b, r});
    }
  }
  std::vector<std::atomic<unsigned>> rounds_done(diagonal ? sub_parts
                                                          : 2 * sub_parts);

  // The sources of sub-part x against sub-part y.
  const auto train_half = [&](unsigned x, unsigned y, emb_t* staged) {
    const Side& source = sides[x / sub_parts];
    const Side& partner = sides[y / sub_parts];
    const auto [first, last] = sub_range(x);
    const auto [partner_first, partner_last] = sub_range(y);
    embedding::PairVisit visit;
    visit.pool = source.pool;
    visit.part_begin = source.begin;
    visit.batch = args.batch_B;
    visit.partner_begin = partner.begin;
    visit.partner_end = partner.begin + partner.size;
    visit.sub_begin = partner.begin + partner_first;
    visit.sub_end = partner.begin + partner_last;
    visit.seed = args.seed;
    visit.negatives = args.batch_B * args.ns;
    const auto row = [d](const Side& side, vid_t v) {
      return side.slot + static_cast<std::size_t>(v - side.begin) * d;
    };
    embedding::for_each_pair_source(
        visit, source.begin + first, source.begin + last,
        [&](vid_t src, unsigned positives, unsigned negatives,
            auto&& draw_positive, auto&& draw_negative) {
          emb_t* const source_row = row(source, src);
          std::memcpy(staged, source_row, d * sizeof(emb_t));
          // A self sample (the diagonal's) would update the row under the
          // staged copy, for the writeback to clobber: skip it.
          embedding::train_source(
              staged, d, positives, negatives, args.lr, sigmoid, args.rule,
              [&]() -> emb_t* {
                const vid_t positive = draw_positive();
                return positive != src ? row(partner, positive) : nullptr;
              },
              [&]() -> emb_t* {
                const vid_t negative = draw_negative();
                return negative != src ? row(partner, negative) : nullptr;
              });
          std::memcpy(source_row, staged, d * sizeof(emb_t));
        });
  };
  const auto await_round = [&](unsigned x, unsigned round) {
    std::atomic<unsigned>& done = rounds_done[x];
    for (unsigned seen = done.load(std::memory_order_acquire); seen < round;
         seen = done.load(std::memory_order_acquire)) {
      done.wait(seen, std::memory_order_acquire);
    }
  };
  const auto publish_round = [&](unsigned x, unsigned round) {
    rounds_done[x].store(round + 1, std::memory_order_release);
    rounds_done[x].notify_all();
  };

  auto kernel = [&](const simt::WarpContext& ctx) {
    const Task& task = tasks[ctx.warp_id];
    emb_t* const staged = reinterpret_cast<emb_t*>(ctx.shared);
    await_round(task.first, task.round);
    await_round(task.second, task.round);
    train_half(task.first, task.second, staged);
    if (task.first != task.second) train_half(task.second, task.first, staged);
    publish_round(task.first, task.round);
    if (task.first != task.second) publish_round(task.second, task.round);
  };
  device.launch_tasks(tasks.size(), d * sizeof(emb_t), kernel);
}

/// Runs one pair kernel in blocked tasks over `sub_parts` sub-parts per
/// part when its rows exceed one core's L2 and `sub_parts` is not 0, else
/// as one warp launch. Returns whether it ran blocked.
template <typename Sigmoid>
bool run_pair_kernel(simt::Device& device, const PairKernelArgs& args,
                     unsigned sub_parts, const Sigmoid& sigmoid) {
  if (sub_parts == 0 || args.working_set_bytes() <= simt::core_l2_bytes()) {
    run_warp_pair_kernel(device, args, sigmoid);
    return false;
  }
  run_blocked_pair_kernel(device, args, sub_parts, sigmoid);
  return true;
}

}  // namespace

unsigned pair_sub_parts(vid_t part_capacity, unsigned dim,
                        std::size_t l2_bytes) {
  const std::size_t row_bytes = std::size_t{dim} * sizeof(emb_t);
  // Rows one sub-part may hold; a row too wide for half of L2 gets its own.
  const std::size_t rows = std::max<std::size_t>(1, l2_bytes / 2 / row_bytes);
  const std::size_t fit = (part_capacity + rows - 1) / rows;
  // Past 2 * kMaxPairSubParts a sub-part at the cap exceeds L2.
  if (fit > 2 * kMaxPairSubParts) return 0;
  return static_cast<unsigned>(std::min<std::size_t>(kMaxPairSubParts, fit));
}

std::vector<std::vector<embedding::PartPair>> pair_kernel_rounds(
    unsigned sub_parts, bool diagonal) {
  if (diagonal) return embedding::BlockedSchedule::circle(sub_parts);
  std::vector<std::vector<embedding::PartPair>> rounds(sub_parts);
  for (unsigned r = 0; r < sub_parts; ++r) {
    for (unsigned i = 0; i < sub_parts; ++i) {
      rounds[r].push_back({i, (i + r) % sub_parts});
    }
  }
  return rounds;
}

LargeGraphTrainer::LargeGraphTrainer(simt::Device& device,
                                     const graph::Graph& graph,
                                     const embedding::TrainConfig& train_config,
                                     const LargeGraphConfig& config)
    : device_(device),
      graph_(graph),
      train_config_(train_config),
      config_(config) {
  PartitionRequest request;
  request.num_vertices = graph.num_vertices();
  request.dim = train_config.dim;
  request.device_budget_bytes = config.device_budget_bytes != 0
                                    ? config.device_budget_bytes
                                    : device.memory_free();
  request.pgpu = config.pgpu;
  request.sgpu = config.sgpu;
  request.batch_B = config.batch_B;
  plan_ = plan_partitions(request);
}

LargeGraphStats LargeGraphTrainer::train(embedding::EmbeddingMatrix& matrix,
                                         unsigned epochs,
                                         std::span<const vid_t> slots) {
  embedding::check_level_layout("LargeGraphTrainer", matrix, slots,
                                graph_.num_vertices(), train_config_.dim);
  if (train_config_.negative_samples > embedding::kMaxNegativeSamples) {
    throw std::invalid_argument(
        "LargeGraphTrainer: negative_samples must be <= 64");
  }

  const unsigned k = plan_.num_parts();
  const unsigned d = train_config_.dim;
  const vid_t capacity = plan_.part_capacity;
  const unsigned rotations = std::max(
      1u, (epochs + config_.batch_B * k - 1) / (config_.batch_B * k));

  const unsigned sub_parts = pair_sub_parts(capacity, d);

  LargeGraphStats stats;
  stats.num_parts = k;
  stats.rotations = rotations;

  // --- Device residency state. -------------------------------------------
  // PGPU sub-matrix slots; slot_part[s] is the resident part or kNoPart.
  std::vector<simt::DeviceBuffer<emb_t>> submatrices;
  std::vector<unsigned> slot_part(config_.pgpu, kNoPart);
  submatrices.reserve(config_.pgpu);
  for (unsigned s = 0; s < config_.pgpu; ++s) {
    submatrices.emplace_back(device_, static_cast<std::size_t>(capacity) * d);
  }

  // The part transfers; the copy stream's prefetch makes them too.
  auto copy_in = [&](unsigned slot, unsigned part) {
    embedding::upload_rows(submatrices[slot], matrix, slots,
                           plan_.part_begin(part), plan_.part_size(part));
  };
  auto copy_out = [&](unsigned slot, unsigned part) {
    embedding::download_rows(submatrices[slot], matrix, slots,
                             plan_.part_begin(part), plan_.part_size(part));
  };
  auto upload_part = [&](unsigned slot, unsigned part) {
    copy_in(slot, part);
    slot_part[slot] = part;
  };
  auto writeback_part = [&](unsigned slot) {
    if (slot_part[slot] == kNoPart) return;
    copy_out(slot, slot_part[slot]);
    slot_part[slot] = kNoPart;
  };
  auto find_slot = [&](unsigned part) -> std::optional<unsigned> {
    for (unsigned s = 0; s < config_.pgpu; ++s) {
      if (slot_part[s] == part) return s;
    }
    return std::nullopt;
  };

  // Prefetch bookkeeping: one in-flight switch on the copy stream
  // (NextSubMatrix / SwitchSubMatrices of Algorithm 5).
  simt::Stream copy_stream;
  struct Prefetch {
    unsigned slot;
    unsigned part;
    simt::Event done;
  };
  std::optional<Prefetch> pending;

  auto commit_pending = [&] {
    if (!pending) return;
    pending->done.wait();
    slot_part[pending->slot] = pending->part;
    pending.reset();
  };

  auto ensure_resident = [&](unsigned part, unsigned pin_a,
                             unsigned pin_b) -> unsigned {
    if (auto slot = find_slot(part)) return *slot;
    // Victim: any slot not holding a pinned part.
    for (unsigned s = 0; s < config_.pgpu; ++s) {
      if (slot_part[s] == pin_a || slot_part[s] == pin_b) continue;
      writeback_part(s);
      upload_part(s, part);
      stats.submatrix_switches++;
      return s;
    }
    assert(false && "PGPU >= 2 guarantees an evictable slot");
    return 0;
  };

  // --- SGPU device pool slots + PoolManager. -----------------------------
  const std::size_t pool_entries =
      static_cast<std::size_t>(2) * config_.batch_B * capacity;
  std::vector<DevicePool> pools;
  pools.reserve(config_.sgpu);
  for (unsigned s = 0; s < config_.sgpu; ++s) {
    DevicePool pool;
    pool.ids = simt::DeviceBuffer<vid_t>(device_, pool_entries);
    pools.push_back(std::move(pool));
  }

  common::Mutex pool_mutex;
  common::CondVar pool_freed;   // a device pool slot became free
  common::CondVar pool_ready;   // an uploaded pool is available
  std::deque<unsigned> free_pool_slots;
  std::deque<unsigned> ready_pool_slots;  // in pair order
  bool pools_done = false;
  for (unsigned s = 0; s < config_.sgpu; ++s) free_pool_slots.push_back(s);

  SampleManager sample_manager(graph_, plan_, config_.batch_B, rotations,
                               train_config_.seed,
                               /*queue_capacity=*/config_.sgpu);

  // PoolManager: moves ready host pools into free device slots, preserving
  // order (the main loop consumes pools in the same pair order).
  std::thread pool_manager([&] {
    for (;;) {
      auto host_pool = sample_manager.next_pool();
      if (host_pool == nullptr) break;
      unsigned slot;
      {
        common::UniqueLock lock(pool_mutex);
        while (free_pool_slots.empty()) pool_freed.wait(lock);
        slot = free_pool_slots.front();
        free_pool_slots.pop_front();
      }
      DevicePool& device_pool = pools[slot];
      device_pool.part_a = host_pool->part_a;
      device_pool.part_b = host_pool->part_b;
      device_pool.a_count = host_pool->a_from_b.size();
      device_pool.b_count = host_pool->b_from_a.size();
      device_pool.ids.copy_from_host(
          std::span<const vid_t>(host_pool->a_from_b), 0);
      if (!host_pool->b_from_a.empty()) {
        device_pool.ids.copy_from_host(
            std::span<const vid_t>(host_pool->b_from_a),
            device_pool.a_count);
      }
      {
        common::MutexLock lock(pool_mutex);
        ready_pool_slots.push_back(slot);
      }
      pool_ready.notify_one();
    }
    {
      common::MutexLock lock(pool_mutex);
      pools_done = true;
    }
    pool_ready.notify_all();
  });

  // --- Main loop: Algorithm 5 lines 7-13. --------------------------------
  const auto pairs = rotation_pairs(k);
  const embedding::UpdateRule rule = train_config_.update_rule;
  const SigmoidTable& lut = default_sigmoid_table();

  for (unsigned r = 0; r < rotations; ++r) {
    // Phase spans for gosh_embed --trace-out: one "rotation" per r, with
    // the stall ("pool-wait") and compute ("pair-kernel") phases nested
    // inside — the profile that shows whether sampling keeps up with the
    // kernel (the paper's pipeline-overlap argument, measured).
    trace::Span rotation_span(trace::enabled()
                                  ? "rotation-" + std::to_string(r)
                                  : std::string());
    const float lr = embedding::decayed_learning_rate(
        train_config_.learning_rate, r, rotations);
    for (std::size_t pair_index = 0; pair_index < pairs.size(); ++pair_index) {
      const auto [m, s] = pairs[pair_index];
      commit_pending();
      const unsigned slot_m = ensure_resident(m, m, s);
      const unsigned slot_s = m == s ? slot_m : ensure_resident(s, m, s);

      // Wait for the pool of this pair (pools arrive in pair order).
      unsigned pool_slot;
      {
        TRACE_SPAN("pool-wait");
        common::UniqueLock lock(pool_mutex);
        while (ready_pool_slots.empty() && !pools_done) pool_ready.wait(lock);
        assert(!ready_pool_slots.empty());
        pool_slot = ready_pool_slots.front();
        ready_pool_slots.pop_front();
      }
      DevicePool& pool = pools[pool_slot];
      assert(pool.part_a == m && pool.part_b == s);

      // Prefetch the next pair's missing part while the kernel runs.
      if (pair_index + 1 < pairs.size() && config_.pgpu > 2) {
        const auto [next_m, next_s] = pairs[pair_index + 1];
        const unsigned needed =
            !find_slot(next_m) ? next_m : (!find_slot(next_s) ? next_s : kNoPart);
        if (needed != kNoPart) {
          for (unsigned slot = 0; slot < config_.pgpu; ++slot) {
            const unsigned held = slot_part[slot];
            if (held == m || held == s) continue;
            slot_part[slot] = kNoPart;  // reserved for the prefetch
            const unsigned evicted = held;
            Prefetch prefetch{slot, needed, simt::Event{}};
            copy_stream.enqueue([&, slot, evicted, needed] {
              if (evicted != kNoPart) copy_out(slot, evicted);
              copy_in(slot, needed);
            });
            prefetch.done = copy_stream.record();
            pending = std::move(prefetch);
            stats.submatrix_switches++;
            break;
          }
        }
      }

      PairKernelArgs args;
      args.slot_a = submatrices[slot_m].data();
      args.slot_b = submatrices[slot_s].data();
      args.a_begin = plan_.part_begin(m);
      args.a_size = plan_.part_size(m);
      args.b_begin = plan_.part_begin(s);
      args.b_size = plan_.part_size(s);
      args.a_from_b = pool.ids.data();
      args.b_from_a = pool.ids.data() + pool.a_count;
      args.batch_B = config_.batch_B;
      args.dim = d;
      args.ns = train_config_.negative_samples;
      args.lr = lr;
      args.rule = rule;
      args.seed = hash_combine(train_config_.seed,
                               (static_cast<std::uint64_t>(r) << 32) |
                                   (static_cast<std::uint64_t>(m) << 16) | s);

      {
        TRACE_SPAN("pair-kernel");
        const bool blocked =
            train_config_.use_sigmoid_lut
                ? run_pair_kernel(device_, args, sub_parts, lut)
                : run_pair_kernel(device_, args, sub_parts,
                                  embedding::ExactSigmoid{});
        if (blocked) stats.sub_parts = sub_parts;
      }
      stats.kernels++;
      stats.pools_consumed++;
      if (config_.on_pair) config_.on_pair(r, pair_index, pairs.size());

      {
        common::MutexLock lock(pool_mutex);
        free_pool_slots.push_back(pool_slot);
      }
      pool_freed.notify_one();
    }
    // One progress tick per rotation — the partitioned path's analog of
    // the resident trainer's per-epoch tick, through the same hook.
    if (train_config_.on_epoch) train_config_.on_epoch(r, rotations);
  }

  commit_pending();
  copy_stream.synchronize();
  pool_manager.join();

  // Flush every resident part back to the host matrix.
  for (unsigned slot = 0; slot < config_.pgpu; ++slot) writeback_part(slot);
  return stats;
}

}  // namespace gosh::largegraph
