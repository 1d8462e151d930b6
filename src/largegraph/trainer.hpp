// LargeGraphGPU (Algorithm 5): embedding a graph whose matrix does not fit
// in device memory.
//
// Three actors cooperate, exactly as in Figure 2 of the paper:
//   * SampleManager (sample_pool.hpp) — a host producer thread filling
//     positive-sample pools for the rotation's part pairs;
//   * PoolManager — a host thread that uploads ready pools into one of the
//     SGPU device pool slots as they free up;
//   * the main thread — walks the inside-out pair order, keeps the PGPU
//     sub-matrix slots loaded (with an async prefetch of the next part on a
//     copy stream so switches hide behind kernel execution, Section 3.3.2),
//     launches the pair kernel, and recycles pool slots.
//
// One rotation runs B positive (and B*ns negative) updates per vertex per
// partner part, so e_i epochs shrink to ceil(e_i / (B * K_i)) rotations.
//
// A pair kernel whose rows fit one core's L2 runs inline, one warp per
// source. A larger one with parts of at most kMaxPairSubParts L2s trains in
// blocked tasks, the cache-blocking of the resident trainer
// (embedding/trainer.hpp) applied inside the pair: each of its parts is
// cut into S contiguous sub-parts (pair_sub_parts), and the kernel runs
// rounds of disjoint sub-part pairs (pair_kernel_rounds), each task
// training the sources of one sub-part against the other and back. Every
// source still makes the unblocked kernel's draws, spread over its S
// visits (embedding::for_each_pair_source). All tasks of the kernel go to
// one launch_tasks call in round-major order, and a task waits until both
// its sub-parts have finished the previous round, so one core owns a
// sub-part's rows while it writes them and the rounds run as a wavefront.
// The tasks of one sub-part run in round order whatever the worker count,
// so such a level is bit-identical at any worker count and races on
// nothing. Larger parts miss L2 whatever S, and their pair kernels spread
// one warp per source over the workers, HOGWILD as in the paper.
//
// Selected through the `gosh::api` facade as backend "largegraph";
// progress is reported through TrainConfig::on_epoch (one tick per
// rotation) and LargeGraphConfig::on_pair (one tick per pair kernel).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "gosh/embedding/matrix.hpp"
#include "gosh/embedding/trainer.hpp"
#include "gosh/graph/graph.hpp"
#include "gosh/largegraph/partition.hpp"
#include "gosh/simt/device.hpp"

namespace gosh::largegraph {

struct LargeGraphConfig {
  unsigned pgpu = 3;            ///< sub-matrix slots on device (paper: 3)
  unsigned sgpu = 4;            ///< sample-pool slots on device (paper: 4)
  unsigned batch_B = 5;         ///< positives per vertex per pool (paper: 5)
  /// Device bytes the planner may use; 0 = the device's free memory at
  /// trainer construction (minus nothing — the caller budgets headroom).
  std::size_t device_budget_bytes = 0;
  /// Optional per-pair tick `(rotation, pair_index, num_pairs)`, fired
  /// after each pair kernel of a rotation — the hook behind
  /// api::ProgressObserver::on_pair. Rotation-level ticks ride
  /// TrainConfig::on_epoch as `(rotation, total_rotations)`.
  std::function<void(unsigned, std::size_t, std::size_t)> on_pair;
};

struct LargeGraphStats {
  unsigned num_parts = 0;
  /// S of the blocked pair kernels, 0 when none ran blocked.
  unsigned sub_parts = 0;
  unsigned rotations = 0;
  std::uint64_t kernels = 0;
  std::uint64_t submatrix_switches = 0;
  std::uint64_t pools_consumed = 0;
};

/// The most sub-parts a blocked pair kernel cuts a part into. A source
/// makes only B * (1 + ns) draws per pair kernel (20 by default) and
/// restages its row in each of its S visits, so CPU per sample grows with
/// S: on 43 MiB parts (2^19 vertices, d = 128, 4 workers, 2 MiB L2) it read
/// 68-74 ns at S = 2-5, 104-107 at 8, 131-132 at 16 and 147-217 at 43, the
/// count at which two sub-parts would fit L2.
inline constexpr unsigned kMaxPairSubParts = 4;

/// S of a level's blocked pair kernels: the smallest count at which two
/// sub-parts of a `part_capacity`-row part, ceil(part_capacity / S) rows
/// each, fit `l2_bytes` together, but at most kMaxPairSubParts; 0 when a
/// sub-part at the cap would exceed `l2_bytes` (a part above
/// kMaxPairSubParts L2s), where the pair kernels spread over the workers.
/// Capped at S = 4 the blocked kernel beat the spread one on 4.6 and 7.1
/// MiB parts, but on 11.6-128 MiB parts it took 6% less to 15% more CPU
/// and mostly 10-38% more wall time. S depends on the plan and the
/// dimension, never on the worker count; a pair kernel takes it only when
/// its rows exceed `l2_bytes`, which makes it at least 2.
unsigned pair_sub_parts(vid_t part_capacity, unsigned dim,
                        std::size_t l2_bytes = simt::core_l2_bytes());

/// The rounds of a blocked pair kernel with S sub-parts per part, in the
/// order they run; PartPair{i, j} has sub-part i of the kernel's first part
/// meet sub-part j of its second. Off the diagonal round r pairs i with
/// (i + r) mod S, a Latin square in which every (i, j) meets once. On the
/// diagonal both parts are one, and the rounds are the circle method over
/// its sub-parts (embedding::BlockedSchedule::circle), self-pairs included.
/// Either way each round holds every sub-part once.
std::vector<std::vector<embedding::PartPair>> pair_kernel_rounds(
    unsigned sub_parts, bool diagonal);

class LargeGraphTrainer {
 public:
  /// The graph stays on the host (only samples and sub-matrices travel),
  /// so construction never allocates device memory for the CSR.
  LargeGraphTrainer(simt::Device& device, const graph::Graph& graph,
                    const embedding::TrainConfig& train_config,
                    const LargeGraphConfig& config);

  /// Trains `epochs` epochs (converted to rotations) over `matrix`. The
  /// host matrix is the source of truth between part residencies; it holds
  /// the final result. Row v of the level is matrix row slots[v] (row v
  /// when `slots` is empty; see embedding::check_level_layout), so a part
  /// travels as one contiguous copy at level 0 and as a row gather or
  /// scatter above it.
  LargeGraphStats train(embedding::EmbeddingMatrix& matrix, unsigned epochs,
                        std::span<const vid_t> slots = {});

  const PartitionPlan& plan() const noexcept { return plan_; }

 private:
  simt::Device& device_;
  const graph::Graph& graph_;
  embedding::TrainConfig train_config_;
  LargeGraphConfig config_;
  PartitionPlan plan_;
};

}  // namespace gosh::largegraph
