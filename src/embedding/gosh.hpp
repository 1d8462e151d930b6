// The GOSH driver — Algorithm 2 of the paper.
//
//   1. coarsen G_0 into G = {G_0 ... G_{D-1}} (MultiEdgeCollapse);
//   2. randomly initialize M_{D-1};
//   3. for i = D-1 .. 0: train M_i for e_i epochs — on-device in one piece
//      when G_i and M_i fit (TrainInGPU), otherwise through the partitioned
//      large-graph engine (LargeGraphGPU) — then project M_i to level i-1;
//   4. return M_0.
//
// Every M_i lives in one |V_0| x d host matrix, at the row slots of
// matrix.hpp's one-matrix layout, so step 3's projection runs in place and
// no two level-sized matrices are ever held at once.
//
// This is the engine layer behind the `gosh::api` facade (backends
// "device" and "largegraph"); tools, examples, benches and tests drive it
// through gosh/api/api.hpp.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "gosh/coarsening/multi_edge_collapse.hpp"
#include "gosh/embedding/matrix.hpp"
#include "gosh/embedding/trainer.hpp"
#include "gosh/graph/graph.hpp"
#include "gosh/largegraph/trainer.hpp"
#include "gosh/simt/device.hpp"

namespace gosh::embedding {

/// One per-level notification from the pipeline; fired twice per level
/// (begin with finished=false, end with finished=true and seconds set).
struct LevelEvent {
  std::size_t level = 0;
  vid_t vertices = 0;
  eid_t arcs = 0;
  unsigned epochs = 0;
  unsigned passes = 0;
  bool used_large_graph_path = false;
  unsigned blocked_parts = 0;  ///< LevelReport::blocked_parts; end only
  bool finished = false;
  double seconds = 0.0;
};

struct GoshConfig {
  TrainConfig train;
  coarsen::CoarseningConfig coarsening;
  largegraph::LargeGraphConfig large_graph;

  /// Optional per-level progress hook (see LevelEvent). The `gosh::api`
  /// ProgressObserver adapts onto this; leave empty for silence.
  std::function<void(const LevelEvent&)> on_level;
  /// Route level 0 (the original graph) through the Algorithm 5
  /// partitioned engine even when it would fit on the device (the api
  /// "largegraph" backend). Coarser levels keep the per-level fits-check,
  /// exactly as Algorithm 2 line 5 specifies — forcing tiny coarse levels
  /// through rotations would only lose the resident fast path.
  bool force_large_graph = false;

  /// Total epoch budget e, distributed over levels by `smoothing_ratio`.
  unsigned total_epochs = 1000;
  /// p of Table 3; 1.0 = uniform across levels.
  double smoothing_ratio = 0.3;
  /// false = train all epochs on G_0 only (the Gosh-NoCoarse row).
  bool enable_coarsening = true;
  /// Paper epoch semantics (Section 4.3): one epoch samples |E| targets,
  /// i.e. |E_i|/|V_i| TrainInGPU passes at level i. Disable to treat
  /// total_epochs as raw per-|V| passes (cheap smoke tests).
  bool edge_epochs = true;
  /// Fraction of device memory the fits-check may plan for; the rest is
  /// headroom for the trainer's transient buffers.
  double device_memory_fraction = 0.9;
};

/// Algorithm 2's line-5 fits-check: true when `graph`'s device CSR plus a
/// |V| x dim embedding matrix fit within `budget_bytes`. One formula,
/// shared by the per-level routing in gosh_embed and the api facade's
/// auto-selection policy, so the two can never drift apart.
bool fits_on_device(const graph::Graph& graph, unsigned dim,
                    std::size_t budget_bytes) noexcept;

/// Table 3 presets. `large_scale` selects the e_large epoch budgets.
GoshConfig gosh_fast(bool large_scale = false);
GoshConfig gosh_normal(bool large_scale = false);
GoshConfig gosh_slow(bool large_scale = false);
GoshConfig gosh_no_coarsening(bool large_scale = false);

struct LevelReport {
  vid_t vertices = 0;
  eid_t arcs = 0;
  unsigned epochs = 0;  ///< scheduled budget in the paper's epoch unit
  unsigned passes = 0;  ///< Algorithm 3 passes actually run (see edge_epochs)
  bool used_large_graph_path = false;
  double train_seconds = 0.0;
  /// K of the blocked passes a resident level above L2 trained in
  /// (DeviceTrainer::blocked_parts), or S of the sub-parts a partitioned
  /// level's pair kernels above L2 trained in (LargeGraphStats::sub_parts);
  /// 0 when it trained unblocked. A partial last cycle adds positive-only
  /// launches, which count in the device's kernels_launched (simt.kernels)
  /// but not in `passes`.
  unsigned blocked_parts = 0;
  // Algorithm 5 detail, zero when the level trained resident.
  unsigned partitions = 0;               ///< K_i of the partition plan
  unsigned rotations = 0;                ///< ceil(passes / (B * K_i))
  std::uint64_t pair_kernels = 0;        ///< one per (rotation, part pair)
  std::uint64_t submatrix_switches = 0;  ///< host<->device part swaps
  std::uint64_t pools_consumed = 0;      ///< sample pools trained through
};

struct GoshResult {
  EmbeddingMatrix embedding;          ///< M_0
  double coarsening_seconds = 0.0;
  double training_seconds = 0.0;      ///< all levels
  double total_seconds = 0.0;
  std::vector<LevelReport> levels;    ///< index = level (0 = original)
};

/// Runs the full pipeline on `device`. The input graph must be symmetrized
/// (builders do this by default).
GoshResult gosh_embed(const graph::Graph& graph, simt::Device& device,
                      const GoshConfig& config);

}  // namespace gosh::embedding
