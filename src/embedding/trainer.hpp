// TrainInGPU (Algorithm 3) on the emulated device.
//
// Execution model reproduced from Section 3.1:
//   * epochs are synchronized — one kernel launch per epoch, full barrier
//     between launches, so no two epochs overlap;
//   * each source vertex belongs to exactly one warp per epoch (no vertex
//     is a source of two concurrent updates); in a launch spread over the
//     worker pool, sampled rows are read and written lock-free and may
//     race, which the paper accepts;
//   * the source row is staged into warp shared memory for the whole
//     (1 + ns) sample loop and written back once; sampled rows are touched
//     in global memory exactly once per element;
//   * small-dimension packing (Section 3.1.1): for d <= 16, a vertex only
//     needs ceil-to-8 lanes, so 2 (d=16) or 4 (d=8) source vertices share
//     one warp, quartering/halving the warp count.
//
// A matrix that fits one core's L2 trains in one inline launch per pass
// (simt/device.hpp). A matrix above L2 trains in blocked passes instead:
// Algorithm 5's part pairs applied to the resident matrix, with L2 as the
// fast memory (GraphVite's parallel negative sampling). The level is cut
// into K contiguous parts of at most L2/8 each and trains in cycles of K
// passes, each pass one round of a round-robin (BlockedSchedule): the
// round's disjoint part pairs run as the tasks of one launch, one pair per
// worker, and a source draws its negatives from the partner part and its
// positives from the neighbours the partner part holds, in the counts a
// binomial chain assigns (update.hpp, for_each_blocked_source). Every
// write of a pass stays inside one pair, so a blocked level needs no
// HOGWILD waiver and is bit-identical at any worker count. When the pass
// count is not a multiple of K, the last cycle trains sources in its
// first rounds only and applies the positives its later rounds hold in
// positive-only launches at the mean learning rate of its training
// rounds (the rate Algorithm 3 would give those positives on average;
// the level's last rate cost 0.004-0.021 AUC on coarsened presets whose
// finest levels run fewer passes than K). The naive kernel and
// PPR positives keep the launch over the whole matrix spread across the
// worker pool: the first is the Figure 4 baseline, and walk endpoints are
// not ranges of the adjacency.
//
// The "naive kernel" variant drops the staging and the packing (one vertex
// per warp, all accesses accounted as global) — it is the first rung of the
// Figure 4 speedup ladder.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "gosh/embedding/matrix.hpp"
#include "gosh/embedding/samplers.hpp"
#include "gosh/embedding/update.hpp"
#include "gosh/graph/graph.hpp"
#include "gosh/simt/device.hpp"

namespace gosh::embedding {

/// Positive-sample similarity measure Q (Section 2: GOSH trains VERSE's
/// objective, which accepts any vertex similarity; the paper and this
/// default use adjacency).
enum class PositiveSampling {
  kAdjacency,  ///< uniform neighbour of the source
  kPpr,        ///< personalized-PageRank walk endpoint
};

struct TrainConfig {
  unsigned dim = 128;
  unsigned negative_samples = 3;  ///< ns
  float learning_rate = 0.025f;   ///< initial lr, decayed per epoch
  UpdateRule update_rule = UpdateRule::kSimultaneous;
  PositiveSampling positive_sampling = PositiveSampling::kAdjacency;
  float ppr_alpha = 0.85f;        ///< walk-continue probability for kPpr
  bool use_sigmoid_lut = true;
  /// Enables the Section 3.1.1 multi-vertex-per-warp path for d <= 16.
  bool small_dim_packing = true;
  /// Disables shared-memory staging and packing (Figure 4 "naive GPU").
  bool naive_kernel = false;
  std::uint64_t seed = 42;
  /// Optional per-epoch tick `(epoch, total_epochs)`, fired after each
  /// synchronized launch — the hook behind api::ProgressObserver::on_epoch.
  std::function<void(unsigned, unsigned)> on_epoch;
};

/// Lanes serving one source vertex: smallest multiple of 8 covering d,
/// capped at the warp size (Section 3.1.1).
unsigned lanes_per_vertex(unsigned dim, bool small_dim_packing) noexcept;

/// Part count K a resident level of `num_vertices` rows trains blocked
/// with: the smallest even K at which a part, ceil(n / K) rows, takes at
/// most `l2_bytes` / 8, so two parts fill a quarter of L2. 0 when the
/// level trains unblocked: its matrix fits `l2_bytes`, the config keeps
/// the spread launch (naive kernel, PPR positives), or a part of one row
/// would still not fit.
unsigned blocked_part_count(vid_t num_vertices, const TrainConfig& config,
                            std::size_t l2_bytes = simt::core_l2_bytes());

/// One task of a blocked round: the sources of part `a` train against
/// part `b`, then those of `b` against `a` (once when a == b).
struct PartPair {
  unsigned a = 0;
  unsigned b = 0;
  bool operator==(const PartPair&) const = default;
};

/// The round-robin a blocked level trains in, over K contiguous parts
/// whose sizes differ by at most one row. A cycle is K rounds by the
/// circle method: K - 1 rounds of K/2 disjoint pairs and one round of K
/// self-pairs, so every part meets every part, itself included, once per
/// cycle. Each cycle relabels the parts and orders its rounds by
/// permutations drawn from its seed, so a level with fewer passes than K
/// gives each source a random set of partners, the self-pair included,
/// rather than a fixed progression.
class BlockedSchedule {
 public:
  /// `num_parts` must be even, at least 2 and at most `num_vertices`.
  BlockedSchedule(vid_t num_vertices, unsigned num_parts);

  unsigned num_parts() const noexcept { return num_parts_; }
  vid_t part_begin(unsigned part) const noexcept {
    return static_cast<vid_t>(std::uint64_t{part} * num_vertices_ /
                              num_parts_);
  }
  vid_t part_end(unsigned part) const noexcept {
    return part_begin(part + 1);
  }

  /// The K rounds of the cycle seeded by `cycle_seed`, in the order they
  /// run; each round is a perfect matching of the parts. It is circle(K)
  /// relabelled and reordered.
  std::vector<std::vector<PartPair>> cycle(std::uint64_t cycle_seed) const;

  /// The circle method over parts [0, K), K rounds (none for K = 0). An odd
  /// number of parts rotates around a fixed point: round r leaves part r
  /// out of its pairs (a bye). Even K fixes part K - 1 and pairs it with
  /// the bye, then adds a round of K self-pairs; odd K pairs the bye with
  /// itself. Either way each round holds every part once and every
  /// unordered pair, self-pairs included, meets once.
  static std::vector<std::vector<PartPair>> circle(unsigned num_parts);

 private:
  vid_t num_vertices_;
  unsigned num_parts_;
};

/// Throws std::invalid_argument, naming `who`, unless `matrix` holds a
/// level of `num_vertices` rows of `dim` floats in the one-matrix layout
/// (matrix.hpp): with empty `slots` the matrix is the level, otherwise
/// `slots` holds one row per vertex and each is a row of the matrix.
void check_level_layout(const char* who, const EmbeddingMatrix& matrix,
                        std::span<const vid_t> slots, vid_t num_vertices,
                        unsigned dim);

/// Copies level rows [first, first + count) of `matrix` into `buffer`: one
/// contiguous copy when `slots` is empty, else a gather by slot. Either way
/// it meters the same H2D bytes.
void upload_rows(simt::DeviceBuffer<emb_t>& buffer,
                 const EmbeddingMatrix& matrix, std::span<const vid_t> slots,
                 vid_t first, vid_t count);

/// The reverse of upload_rows (metered D2H).
void download_rows(const simt::DeviceBuffer<emb_t>& buffer,
                   EmbeddingMatrix& matrix, std::span<const vid_t> slots,
                   vid_t first, vid_t count);

/// Trains an embedding matrix against one resident graph. The matrix and
/// the CSR both live in device memory for the lifetime of this object —
/// the caller (the Gosh driver) has already verified they fit.
class DeviceTrainer {
 public:
  DeviceTrainer(simt::Device& device, const graph::Graph& graph,
                const TrainConfig& config);

  /// Runs `epochs` training epochs over `matrix` (Algorithm 3), the
  /// learning rate decaying over exactly those epochs. The host matrix is
  /// uploaded once, trained on device, and downloaded at the end. Row v of
  /// the level is matrix row slots[v] (row v when `slots` is empty); see
  /// check_level_layout.
  void train(EmbeddingMatrix& matrix, unsigned epochs,
             std::span<const vid_t> slots = {});

  const TrainConfig& config() const noexcept { return config_; }

  /// K of the blocked passes this trainer runs, 0 when every pass is one
  /// launch over the whole matrix. blocked_part_count() decides, except
  /// that a level keeps the one-launch pass when its adjacency is not
  /// sorted, or when the chain's 8 bytes per vertex do not fit beside the
  /// matrix in the device memory Algorithm 2's fits-check left free.
  unsigned blocked_parts() const noexcept { return blocked_parts_; }

 private:
  void run_epoch(emb_t* matrix_device, vid_t num_vertices, float lr,
                 std::uint64_t epoch_seed);
  void train_blocked(emb_t* matrix_device, unsigned epochs);
  void account_pass();

  simt::Device& device_;
  const graph::Graph& graph_;
  TrainConfig config_;
  DeviceGraph device_graph_;
  unsigned blocked_parts_ = 0;
  simt::DeviceBuffer<std::uint32_t> chain_;  ///< BlockedRound::chain
};

}  // namespace gosh::embedding
