#include "gosh/embedding/trainer.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "gosh/common/sigmoid.hpp"
#include "gosh/embedding/schedule.hpp"

namespace gosh::embedding {

unsigned lanes_per_vertex(unsigned dim, bool small_dim_packing) noexcept {
  if (!small_dim_packing) return kWarpSize;
  // Smallest multiple of 8 that covers d, capped at the warp width.
  const unsigned lanes = ((dim + 7) / 8) * 8;
  return std::min(lanes, kWarpSize);
}

DeviceTrainer::DeviceTrainer(simt::Device& device, const graph::Graph& graph,
                             const TrainConfig& config)
    : device_(device),
      graph_(graph),
      config_(config),
      device_graph_(device, graph) {}

void DeviceTrainer::train(EmbeddingMatrix& matrix, unsigned epochs) {
  train(matrix, epochs, 0, epochs);
}

void DeviceTrainer::train(EmbeddingMatrix& matrix, unsigned epochs,
                          unsigned lr_offset, unsigned lr_total) {
  if (matrix.rows() != graph_.num_vertices() ||
      matrix.dim() != config_.dim) {
    throw std::invalid_argument(
        "DeviceTrainer: matrix shape does not match graph/config");
  }
  if (epochs == 0) {
    throw std::invalid_argument("DeviceTrainer: epochs must be >= 1");
  }
  if (config_.negative_samples > kMaxNegativeSamples) {
    throw std::invalid_argument(
        "DeviceTrainer: negative_samples must be <= 64");
  }
  if (lr_total == 0) {
    // A zero-length decay schedule would divide 0/0 in
    // decayed_learning_rate and train every epoch on NaN.
    throw std::invalid_argument(
        "DeviceTrainer: lr_total must be >= 1 when epochs > 0");
  }
  const vid_t n = graph_.num_vertices();
  const unsigned d = config_.dim;

  // Upload M once; all epochs train in place on device (Algorithm 2
  // line 6: CopyToDevice(G_i, M_i)).
  simt::DeviceBuffer<emb_t> matrix_device(device_, matrix.size());
  matrix_device.copy_from_host(
      std::span<const emb_t>(matrix.data(), matrix.size()));

  for (unsigned epoch = 0; epoch < epochs; ++epoch) {
    const float lr = decayed_learning_rate(config_.learning_rate,
                                           lr_offset + epoch, lr_total);
    const std::uint64_t epoch_seed =
        hash_combine(config_.seed, lr_offset + epoch);
    run_epoch(matrix_device.data(), n, lr, epoch_seed);

    // Analytic traffic accounting per epoch (see simt/metrics.hpp): every
    // vertex stages d in + d out and touches (1+ns)*d sample elements
    // twice; with the naive kernel everything is global.
    const std::uint64_t per_vertex_sample =
        2ull * (1 + config_.negative_samples) * d;
    const std::uint64_t per_vertex_source = 2ull * d;
    if (config_.naive_kernel) {
      device_.metrics().add_global_accesses(
          n * (per_vertex_sample + per_vertex_source +
               2ull * (1 + config_.negative_samples) * d));
    } else {
      device_.metrics().add_global_accesses(n *
                                            (per_vertex_sample +
                                             per_vertex_source));
      device_.metrics().add_shared_accesses(
          n * 2ull * (1 + config_.negative_samples) * d);
    }
    if (config_.on_epoch) config_.on_epoch(lr_offset + epoch, lr_total);
  }

  matrix_device.copy_to_host(std::span<emb_t>(matrix.data(), matrix.size()));
}

namespace {

/// Lanes that idle when a d-wide row is processed by `lanes` lockstep
/// lanes: the last round covers d % lanes elements, leaving the rest of
/// the warp stalled — the under-utilization Section 3.1.1 eliminates.
unsigned idle_lanes(unsigned d, unsigned lanes) noexcept {
  return d % lanes == 0 ? 0 : lanes - d % lanes;
}

/// Burns the issue slots of `idle` lanes for one row pass: a dependent
/// FMA chain that the compiler cannot fold (non-associative float math),
/// approximating the per-element cost of an active lane. This is what
/// makes the emulator reproduce the paper's Table 8: without packing,
/// d = 8, 16 and 32 all cost one full warp per vertex.
inline float burn_idle_lanes(unsigned idle, float sink) noexcept {
  for (unsigned j = 0; j < idle * 3; ++j) sink += sink * 1e-9f;
  return sink;
}

/// The Algorithm 3 epoch body, generic over the sigmoid evaluation so that
/// the LUT and the exact form compile to separate, branch-free hot loops.
template <typename Sigmoid>
void launch_train_epoch(simt::Device& device, const DeviceGraph& graph,
                        emb_t* matrix_device, vid_t num_vertices,
                        const TrainConfig& config, float lr,
                        std::uint64_t epoch_seed, const Sigmoid& sigmoid) {
  const unsigned d = config.dim;
  const unsigned ns = config.negative_samples;
  const UpdateRule rule = config.update_rule;

  const unsigned lanes =
      config.naive_kernel ? kWarpSize
                          : lanes_per_vertex(d, config.small_dim_packing);
  const unsigned vertices_per_warp = kWarpSize / lanes;
  const std::size_t num_warps =
      (num_vertices + vertices_per_warp - 1) / vertices_per_warp;
  const unsigned idle = idle_lanes(d, lanes);

  // Shared memory: the staged source rows of this warp's vertices.
  const std::size_t shared_bytes =
      config.naive_kernel ? 0 : vertices_per_warp * d * sizeof(emb_t);

  auto kernel = [matrix_device, num_vertices, lr, epoch_seed, d, ns, rule,
                 &sigmoid, &graph, vertices_per_warp, idle,
                 ppr = config.positive_sampling == PositiveSampling::kPpr,
                 ppr_alpha = config.ppr_alpha,
                 naive = config.naive_kernel](const simt::WarpContext& ctx) {
    // Seeded from a runtime value: a literal seed is a float fixpoint of
    // the burn step and lets the compiler const-fold the chain away.
    float lane_sink = lr + 1.0f;
    auto row = [matrix_device, d](vid_t v) {
      return matrix_device + static_cast<std::size_t>(v) * d;
    };
    for (unsigned slot = 0; slot < vertices_per_warp; ++slot) {
      const std::size_t index = ctx.warp_id * vertices_per_warp + slot;
      if (index >= num_vertices) break;
      const vid_t src = static_cast<vid_t>(index);

      // Per-(epoch, source) RNG: deterministic given the seed, independent
      // across sources and epochs.
      Rng rng(hash_combine(epoch_seed, src));

      emb_t* source_row = row(src);
      emb_t* staged = source_row;  // naive: work directly on global memory
      if (!naive) {
        staged = reinterpret_cast<emb_t*>(ctx.shared) +
                 static_cast<std::size_t>(slot) * d;
        std::memcpy(staged, source_row, d * sizeof(emb_t));
      }

      // One positive sample drawn from the configured similarity Q, then
      // ns negatives from the uniform noise distribution. A sample equal
      // to the source carries no signal, and in the staged kernel it would
      // update the stale global row underneath the shared-memory copy only
      // for the closing writeback to clobber it — skip it.
      const unsigned applied = train_source(
          staged, d, ns, lr, sigmoid, rule,
          [&]() -> emb_t* {
            const vid_t positive =
                ppr ? graph.ppr_sample(src, ppr_alpha, rng)
                    : graph.positive_sample(src, rng);
            return positive != kInvalidVertex && positive != src
                       ? row(positive)
                       : nullptr;
          },
          [&]() -> emb_t* {
            const vid_t negative = negative_sample(num_vertices, rng);
            return negative != src ? row(negative) : nullptr;
          });
      lane_sink = burn_idle_lanes(idle * applied, lane_sink);

      if (!naive) {
        std::memcpy(source_row, staged, d * sizeof(emb_t));
      }
    }
    // The sink must escape so the burn chain is not dead code. It starts
    // above 1.0 and only grows, so it can never equal -1.0 — but the
    // compiler cannot prove that across a runtime-length float loop, so
    // the check forces the chain to be materialized.
    if (lane_sink == -1.0f) std::abort();
  };

  // Every row of the matrix can be a sample, so the whole matrix is the
  // working set the device sizes this launch by.
  device.launch_blocking(
      num_warps, shared_bytes,
      static_cast<std::size_t>(num_vertices) * d * sizeof(emb_t), kernel);
}

}  // namespace

void DeviceTrainer::run_epoch(emb_t* matrix_device, vid_t num_vertices,
                              float lr, std::uint64_t epoch_seed) {
  if (config_.use_sigmoid_lut) {
    launch_train_epoch(device_, device_graph_, matrix_device, num_vertices,
                       config_, lr, epoch_seed, default_sigmoid_table());
  } else {
    launch_train_epoch(device_, device_graph_, matrix_device, num_vertices,
                       config_, lr, epoch_seed, ExactSigmoid{});
  }
}

}  // namespace gosh::embedding
