#include "gosh/embedding/trainer.hpp"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>

#include "gosh/common/sigmoid.hpp"
#include "gosh/embedding/schedule.hpp"

namespace gosh::embedding {

unsigned lanes_per_vertex(unsigned dim, bool small_dim_packing) noexcept {
  if (!small_dim_packing) return kWarpSize;
  // Smallest multiple of 8 that covers d, capped at the warp width.
  const unsigned lanes = ((dim + 7) / 8) * 8;
  return std::min(lanes, kWarpSize);
}

unsigned blocked_part_count(vid_t num_vertices, const TrainConfig& config,
                            std::size_t l2_bytes) {
  if (config.naive_kernel ||
      config.positive_sampling != PositiveSampling::kAdjacency) {
    return 0;
  }
  const std::size_t row_bytes = std::size_t{config.dim} * sizeof(emb_t);
  if (std::size_t{num_vertices} * row_bytes <= l2_bytes) return 0;
  const std::size_t part_rows = l2_bytes / 8 / row_bytes;
  if (part_rows == 0) return 0;
  std::size_t parts = (num_vertices + part_rows - 1) / part_rows;
  parts += parts % 2;
  return parts <= num_vertices ? static_cast<unsigned>(parts) : 0;
}

BlockedSchedule::BlockedSchedule(vid_t num_vertices, unsigned num_parts)
    : num_vertices_(num_vertices), num_parts_(num_parts) {
  if (num_parts < 2 || num_parts % 2 != 0 || num_parts > num_vertices) {
    throw std::invalid_argument(
        "BlockedSchedule: part count must be even, >= 2 and <= |V|");
  }
}

std::vector<std::vector<PartPair>> BlockedSchedule::cycle(
    std::uint64_t cycle_seed) const {
  const unsigned k = num_parts_;
  Rng rng(cycle_seed);
  const auto shuffle = [&rng](std::vector<unsigned>& order) {
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.next_bounded(i)]);
    }
  };
  std::vector<unsigned> label(k);
  std::iota(label.begin(), label.end(), 0u);
  shuffle(label);
  std::vector<unsigned> order(k);
  std::iota(order.begin(), order.end(), 0u);
  shuffle(order);

  const std::vector<std::vector<PartPair>> base = circle(k);
  std::vector<std::vector<PartPair>> rounds(k);
  for (unsigned slot = 0; slot < k; ++slot) {
    rounds[slot] = base[order[slot]];
    for (PartPair& pair : rounds[slot]) pair = {label[pair.a], label[pair.b]};
  }
  return rounds;
}

std::vector<std::vector<PartPair>> BlockedSchedule::circle(unsigned k) {
  if (k == 0) return {};
  // The odd count of parts that rotate: round r folds them around part r.
  const unsigned rotating = k % 2 == 1 ? k : k - 1;
  std::vector<std::vector<PartPair>> rounds(k);
  for (unsigned r = 0; r < rotating; ++r) {
    rounds[r].push_back({r, k % 2 == 1 ? r : k - 1});
    for (unsigned i = 1; i <= rotating / 2; ++i) {
      rounds[r].push_back({(r + i) % rotating, (r + rotating - i) % rotating});
    }
  }
  if (k % 2 == 0) {
    for (unsigned p = 0; p < k; ++p) rounds[k - 1].push_back({p, p});
  }
  return rounds;
}

DeviceTrainer::DeviceTrainer(simt::Device& device, const graph::Graph& graph,
                             const TrainConfig& config)
    : device_(device),
      graph_(graph),
      config_(config),
      device_graph_(device, graph) {
  const vid_t n = graph.num_vertices();
  const unsigned parts = blocked_part_count(n, config);
  const std::size_t chain_bytes = 2 * sizeof(std::uint32_t) * n;
  if (parts != 0 && graph.has_sorted_adjacency() &&
      device.memory_free() >= EmbeddingMatrix::bytes_for(n, config.dim) +
                                  chain_bytes + 2 * kCacheLine) {
    blocked_parts_ = parts;
    chain_ = simt::DeviceBuffer<std::uint32_t>(device, 2 * std::size_t{n});
  }
}

void check_level_layout(const char* who, const EmbeddingMatrix& matrix,
                        std::span<const vid_t> slots, vid_t num_vertices,
                        unsigned dim) {
  const std::string prefix = std::string(who) + ": ";
  if (matrix.dim() != dim || (slots.empty() && matrix.rows() != num_vertices)) {
    throw std::invalid_argument(prefix +
                                "matrix shape does not match graph/config");
  }
  if (!slots.empty() && slots.size() != num_vertices) {
    throw std::invalid_argument(prefix + "slots must hold one row per vertex");
  }
  if (std::any_of(slots.begin(), slots.end(),
                  [&matrix](vid_t slot) { return slot >= matrix.rows(); })) {
    throw std::invalid_argument(prefix + "slot beyond the matrix's rows");
  }
}

void upload_rows(simt::DeviceBuffer<emb_t>& buffer,
                 const EmbeddingMatrix& matrix, std::span<const vid_t> slots,
                 vid_t first, vid_t count) {
  const std::span<const emb_t> host(matrix.data(), matrix.size());
  if (slots.empty()) {
    buffer.copy_from_host(host.subspan(std::size_t{first} * matrix.dim(),
                                       std::size_t{count} * matrix.dim()));
  } else {
    buffer.gather_from_host(host, matrix.dim(), slots.subspan(first, count));
  }
}

void download_rows(const simt::DeviceBuffer<emb_t>& buffer,
                   EmbeddingMatrix& matrix, std::span<const vid_t> slots,
                   vid_t first, vid_t count) {
  const std::span<emb_t> host(matrix.data(), matrix.size());
  if (slots.empty()) {
    buffer.copy_to_host(host.subspan(std::size_t{first} * matrix.dim(),
                                     std::size_t{count} * matrix.dim()));
  } else {
    buffer.scatter_to_host(host, matrix.dim(), slots.subspan(first, count));
  }
}

void DeviceTrainer::train(EmbeddingMatrix& matrix, unsigned epochs,
                          std::span<const vid_t> slots) {
  check_level_layout("DeviceTrainer", matrix, slots, graph_.num_vertices(),
                     config_.dim);
  if (epochs == 0) {
    throw std::invalid_argument("DeviceTrainer: epochs must be >= 1");
  }
  if (config_.negative_samples > kMaxNegativeSamples) {
    throw std::invalid_argument(
        "DeviceTrainer: negative_samples must be <= 64");
  }
  const vid_t n = graph_.num_vertices();

  // Upload M once; all epochs train in place on device (Algorithm 2
  // line 6: CopyToDevice(G_i, M_i)).
  simt::DeviceBuffer<emb_t> matrix_device(device_,
                                          std::size_t{n} * config_.dim);
  upload_rows(matrix_device, matrix, slots, 0, n);

  if (blocked_parts_ != 0) {
    train_blocked(matrix_device.data(), epochs);
  } else {
    for (unsigned epoch = 0; epoch < epochs; ++epoch) {
      const float lr =
          decayed_learning_rate(config_.learning_rate, epoch, epochs);
      const std::uint64_t epoch_seed = hash_combine(config_.seed, epoch);
      run_epoch(matrix_device.data(), n, lr, epoch_seed);
      account_pass();
      if (config_.on_epoch) config_.on_epoch(epoch, epochs);
    }
  }

  download_rows(matrix_device, matrix, slots, 0, n);
}

void DeviceTrainer::account_pass() {
  // Analytic traffic accounting per pass (see simt/metrics.hpp): every
  // vertex stages d in + d out and touches (1+ns)*d sample elements
  // twice; with the naive kernel everything is global.
  const std::uint64_t n = graph_.num_vertices();
  const unsigned d = config_.dim;
  const std::uint64_t per_vertex_sample =
      2ull * (1 + config_.negative_samples) * d;
  const std::uint64_t per_vertex_source = 2ull * d;
  if (config_.naive_kernel) {
    device_.metrics().add_global_accesses(
        n * (per_vertex_sample + per_vertex_source +
             2ull * (1 + config_.negative_samples) * d));
  } else {
    device_.metrics().add_global_accesses(n * (per_vertex_sample +
                                               per_vertex_source));
    device_.metrics().add_shared_accesses(
        n * 2ull * (1 + config_.negative_samples) * d);
  }
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
          staged, d, /*positives=*/1, ns, lr, sigmoid, rule,
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

/// Seed of the blocked cycle that starts at pass `first_pass` of a level
/// trained with `seed`; round r of the cycle seeds its sources from
/// hash_combine(cycle seed, r). The stream sits above 2^32, apart from
/// the per-pass seeds of unblocked levels.
std::uint64_t blocked_cycle_seed(std::uint64_t seed,
                                 unsigned first_pass) noexcept {
  return hash_combine(seed, (std::uint64_t{1} << 32) + first_pass);
}

/// One round of a blocked level: its pairs run as the tasks of one launch,
/// each pair training the sources of both its parts in turn, with every
/// sample row inside the pair.
template <typename Sigmoid>
void launch_blocked_round(simt::Device& device,
                          const BlockedSchedule& schedule,
                          const std::vector<PartPair>& pairs,
                          const BlockedRound& round, emb_t* matrix_device,
                          const TrainConfig& config, float lr,
                          const Sigmoid& sigmoid) {
  const unsigned d = config.dim;
  const UpdateRule rule = config.update_rule;
  const unsigned idle =
      idle_lanes(d, lanes_per_vertex(d, config.small_dim_packing));
  auto kernel = [&](const simt::WarpContext& ctx) {
    // Seeded from a runtime value, as in launch_train_epoch.
    float lane_sink = lr + 1.0f;
    emb_t* const staged = reinterpret_cast<emb_t*>(ctx.shared);
    auto row = [matrix_device, d](vid_t v) {
      return matrix_device + static_cast<std::size_t>(v) * d;
    };
    const auto train_part = [&](unsigned part, unsigned partner) {
      for_each_blocked_source(
          round, schedule.part_begin(part), schedule.part_end(part),
          schedule.part_begin(partner), schedule.part_end(partner),
          [&](vid_t src, unsigned positives, auto&& draw_positive,
              auto&& draw_negative) {
            emb_t* const source_row = row(src);
            std::memcpy(staged, source_row, d * sizeof(emb_t));
            // A self sample would update the global row under the staged
            // copy, for the writeback to clobber: skip it.
            const unsigned applied = train_source(
                staged, d, positives, round.negatives, lr, sigmoid, rule,
                [&]() -> emb_t* {
                  const vid_t positive = draw_positive();
                  return positive != src ? row(positive) : nullptr;
                },
                [&]() -> emb_t* {
                  const vid_t negative = draw_negative();
                  return negative != src ? row(negative) : nullptr;
                });
            lane_sink = burn_idle_lanes(idle * applied, lane_sink);
            std::memcpy(source_row, staged, d * sizeof(emb_t));
          });
    };
    const PartPair& pair = pairs[ctx.warp_id];
    train_part(pair.a, pair.b);
    if (pair.a != pair.b) train_part(pair.b, pair.a);
    if (lane_sink == -1.0f) std::abort();
  };
  device.launch_tasks(pairs.size(), d * sizeof(emb_t), kernel);
}

}  // namespace

void DeviceTrainer::train_blocked(emb_t* matrix_device, unsigned epochs) {
  const unsigned k = blocked_parts_;
  const BlockedSchedule schedule(graph_.num_vertices(), k);
  const auto pass_lr = [&](unsigned pass) {
    return decayed_learning_rate(config_.learning_rate, pass, epochs);
  };
  BlockedRound round;
  round.xadj = device_graph_.xadj();
  round.adj = device_graph_.adj();
  round.chain = chain_.data();
  for (unsigned first = 0; first < epochs; first += k) {
    const unsigned trained = std::min(k, epochs - first);
    const std::uint64_t cycle_seed = blocked_cycle_seed(config_.seed, first);
    const std::vector<std::vector<PartPair>> rounds =
        schedule.cycle(cycle_seed);
    round.cycle_draws = trained;
    // A positive lands in any round of the cycle with equal chance, so
    // running the positive-only rounds at the mean rate of the training
    // rounds gives each positive Algorithm 3's mean rate over these
    // passes in expectation; the last rate would weigh them down.
    float positive_only_lr = 0.0f;
    for (unsigned r = 0; r < trained; ++r) {
      positive_only_lr += pass_lr(first + r);
    }
    positive_only_lr /= static_cast<float>(trained);
    for (unsigned r = 0; r < k; ++r) {
      const bool training = r < trained;
      round.seed = hash_combine(cycle_seed, r);
      round.negatives = training ? config_.negative_samples : 0;
      round.cycle_start = r == 0;
      const float lr = training ? pass_lr(first + r) : positive_only_lr;
      if (config_.use_sigmoid_lut) {
        launch_blocked_round(device_, schedule, rounds[r], round,
                             matrix_device, config_, lr,
                             default_sigmoid_table());
      } else {
        launch_blocked_round(device_, schedule, rounds[r], round,
                             matrix_device, config_, lr, ExactSigmoid{});
      }
      if (!training) continue;
      account_pass();
      if (config_.on_epoch) config_.on_epoch(first + r, epochs);
    }
  }
}

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
