#include "gosh/baselines/line_device.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "gosh/common/rng.hpp"
#include "gosh/common/sigmoid.hpp"
#include "gosh/embedding/samplers.hpp"
#include "gosh/embedding/schedule.hpp"

namespace gosh::baselines {
namespace {

/// Device-resident alias table (probability + alias arrays).
struct DeviceAlias {
  simt::DeviceBuffer<float> probability;
  simt::DeviceBuffer<vid_t> alias;

  DeviceAlias(simt::Device& device, const graph::Graph& graph, double power)
      : probability(device, graph.num_vertices()),
        alias(device, graph.num_vertices()) {
    const vid_t n = graph.num_vertices();
    std::vector<double> weights(n);
    for (vid_t v = 0; v < n; ++v) {
      weights[v] = std::pow(static_cast<double>(graph.degree(v)), power);
    }
    embedding::AliasTable table{std::span<const double>(weights)};
    // Rebuild flat arrays from the host table by sampling-free extraction:
    // the host AliasTable stores doubles + size_t; convert to the compact
    // device layout.
    std::vector<float> prob_host(n);
    std::vector<vid_t> alias_host(n);
    table.export_arrays(prob_host, alias_host);
    probability.copy_from_host(std::span<const float>(prob_host));
    alias.copy_from_host(std::span<const vid_t>(alias_host));
  }

  vid_t sample(vid_t n, Rng& rng) const noexcept {
    const vid_t slot = rng.next_vertex(n);
    return rng.next_float() < probability.data()[slot]
               ? slot
               : alias.data()[slot];
  }
};

}  // namespace

embedding::EmbeddingMatrix line_device_embed(const graph::Graph& graph,
                                             simt::Device& device,
                                             const LineConfig& config) {
  const vid_t n = graph.num_vertices();
  const eid_t m = graph.num_arcs();
  const unsigned d = config.dim;

  embedding::EmbeddingMatrix matrix(n, d);
  matrix.initialize_random(config.seed);

  // Everything must fit on device at once: CSR (for edge endpoints),
  // matrix, negative alias table. No partitioning fallback — this is
  // GraphVite's single-GPU constraint.
  embedding::DeviceGraph device_graph(device, graph);
  simt::DeviceBuffer<emb_t> matrix_device(device, matrix.size());
  matrix_device.copy_from_host(
      std::span<const emb_t>(matrix.data(), matrix.size()));
  DeviceAlias negatives(device, graph, config.negative_power);

  // Arc source ids: CSR stores targets only; LINE samples arcs uniformly
  // so the kernel needs the source of arc e. One more device array.
  std::vector<vid_t> arc_source_host(m);
  for (vid_t v = 0; v < n; ++v) {
    for (eid_t i = graph.xadj()[v]; i < graph.xadj()[v + 1]; ++i) {
      arc_source_host[i] = v;
    }
  }
  simt::DeviceBuffer<vid_t> arc_source(device, m);
  arc_source.copy_from_host(std::span<const vid_t>(arc_source_host));

  const SigmoidTable& sigmoid = default_sigmoid_table();
  const embedding::UpdateRule rule = config.update_rule;
  const unsigned ns = config.negative_samples;

  // One epoch = |E| edge samples, spread over warps in groups so that one
  // warp handles a contiguous batch of samples (GraphVite's episode-style
  // batching, flattened).
  const eid_t samples_per_epoch = m;
  const eid_t samples_per_warp = 64;
  const std::size_t num_warps =
      (samples_per_epoch + samples_per_warp - 1) / samples_per_warp;

  for (unsigned epoch = 0; epoch < config.epochs; ++epoch) {
    const float lr = embedding::decayed_learning_rate(config.learning_rate,
                                                      epoch, config.epochs);
    const std::uint64_t epoch_seed = hash_combine(config.seed, epoch);

    auto kernel = [&, lr, epoch_seed](const simt::WarpContext& ctx) {
      Rng rng(hash_combine(epoch_seed, ctx.warp_id));
      emb_t* staged = reinterpret_cast<emb_t*>(ctx.shared);
      const eid_t begin = ctx.warp_id * samples_per_warp;
      const eid_t end =
          std::min<eid_t>(begin + samples_per_warp, samples_per_epoch);
      for (eid_t s = begin; s < end; ++s) {
        const eid_t arc = rng.next_bounded(m);
        const vid_t u = arc_source.data()[arc];
        const vid_t v = device_graph.adj()[arc];

        emb_t* source_row = matrix_device.data() + static_cast<std::size_t>(u) * d;
        std::memcpy(staged, source_row, d * sizeof(emb_t));
        embedding::update_embedding(
            staged, matrix_device.data() + static_cast<std::size_t>(v) * d, d,
            1.0f, lr, sigmoid, rule);
        for (unsigned k = 0; k < ns; ++k) {
          const vid_t negative = negatives.sample(n, rng);
          embedding::update_embedding(
              staged,
              matrix_device.data() + static_cast<std::size_t>(negative) * d,
              d, 0.0f, lr, sigmoid, rule);
        }
        std::memcpy(source_row, staged, d * sizeof(emb_t));
      }
    };
    device.launch_blocking(num_warps, d * sizeof(emb_t),
                           matrix.size() * sizeof(emb_t), kernel);
  }

  matrix_device.copy_to_host(std::span<emb_t>(matrix.data(), matrix.size()));
  return matrix;
}

}  // namespace gosh::baselines
