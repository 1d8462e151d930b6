#include "gosh/embedding/gosh.hpp"

#include <string>
#include <utility>

#include "gosh/common/logging.hpp"
#include "gosh/common/timer.hpp"
#include "gosh/embedding/samplers.hpp"
#include "gosh/embedding/schedule.hpp"

namespace gosh::embedding {
namespace {

GoshConfig preset(double p, float lr, unsigned e_normal, unsigned e_large,
                  bool large_scale, bool coarsen) {
  GoshConfig config;
  config.smoothing_ratio = p;
  config.train.learning_rate = lr;
  config.total_epochs = large_scale ? e_large : e_normal;
  config.enable_coarsening = coarsen;
  return config;
}

}  // namespace

bool fits_on_device(const graph::Graph& graph, unsigned dim,
                    std::size_t budget_bytes) noexcept {
  const std::size_t needed =
      DeviceGraph::required_bytes(graph) +
      EmbeddingMatrix::bytes_for(graph.num_vertices(), dim);
  return needed <= budget_bytes;
}

// Table 3 of the paper.
GoshConfig gosh_fast(bool large_scale) {
  return preset(0.1, 0.050f, 600, 100, large_scale, true);
}
GoshConfig gosh_normal(bool large_scale) {
  return preset(0.3, 0.035f, 1000, 200, large_scale, true);
}
GoshConfig gosh_slow(bool large_scale) {
  return preset(0.5, 0.025f, 1400, 300, large_scale, true);
}
GoshConfig gosh_no_coarsening(bool large_scale) {
  // p is meaningless with a single level.
  return preset(1.0, 0.045f, 1000, 200, large_scale, false);
}

GoshResult gosh_embed(const graph::Graph& graph, simt::Device& device,
                      const GoshConfig& config) {
  WallTimer total_timer;
  GoshResult result;

  // --- Stage 1: coarsening (Algorithm 2 line 1). -------------------------
  // The hierarchy borrows `graph` as level 0 rather than copying its CSR.
  WallTimer coarsen_timer;
  const coarsen::Hierarchy hierarchy =
      config.enable_coarsening
          ? coarsen::multi_edge_collapse(graph, config.coarsening)
          : coarsen::Hierarchy(graph);
  result.coarsening_seconds = coarsen_timer.seconds();

  const std::size_t depth = hierarchy.depth();
  // Every level lives in one |V_0| x d host matrix (matrix.hpp): slots[j]
  // places level j's rows, and level 0's empty slots are the identity.
  std::vector<std::vector<vid_t>> slots(depth);
  for (std::size_t level = 1; level < depth; ++level) {
    slots[level] = coarse_slots(hierarchy.map(level - 1), slots[level - 1],
                                hierarchy.graph(level).num_vertices());
  }
  const std::vector<unsigned> epochs = distribute_epochs(
      config.total_epochs, depth, config.smoothing_ratio);
  result.levels.resize(depth);

  // --- Stage 2: level-by-level training (lines 2-11). --------------------
  const std::size_t device_budget = static_cast<std::size_t>(
      static_cast<double>(device.memory_capacity()) *
      config.device_memory_fraction);

  EmbeddingMatrix matrix(graph.num_vertices(), config.train.dim);
  matrix.initialize_random(config.train.seed, slots[depth - 1]);

  WallTimer training_timer;
  for (std::size_t level_plus_one = depth; level_plus_one > 0;
       --level_plus_one) {
    const std::size_t level = level_plus_one - 1;
    const graph::Graph& level_graph = hierarchy.graph(level);
    LevelReport& report = result.levels[level];
    report.vertices = level_graph.num_vertices();
    report.arcs = level_graph.num_arcs();
    report.epochs = epochs[level];
    report.passes =
        config.edge_epochs
            ? epochs_to_passes(epochs[level],
                               level_graph.num_edges_undirected(),
                               level_graph.num_vertices())
            : epochs[level];

    // Fits-check (line 5): G_i + M_i within the planned device budget.
    const bool fits =
        !(config.force_large_graph && level == 0) &&
        fits_on_device(level_graph, config.train.dim, device_budget);

    LevelEvent event;
    event.level = level;
    event.vertices = report.vertices;
    event.arcs = report.arcs;
    event.epochs = report.epochs;
    event.passes = report.passes;
    event.used_large_graph_path = !fits;
    if (config.on_level) config.on_level(event);

    WallTimer level_timer;
    if (fits) {
      DeviceTrainer trainer(device, level_graph, config.train);
      trainer.train(matrix, report.passes, slots[level]);
      report.blocked_parts = trainer.blocked_parts();
    } else {
      report.used_large_graph_path = true;
      largegraph::LargeGraphConfig lg = config.large_graph;
      if (lg.device_budget_bytes == 0) lg.device_budget_bytes = device_budget;
      largegraph::LargeGraphTrainer trainer(device, level_graph, config.train,
                                            lg);
      const largegraph::LargeGraphStats stats =
          trainer.train(matrix, report.passes, slots[level]);
      report.blocked_parts = stats.sub_parts;
      report.partitions = stats.num_parts;
      report.rotations = stats.rotations;
      report.pair_kernels = stats.kernels;
      report.submatrix_switches = stats.submatrix_switches;
      report.pools_consumed = stats.pools_consumed;
    }
    report.train_seconds = level_timer.seconds();
    if (config.on_level) {
      event.finished = true;
      event.seconds = report.train_seconds;
      event.blocked_parts = report.blocked_parts;
      config.on_level(event);
    }
    log_debug("gosh: level " + std::to_string(level) + " |V|=" +
              std::to_string(report.vertices) + " epochs=" +
              std::to_string(report.epochs) +
              (report.used_large_graph_path ? " [partitioned]" : ""));

    // Projection to the finer level (line 11), in place; this level's
    // slots are not needed again.
    if (level > 0) {
      project_in_place(matrix, hierarchy.map(level - 1), slots[level],
                       slots[level - 1]);
      slots[level] = std::vector<vid_t>();
    }
  }
  result.training_seconds = training_timer.seconds();
  result.embedding = std::move(matrix);
  result.total_seconds = total_timer.seconds();
  return result;
}

}  // namespace gosh::embedding
