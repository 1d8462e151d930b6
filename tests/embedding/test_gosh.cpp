// The Algorithm 2 driver behind the gosh::api facade: presets, level
// reports, both training paths.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "gosh/api/api.hpp"
#include "gosh/coarsening/multi_edge_collapse.hpp"
#include "gosh/embedding/gosh.hpp"
#include "gosh/embedding/schedule.hpp"
#include "gosh/largegraph/trainer.hpp"
#include "gosh/simt/device.hpp"

namespace gosh {
namespace {

api::Options device_options(std::size_t bytes = 64u << 20) {
  api::Options options;
  options.backend = "device";
  options.device.memory_bytes = bytes;
  options.device.workers = 2;
  return options;
}

api::EmbedResult must_embed(const graph::Graph& g,
                            const api::Options& options) {
  auto result = api::embed(g, options);
  EXPECT_TRUE(result.ok()) << result.status().to_string();
  return std::move(result).value();
}

TEST(Presets, MatchTable3) {
  const auto preset = [](const char* name, bool large_scale = false) {
    api::Options options;
    if (large_scale) {
      EXPECT_TRUE(options.set("large-scale", "true").is_ok());
    }
    EXPECT_TRUE(options.set("preset", name).is_ok());
    return options;
  };

  EXPECT_DOUBLE_EQ(preset("fast").gosh.smoothing_ratio, 0.1);
  EXPECT_FLOAT_EQ(preset("fast").train().learning_rate, 0.050f);
  EXPECT_EQ(preset("fast").gosh.total_epochs, 600u);
  EXPECT_EQ(preset("fast", true).gosh.total_epochs, 100u);

  EXPECT_DOUBLE_EQ(preset("normal").gosh.smoothing_ratio, 0.3);
  EXPECT_FLOAT_EQ(preset("normal").train().learning_rate, 0.035f);
  EXPECT_EQ(preset("normal").gosh.total_epochs, 1000u);
  EXPECT_EQ(preset("normal", true).gosh.total_epochs, 200u);

  EXPECT_DOUBLE_EQ(preset("slow").gosh.smoothing_ratio, 0.5);
  EXPECT_FLOAT_EQ(preset("slow").train().learning_rate, 0.025f);
  EXPECT_EQ(preset("slow").gosh.total_epochs, 1400u);
  EXPECT_EQ(preset("slow", true).gosh.total_epochs, 300u);

  EXPECT_FALSE(preset("nocoarse").gosh.enable_coarsening);
  EXPECT_FLOAT_EQ(preset("nocoarse").train().learning_rate, 0.045f);
}

TEST(GoshEmbed, ProducesFullSizeEmbedding) {
  const auto g = graph::rmat(10, 4000, 21);
  api::Options options = device_options();
  ASSERT_TRUE(options.set("preset", "fast").is_ok());
  options.train().dim = 16;
  options.gosh.total_epochs = 50;
  const auto result = must_embed(g, options);
  EXPECT_EQ(result.embedding.rows(), g.num_vertices());
  EXPECT_EQ(result.embedding.dim(), 16u);
  for (std::size_t i = 0; i < result.embedding.size(); ++i) {
    EXPECT_TRUE(std::isfinite(result.embedding.data()[i]));
  }
}

TEST(GoshEmbed, ReportsLevels) {
  const auto g = graph::rmat(11, 8000, 22);
  api::Options options = device_options();
  options.train().dim = 16;
  options.gosh.total_epochs = 60;
  const auto result = must_embed(g, options);
  ASSERT_GT(result.levels.size(), 1u);
  // Level 0 is the original graph; deeper levels shrink.
  EXPECT_EQ(result.levels[0].vertices, g.num_vertices());
  for (std::size_t i = 0; i + 1 < result.levels.size(); ++i) {
    EXPECT_GT(result.levels[i].vertices, result.levels[i + 1].vertices);
    EXPECT_GT(result.levels[i].epochs, 0u);
  }
  EXPECT_GT(result.coarsening_seconds, 0.0);
  EXPECT_GT(result.training_seconds, 0.0);
}

TEST(GoshEmbed, NoCoarseningUsesSingleLevel) {
  const auto g = graph::rmat(9, 2000, 23);
  api::Options options = device_options();
  ASSERT_TRUE(options.set("preset", "nocoarse").is_ok());
  options.train().dim = 8;
  options.gosh.total_epochs = 20;
  const auto result = must_embed(g, options);
  EXPECT_EQ(result.levels.size(), 1u);
  EXPECT_EQ(result.levels[0].epochs, 20u);
}

TEST(GoshEmbed, EdgeEpochsConvertToDensityScaledPasses) {
  const auto g = graph::rmat(9, 2000, 25);
  api::Options options = device_options();
  ASSERT_TRUE(options.set("preset", "nocoarse").is_ok());
  options.train().dim = 8;
  options.gosh.total_epochs = 10;
  const auto with_conversion = must_embed(g, options);
  const unsigned expected = embedding::epochs_to_passes(
      10, g.num_edges_undirected(), g.num_vertices());
  EXPECT_EQ(with_conversion.levels[0].passes, expected);

  options.gosh.edge_epochs = false;
  const auto raw = must_embed(g, options);
  EXPECT_EQ(raw.levels[0].passes, 10u);
}

TEST(GoshEmbed, FallsBackToLargeGraphPath) {
  // A device too small for graph+matrix must route through Algorithm 5 —
  // at least for the original (largest) level, while the deep-coarsened
  // levels fit and use the resident path.
  graph::LfrParams params;
  params.average_degree = 10.0;
  params.communities = 32;
  const auto g = graph::lfr_like(2048, params, 24);
  api::Options options = device_options(192u << 10);
  ASSERT_TRUE(options.set("preset", "fast").is_ok());
  options.train().dim = 32;  // matrix = 2048*32*4 = 256 KiB > device
  options.gosh.total_epochs = 30;
  const auto result = must_embed(g, options);
  EXPECT_TRUE(result.levels[0].used_large_graph_path);
  EXPECT_GT(result.levels[0].partitions, 1u);
  EXPECT_GT(result.levels[0].rotations, 0u);
  EXPECT_FALSE(result.levels.back().used_large_graph_path);
  EXPECT_EQ(result.levels.back().partitions, 0u);
  for (std::size_t i = 0; i < result.embedding.size(); ++i) {
    EXPECT_TRUE(std::isfinite(result.embedding.data()[i]));
  }
}

TEST(GoshEmbed, CoarseningImprovesSmallBudgetQuality) {
  // The paper's Table 6 story in miniature: with a small epoch budget,
  // multilevel training reaches structure a flat run misses. We check
  // both run and produce finite embeddings and coarsened is not worse by
  // an order of magnitude in community separation.
  const vid_t clique = 8;
  std::vector<graph::Edge> edges;
  for (vid_t u = 0; u < clique; ++u) {
    for (vid_t v = u + 1; v < clique; ++v) {
      edges.emplace_back(u, v);
      edges.emplace_back(clique + u, clique + v);
    }
  }
  edges.emplace_back(0, clique);
  const auto g = graph::build_csr(2 * clique, std::move(edges));

  auto separation = [&](bool coarsen) {
    api::Options options = device_options();
    if (!coarsen) {
      EXPECT_TRUE(options.set("preset", "nocoarse").is_ok());
    }
    options.train().dim = 16;
    options.train().learning_rate = 0.05f;
    options.gosh.total_epochs = 400;
    options.gosh.coarsening.threshold = 4;
    const auto result = must_embed(g, options);
    float intra = 0.0f, inter = 0.0f;
    int intra_n = 0, inter_n = 0;
    for (vid_t u = 0; u < 2 * clique; ++u) {
      for (vid_t v = u + 1; v < 2 * clique; ++v) {
        const float d = embedding::dot(result.embedding.row(u).data(),
                                       result.embedding.row(v).data(), 16);
        if ((u < clique) == (v < clique)) {
          intra += d;
          intra_n++;
        } else {
          inter += d;
          inter_n++;
        }
      }
    }
    return intra / intra_n - inter / inter_n;
  };
  EXPECT_GT(separation(true), 0.05f);
  EXPECT_GT(separation(false), 0.05f);
}

TEST(GoshEmbed, IdenticalAtAnyWorkerCountAndOnRepeat) {
  // An LFR graph whose level-0 matrix is twice this host's L2, so level 0
  // trains in blocked passes. The hierarchy depends only on the graph, and
  // blocked and inline levels train alike at any worker count, so the
  // whole embedding is bit-identical.
  constexpr unsigned kDim = 128;
  const auto n =
      static_cast<vid_t>(2 * simt::core_l2_bytes() / (kDim * sizeof(emb_t)));
  const graph::Graph g = graph::lfr_like(n, {}, 23);
  const auto embed_at = [&g](unsigned workers) {
    api::Options options;
    EXPECT_TRUE(options.set("preset", "normal").is_ok());
    options.backend = "auto";
    options.train().dim = kDim;
    options.gosh.total_epochs = 10;
    options.device.workers = workers;
    return must_embed(g, options);
  };

  const api::EmbedResult first = embed_at(1);
  ASSERT_FALSE(first.levels.empty());
  EXPECT_GT(first.levels[0].blocked_parts, 0u);
  EXPECT_GT(first.levels.size(), 1u);
  for (const unsigned workers : {2u, 4u, 1u}) {  // the last is a repeat
    const api::EmbedResult again = embed_at(workers);
    ASSERT_EQ(again.levels.size(), first.levels.size()) << workers;
    for (std::size_t i = 0; i < first.levels.size(); ++i) {
      EXPECT_EQ(again.levels[i].vertices, first.levels[i].vertices)
          << "level " << i << " at " << workers << " workers";
    }
    ASSERT_EQ(again.embedding.size(), first.embedding.size());
    EXPECT_EQ(std::memcmp(again.embedding.data(), first.embedding.data(),
                          first.embedding.bytes()),
              0)
        << workers << " workers";
  }
}

/// Algorithm 2 as gosh_embed ran it before the one-matrix layout: one
/// EmbeddingMatrix per level, the coarsest drawn whole, each trained level
/// projected into a fresh finer matrix by expand_embedding.
embedding::EmbeddingMatrix per_level_matrices(
    const graph::Graph& g, const simt::DeviceConfig& device_config,
    const embedding::GoshConfig& config,
    std::vector<bool>* partitioned = nullptr) {
  simt::Device device(device_config);
  const coarsen::Hierarchy hierarchy =
      coarsen::multi_edge_collapse(g, config.coarsening);
  const std::size_t depth = hierarchy.depth();
  const std::vector<unsigned> epochs = embedding::distribute_epochs(
      config.total_epochs, depth, config.smoothing_ratio);
  const auto budget = static_cast<std::size_t>(
      static_cast<double>(device.memory_capacity()) *
      config.device_memory_fraction);
  embedding::EmbeddingMatrix matrix(hierarchy.coarsest().num_vertices(),
                                    config.train.dim);
  matrix.initialize_random(config.train.seed);
  if (partitioned != nullptr) partitioned->assign(depth, false);
  for (std::size_t level = depth; level-- > 0;) {
    const graph::Graph& level_graph = hierarchy.graph(level);
    const unsigned passes = embedding::epochs_to_passes(
        epochs[level], level_graph.num_edges_undirected(),
        level_graph.num_vertices());
    if (embedding::fits_on_device(level_graph, config.train.dim, budget)) {
      embedding::DeviceTrainer(device, level_graph, config.train)
          .train(matrix, passes);
    } else {
      largegraph::LargeGraphConfig large_graph = config.large_graph;
      large_graph.device_budget_bytes = budget;
      largegraph::LargeGraphTrainer(device, level_graph, config.train,
                                    large_graph)
          .train(matrix, passes);
      if (partitioned != nullptr) (*partitioned)[level] = true;
    }
    if (level > 0) {
      matrix = embedding::expand_embedding(matrix, hierarchy.map(level - 1));
    }
  }
  return matrix;
}

TEST(GoshEmbed, OneHostMatrixMatchesPerLevelMatrices) {
  // gosh_embed keeps every level in one |V_0|-row matrix and projects in
  // place; the embedding must be byte for byte the per-level loop's. One
  // worker makes spread launches deterministic too.
  embedding::GoshConfig config = embedding::gosh_normal();
  config.train.dim = 32;
  config.total_epochs = 40;
  config.coarsening.threads = 1;
  simt::DeviceConfig device_config;
  device_config.workers = 1;

  // Resident: every level trains on device in one piece.
  {
    const graph::Graph g = graph::lfr_like(4096, {}, 31);
    simt::Device device(device_config);
    const embedding::GoshResult one = embedding::gosh_embed(g, device, config);
    ASSERT_GT(one.levels.size(), 2u);
    for (const embedding::LevelReport& level : one.levels) {
      ASSERT_FALSE(level.used_large_graph_path);
    }
    const embedding::EmbeddingMatrix reference =
        per_level_matrices(g, device_config, config);
    ASSERT_EQ(one.embedding.size(), reference.size());
    EXPECT_EQ(std::memcmp(one.embedding.data(), reference.data(),
                          reference.bytes()),
              0);
  }

  // A small device: levels 0 and 1 go through Algorithm 5, whose part
  // transfers gather and scatter level 1's rows by slot.
  {
    const graph::Graph g = graph::lfr_like(4096, {}, 32);
    device_config.memory_bytes = 192u << 10;
    simt::Device device(device_config);
    const embedding::GoshResult one = embedding::gosh_embed(g, device, config);
    ASSERT_GT(one.levels.size(), 2u);
    std::vector<bool> partitioned;
    const embedding::EmbeddingMatrix reference =
        per_level_matrices(g, device_config, config, &partitioned);
    for (std::size_t level = 0; level < one.levels.size(); ++level) {
      EXPECT_EQ(one.levels[level].used_large_graph_path, partitioned[level]);
    }
    ASSERT_TRUE(partitioned[0]);
    ASSERT_TRUE(partitioned[1]);
    ASSERT_FALSE(partitioned.back());
    ASSERT_EQ(one.embedding.size(), reference.size());
    EXPECT_EQ(std::memcmp(one.embedding.data(), reference.data(),
                          reference.bytes()),
              0);
  }
}

}  // namespace
}  // namespace gosh
