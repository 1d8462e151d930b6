// Algorithm 5 orchestration through the gosh::api facade: out-of-memory
// training end to end, partitioned-path reporting, rotation progress.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <span>
#include <stdexcept>
#include <vector>

#include "gosh/api/api.hpp"
#include "gosh/largegraph/trainer.hpp"

namespace gosh {
namespace {

/// A flat (no-coarsening) partitioned run: backend "largegraph" forces
/// level 0 — the only level — through Algorithm 5, and edge_epochs off
/// makes total_epochs the exact pass count the rotation formula sees.
api::Options partitioned_options(std::size_t device_bytes, unsigned dim,
                                 unsigned passes) {
  api::Options options;
  options.backend = "largegraph";
  options.train().dim = dim;
  options.train().learning_rate = 0.05f;
  options.gosh.enable_coarsening = false;
  options.gosh.edge_epochs = false;
  options.gosh.total_epochs = passes;
  options.device.memory_bytes = device_bytes;
  options.device.workers = 2;
  return options;
}

api::EmbedResult must_embed(const graph::Graph& g,
                            const api::Options& options,
                            api::ProgressObserver* observer = nullptr) {
  auto result = api::embed(g, options, observer);
  EXPECT_TRUE(result.ok()) << result.status().to_string();
  return std::move(result).value();
}

TEST(LargeTrainer, PlansMultipleParts) {
  // 4096 vertices x 32 dims x 4B = 512 KiB of matrix; 160 KiB device.
  const auto g = graph::rmat(12, 20000, 41);
  const auto result =
      must_embed(g, partitioned_options(160u << 10, 32, 4));
  ASSERT_EQ(result.levels.size(), 1u);
  EXPECT_TRUE(result.levels[0].used_large_graph_path);
  EXPECT_GE(result.levels[0].partitions, 3u);
}

TEST(LargeTrainer, TrainsAndReportsStats) {
  const auto g = graph::rmat(12, 20000, 42);
  const auto result =
      must_embed(g, partitioned_options(160u << 10, 32, 40));
  const embedding::LevelReport& level = result.levels.front();

  EXPECT_GT(level.rotations, 0u);
  const auto pairs = static_cast<std::uint64_t>(level.partitions) *
                     (level.partitions + 1) / 2;
  EXPECT_EQ(level.pair_kernels, level.rotations * pairs);
  EXPECT_EQ(level.pools_consumed, level.pair_kernels);
  EXPECT_GT(level.submatrix_switches, 0u);

  EXPECT_EQ(result.embedding.rows(), g.num_vertices());
  for (std::size_t i = 0; i < result.embedding.size(); ++i) {
    EXPECT_TRUE(std::isfinite(result.embedding.data()[i]));
  }
}

TEST(LargeTrainer, RotationCountMatchesFormula) {
  const auto g = graph::rmat(12, 20000, 43);
  api::Options options = partitioned_options(160u << 10, 32, 60);
  options.gosh.large_graph.batch_B = 5;
  const auto result = must_embed(g, options);
  const embedding::LevelReport& level = result.levels.front();
  const unsigned expected = std::max(
      1u, (60 + 5 * level.partitions - 1) / (5 * level.partitions));
  EXPECT_EQ(level.rotations, expected);
}

TEST(LargeTrainer, FiresOneEpochTickPerRotationInOrder) {
  // The acceptance contract of the partitioned path: an observer attached
  // through the facade sees on_epoch once per rotation with
  // total = rotations, plus per-pair detail inside each rotation.
  struct RotationObserver : api::ProgressObserver {
    std::vector<unsigned> ticks;
    std::vector<unsigned> totals;
    std::size_t pair_ticks = 0;
    std::size_t last_num_pairs = 0;
    void on_epoch(std::size_t, unsigned epoch, unsigned total) override {
      ticks.push_back(epoch);
      totals.push_back(total);
    }
    void on_pair(std::size_t, unsigned, std::size_t,
                 std::size_t num_pairs) override {
      ++pair_ticks;
      last_num_pairs = num_pairs;
    }
  };

  const auto g = graph::rmat(12, 20000, 46);
  api::Options options = partitioned_options(160u << 10, 32, 60);
  options.gosh.large_graph.batch_B = 2;
  RotationObserver observer;
  const auto result = must_embed(g, options, &observer);
  const embedding::LevelReport& level = result.levels.front();

  ASSERT_GT(level.rotations, 1u);
  ASSERT_EQ(observer.ticks.size(), level.rotations);
  for (unsigned r = 0; r < level.rotations; ++r) {
    EXPECT_EQ(observer.ticks[r], r);
    EXPECT_EQ(observer.totals[r], level.rotations);
  }
  EXPECT_EQ(observer.pair_ticks, level.pair_kernels);
  EXPECT_EQ(observer.last_num_pairs,
            static_cast<std::size_t>(level.partitions) *
                (level.partitions + 1) / 2);
}

TEST(LargeTrainer, LearnsCommunityStructureAcrossParts) {
  // Two 32-cliques bridged; partitioned so each clique spans parts.
  const vid_t clique = 32;
  std::vector<graph::Edge> edges;
  for (vid_t u = 0; u < clique; ++u) {
    for (vid_t v = u + 1; v < clique; ++v) {
      edges.emplace_back(u, v);
      edges.emplace_back(clique + u, clique + v);
    }
  }
  edges.emplace_back(0, clique);
  const auto g = graph::build_csr(2 * clique, std::move(edges));

  // Budget forces >= 2 parts of 16 vertices.
  api::Options options = partitioned_options(24u << 10, 16, 600);
  options.train().seed = 3;
  options.gosh.large_graph.batch_B = 2;
  options.gosh.large_graph.device_budget_bytes = 20u << 10;
  const auto result = must_embed(g, options);
  ASSERT_GE(result.levels.front().partitions, 2u);
  const embedding::EmbeddingMatrix& m = result.embedding;

  float intra = 0.0f, inter = 0.0f;
  int intra_n = 0, inter_n = 0;
  for (vid_t u = 0; u < 2 * clique; ++u) {
    for (vid_t v = u + 1; v < 2 * clique; ++v) {
      const float d =
          embedding::dot(m.row(u).data(), m.row(v).data(), m.dim());
      if ((u < clique) == (v < clique)) {
        intra += d;
        intra_n++;
      } else {
        inter += d;
        inter_n++;
      }
    }
  }
  EXPECT_GT(intra / intra_n - inter / inter_n, 0.05f);
}

TEST(LargeTrainer, RejectsTooManyNegativeSamples) {
  // The pair kernel's draw buffer holds 1 + 64 rows; api::Options caps
  // negative-samples there, but a TrainConfig built directly skips it.
  simt::DeviceConfig device_config;
  device_config.memory_bytes = 160u << 10;
  device_config.workers = 2;
  simt::Device device(device_config);
  const auto g = graph::rmat(12, 20000, 46);
  embedding::TrainConfig train;
  train.dim = 32;
  train.negative_samples = 65;
  largegraph::LargeGraphTrainer trainer(device, g, train, {});
  embedding::EmbeddingMatrix m(g.num_vertices(), train.dim);
  m.initialize_random(46);
  EXPECT_THROW(trainer.train(m, 5), std::invalid_argument);
}

TEST(LargeTrainer, SlottedLevelTrainsLikeItsOwnMatrix) {
  // The part transfers gather and scatter a slotted level's rows: it trains
  // to the bits of its own matrix and moves the same bytes, leaving the
  // other rows alone. Slots of the wrong count or beyond the matrix are
  // refused. One worker keeps spread pair kernels deterministic.
  simt::DeviceConfig device_config;
  device_config.memory_bytes = 160u << 10;
  device_config.workers = 1;
  const auto g = graph::rmat(12, 20000, 46);
  const vid_t n = g.num_vertices();
  embedding::TrainConfig train;
  train.dim = 32;

  simt::Device own_device(device_config);
  largegraph::LargeGraphTrainer own_trainer(own_device, g, train, {});
  ASSERT_GT(own_trainer.plan().num_parts(), 1u);
  embedding::EmbeddingMatrix own(n, train.dim);
  own.initialize_random(46);
  own_trainer.train(own, 12);

  std::vector<vid_t> slots(n);
  for (vid_t v = 0; v < n; ++v) slots[v] = 2 * (n - 1 - v);
  embedding::EmbeddingMatrix shared(2 * n, train.dim);
  std::fill(shared.data(), shared.data() + shared.size(), 7.0f);
  shared.initialize_random(46, slots);
  simt::Device shared_device(device_config);
  largegraph::LargeGraphTrainer trainer(shared_device, g, train, {});
  trainer.train(shared, 12, slots);
  for (vid_t v = 0; v < n; ++v) {
    ASSERT_TRUE(std::equal(own.row(v).begin(), own.row(v).end(),
                           shared.row(slots[v]).begin()))
        << "vertex " << v;
    for (const float x : shared.row(slots[v] + 1)) ASSERT_EQ(x, 7.0f);
  }
  const auto own_traffic = own_device.metrics().snapshot();
  const auto shared_traffic = shared_device.metrics().snapshot();
  EXPECT_EQ(shared_traffic.h2d_bytes, own_traffic.h2d_bytes);
  EXPECT_EQ(shared_traffic.d2h_bytes, own_traffic.d2h_bytes);

  EXPECT_THROW(
      trainer.train(shared, 12, std::span<const vid_t>(slots).first(n - 1)),
      std::invalid_argument);
  slots[0] = shared.rows();
  EXPECT_THROW(trainer.train(shared, 12, slots), std::invalid_argument);
}

TEST(LargeTrainer, PairKernelsAboveL2RunOnTheWorkerPool) {
  // 8192 x 128 floats in 2 parts of 2 MiB: the off-diagonal pair kernel
  // writes 4 MiB of rows, above a per-core L2, so it trains in blocked
  // sub-part tasks on the worker pool, and the level reports their S.
  // One worker runs every task in claim order, which the wavefront's
  // waits must survive.
  const auto g = graph::rmat(13, 32768, 47);
  api::Options options = partitioned_options(16u << 20, 128, 1);
  options.device.workers = 1;
  options.gosh.large_graph.batch_B = 1;
  options.gosh.large_graph.device_budget_bytes = 7u << 20;
  const auto result = must_embed(g, options);
  const embedding::LevelReport& level = result.levels.front();
  ASSERT_TRUE(level.used_large_graph_path);
  ASSERT_EQ(level.partitions, 2u);
  EXPECT_EQ(level.pair_kernels, 3u);  // (0,0), (0,1), (1,1)
  ASSERT_GT(g.num_vertices() * 128 * sizeof(emb_t), simt::core_l2_bytes());
  EXPECT_EQ(level.blocked_parts, largegraph::pair_sub_parts(4096, 128));
  EXPECT_GE(level.blocked_parts, 2u);
  for (std::size_t i = 0; i < result.embedding.size(); ++i) {
    ASSERT_TRUE(std::isfinite(result.embedding.data()[i]));
  }
}

TEST(LargeTrainer, PairKernelsAreIdenticalAtAnyWorkerCount) {
  // A flat level of 3 L2s of 128-wide rows in 2 parts: every pair kernel
  // exceeds one core's L2 and trains in blocked sub-part tasks. The tasks
  // of a sub-part run in round order and the tasks running at once share
  // no rows, so the worker count cannot change a bit.
  const std::size_t l2 = simt::core_l2_bytes();
  const auto n = static_cast<vid_t>(3 * l2 / (128 * sizeof(emb_t)));
  const auto g = graph::erdos_renyi(n, 4 * eid_t{n}, 48);
  api::Options options = partitioned_options(8 * l2, 128, 8);
  options.gosh.large_graph.batch_B = 2;
  options.gosh.large_graph.device_budget_bytes = 6 * l2;
  std::vector<emb_t> one;
  for (const unsigned workers : {1u, 2u, 4u}) {
    options.device.workers = workers;
    const auto result = must_embed(g, options);
    const embedding::LevelReport& level = result.levels.front();
    ASSERT_EQ(level.partitions, 2u);
    EXPECT_EQ(level.blocked_parts, 3u);
    const std::vector<emb_t> matrix(
        result.embedding.data(),
        result.embedding.data() + result.embedding.size());
    if (workers == 1) {
      one = matrix;
    } else {
      EXPECT_EQ(matrix, one) << workers << " workers";
    }
  }
}

TEST(LargeTrainer, PairKernelsOnPartsAboveFourL2sSpreadOverTheWorkers) {
  // A flat level of 10 L2s of 512-wide rows in 2 parts of 5 L2s: a
  // sub-part at kMaxPairSubParts would still exceed L2, so the pair
  // kernels spread one warp per source over the worker pool, and the
  // level reports no S. This keeps the spread pair kernel under the race
  // detector; one worker, for the reason
  // Trainer.MatrixAboveL2RunsOnTheWorkerPool gives. Wide rows and one
  // negative keep the sample count small.
  constexpr unsigned kDim = 512;
  const std::size_t l2 = simt::core_l2_bytes();
  const auto n = static_cast<vid_t>(10 * l2 / (kDim * sizeof(emb_t)));
  const auto g = graph::erdos_renyi(n, 4 * eid_t{n}, 49);
  api::Options options = partitioned_options(20 * l2, kDim, 1);
  options.device.workers = 1;
  options.train().negative_samples = 1;
  options.gosh.large_graph.batch_B = 1;
  options.gosh.large_graph.device_budget_bytes = 16 * l2;
  const auto result = must_embed(g, options);
  const embedding::LevelReport& level = result.levels.front();
  ASSERT_TRUE(level.used_large_graph_path);
  ASSERT_EQ(level.partitions, 2u);
  EXPECT_EQ(level.pair_kernels, 3u);
  EXPECT_EQ(largegraph::pair_sub_parts(n / 2, kDim), 0u);
  EXPECT_EQ(level.blocked_parts, 0u);
  for (std::size_t i = 0; i < result.embedding.size(); ++i) {
    ASSERT_TRUE(std::isfinite(result.embedding.data()[i]));
  }
}

class LargeTrainerPgpuTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(LargeTrainerPgpuTest, WorksAcrossSlotCounts) {
  const auto g = graph::rmat(11, 8000, 44);
  api::Options options = partitioned_options(256u << 10, 32, 20);
  options.gosh.large_graph.pgpu = GetParam();
  options.gosh.large_graph.device_budget_bytes = 128u << 10;
  const auto result = must_embed(g, options);
  for (std::size_t i = 0; i < result.embedding.size(); ++i) {
    ASSERT_TRUE(std::isfinite(result.embedding.data()[i]));
  }
}

INSTANTIATE_TEST_SUITE_P(Slots, LargeTrainerPgpuTest,
                         ::testing::Values(2, 3, 4));

class LargeTrainerBatchTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(LargeTrainerBatchTest, LargerBMeansFewerRotations) {
  const auto g = graph::rmat(11, 8000, 45);
  api::Options options = partitioned_options(256u << 10, 32, 64);
  options.gosh.large_graph.batch_B = GetParam();
  options.gosh.large_graph.device_budget_bytes = 128u << 10;
  const auto result = must_embed(g, options);
  const embedding::LevelReport& level = result.levels.front();
  // rotations ~ epochs / (B*K): monotone nonincreasing in B given fixed K.
  EXPECT_LE(level.rotations,
            std::max(1u, 64u / (GetParam() * level.partitions) + 1));
}

INSTANTIATE_TEST_SUITE_P(Batches, LargeTrainerBatchTest,
                         ::testing::Values(1, 2, 5, 10));

}  // namespace
}  // namespace gosh
