// DeviceTrainer (Algorithm 3): structural behaviour and embedding quality.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <span>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "gosh/common/rng.hpp"
#include "gosh/common/sigmoid.hpp"
#include "gosh/embedding/schedule.hpp"
#include "gosh/embedding/trainer.hpp"
#include "gosh/graph/builder.hpp"
#include "gosh/graph/generators.hpp"

namespace gosh::embedding {
namespace {

simt::DeviceConfig test_device_config() {
  simt::DeviceConfig config;
  config.memory_bytes = 64u << 20;
  config.workers = 2;
  return config;
}

/// Two 8-cliques bridged by a single edge — the canonical "communities"
/// fixture: a good embedding separates the cliques.
graph::Graph two_cliques(vid_t clique = 8) {
  std::vector<graph::Edge> edges;
  for (vid_t u = 0; u < clique; ++u) {
    for (vid_t v = u + 1; v < clique; ++v) {
      edges.emplace_back(u, v);
      edges.emplace_back(clique + u, clique + v);
    }
  }
  edges.emplace_back(0, clique);  // bridge
  return graph::build_csr(2 * clique, std::move(edges));
}

float mean_intra_minus_inter(const EmbeddingMatrix& m, vid_t clique) {
  float intra = 0.0f, inter = 0.0f;
  int intra_count = 0, inter_count = 0;
  for (vid_t u = 0; u < 2 * clique; ++u) {
    for (vid_t v = u + 1; v < 2 * clique; ++v) {
      const float d = dot(m.row(u).data(), m.row(v).data(), m.dim());
      if ((u < clique) == (v < clique)) {
        intra += d;
        intra_count++;
      } else {
        inter += d;
        inter_count++;
      }
    }
  }
  return intra / intra_count - inter / inter_count;
}

TEST(LanesPerVertex, MatchesSection311) {
  EXPECT_EQ(lanes_per_vertex(8, true), 8u);
  EXPECT_EQ(lanes_per_vertex(16, true), 16u);
  EXPECT_EQ(lanes_per_vertex(12, true), 16u);
  EXPECT_EQ(lanes_per_vertex(32, true), 32u);
  EXPECT_EQ(lanes_per_vertex(128, true), 32u);  // capped at warp width
  EXPECT_EQ(lanes_per_vertex(8, false), 32u);   // packing disabled
}

TEST(Trainer, ChangesTheMatrix) {
  simt::Device device(test_device_config());
  const auto g = two_cliques();
  TrainConfig config;
  config.dim = 16;
  EmbeddingMatrix m(g.num_vertices(), config.dim);
  m.initialize_random(1);
  const std::vector<emb_t> before(m.data(), m.data() + m.size());
  DeviceTrainer trainer(device, g, config);
  trainer.train(m, 5);
  bool changed = false;
  for (std::size_t i = 0; i < m.size(); ++i) changed |= m.data()[i] != before[i];
  EXPECT_TRUE(changed);
}

TEST(Trainer, LearnsCommunityStructure) {
  simt::Device device(test_device_config());
  const auto g = two_cliques();
  TrainConfig config;
  config.dim = 16;
  config.learning_rate = 0.05f;
  EmbeddingMatrix m(g.num_vertices(), config.dim);
  m.initialize_random(2);
  DeviceTrainer trainer(device, g, config);
  trainer.train(m, 300);
  EXPECT_GT(mean_intra_minus_inter(m, 8), 0.1f);
}

TEST(Trainer, SingleWorkerIsDeterministic) {
  simt::DeviceConfig config = test_device_config();
  config.workers = 1;
  const auto g = two_cliques();
  TrainConfig train;
  train.dim = 8;
  auto run = [&] {
    simt::Device device(config);
    EmbeddingMatrix m(g.num_vertices(), train.dim);
    m.initialize_random(3);
    DeviceTrainer trainer(device, g, train);
    trainer.train(m, 20);
    return std::vector<emb_t>(m.data(), m.data() + m.size());
  };
  EXPECT_EQ(run(), run());
}

TEST(Trainer, IsolatedVerticesSurvive) {
  // Vertices with no neighbours get no positive updates but must not
  // corrupt the run.
  graph::Graph g = graph::build_csr(10, {{0, 1}});
  simt::Device device(test_device_config());
  TrainConfig config;
  config.dim = 8;
  EmbeddingMatrix m(10, 8);
  m.initialize_random(4);
  DeviceTrainer trainer(device, g, config);
  trainer.train(m, 10);
  for (std::size_t i = 0; i < m.size(); ++i) {
    EXPECT_TRUE(std::isfinite(m.data()[i]));
  }
}

class SmallDimTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(SmallDimTest, PackedQualityMatchesUnpacked) {
  const unsigned d = GetParam();
  const auto g = two_cliques();
  auto quality = [&](bool packed) {
    simt::Device device(test_device_config());
    TrainConfig config;
    config.dim = d;
    config.small_dim_packing = packed;
    config.learning_rate = 0.05f;
    EmbeddingMatrix m(g.num_vertices(), d);
    m.initialize_random(5);
    DeviceTrainer trainer(device, g, config);
    trainer.train(m, 300);
    return mean_intra_minus_inter(m, 8);
  };
  const float packed = quality(true);
  const float unpacked = quality(false);
  EXPECT_GT(packed, 0.05f);
  EXPECT_GT(unpacked, 0.05f);
}

INSTANTIATE_TEST_SUITE_P(Dims, SmallDimTest, ::testing::Values(8u, 16u));

TEST(Trainer, NaiveKernelStillLearns) {
  simt::Device device(test_device_config());
  const auto g = two_cliques();
  TrainConfig config;
  config.dim = 16;
  config.naive_kernel = true;
  config.learning_rate = 0.05f;
  EmbeddingMatrix m(g.num_vertices(), config.dim);
  m.initialize_random(6);
  DeviceTrainer trainer(device, g, config);
  trainer.train(m, 300);
  EXPECT_GT(mean_intra_minus_inter(m, 8), 0.1f);
}

TEST(Trainer, PprSamplingLearnsCommunities) {
  // VERSE's PPR similarity on the device trainer (the generality the
  // paper inherits from VERSE, Section 2).
  simt::Device device(test_device_config());
  const auto g = two_cliques();
  TrainConfig config;
  config.dim = 16;
  config.positive_sampling = PositiveSampling::kPpr;
  config.learning_rate = 0.05f;
  EmbeddingMatrix m(g.num_vertices(), config.dim);
  m.initialize_random(11);
  DeviceTrainer trainer(device, g, config);
  trainer.train(m, 300);
  EXPECT_GT(mean_intra_minus_inter(m, 8), 0.05f);
}

TEST(Trainer, ExactSigmoidPathWorks) {
  simt::Device device(test_device_config());
  const auto g = two_cliques();
  TrainConfig config;
  config.dim = 16;
  config.use_sigmoid_lut = false;
  config.learning_rate = 0.05f;
  EmbeddingMatrix m(g.num_vertices(), config.dim);
  m.initialize_random(7);
  DeviceTrainer trainer(device, g, config);
  trainer.train(m, 300);
  EXPECT_GT(mean_intra_minus_inter(m, 8), 0.1f);
}

TEST(Trainer, SelfNegativesLeaveLoneVertexUntouched) {
  // A one-vertex graph has no positives and every negative is the source
  // itself. Self-negatives must be skipped: in the staged kernel they
  // would update the stale global row only for the writeback to clobber
  // it, so the row must come back bit-identical in both kernel variants.
  graph::Graph g = graph::build_csr(1, std::vector<graph::Edge>{});
  for (const bool naive : {false, true}) {
    simt::Device device(test_device_config());
    TrainConfig config;
    config.dim = 8;
    config.naive_kernel = naive;
    EmbeddingMatrix m(1, 8);
    m.initialize_random(10);
    const std::vector<emb_t> before(m.data(), m.data() + m.size());
    DeviceTrainer trainer(device, g, config);
    trainer.train(m, 20);
    for (std::size_t i = 0; i < m.size(); ++i) {
      EXPECT_EQ(m.data()[i], before[i]) << (naive ? "naive" : "staged");
    }
  }
}

TEST(Trainer, StagedKernelMatchesNaiveKernelExactly) {
  // With one worker the two kernel variants walk identical update
  // sequences; the only historical divergence was the self-negative whose
  // sample-side update the staged writeback silently dropped. 16 vertices
  // x 3 negatives x 50 epochs makes such draws certain.
  simt::DeviceConfig device_config = test_device_config();
  device_config.workers = 1;
  const auto g = two_cliques();
  auto run = [&](bool naive) {
    simt::Device device(device_config);
    TrainConfig config;
    config.dim = 32;  // one vertex per warp in both variants
    config.naive_kernel = naive;
    EmbeddingMatrix m(g.num_vertices(), config.dim);
    m.initialize_random(12);
    DeviceTrainer trainer(device, g, config);
    trainer.train(m, 50);
    return std::vector<emb_t>(m.data(), m.data() + m.size());
  };
  EXPECT_EQ(run(false), run(true));
}

TEST(Trainer, RejectsMismatchedMatrixShape) {
  simt::Device device(test_device_config());
  const auto g = two_cliques();
  TrainConfig config;
  config.dim = 16;
  DeviceTrainer trainer(device, g, config);
  EmbeddingMatrix wrong_rows(g.num_vertices() + 1, 16);
  wrong_rows.initialize_random(13);
  EXPECT_THROW(trainer.train(wrong_rows, 5), std::invalid_argument);
  EmbeddingMatrix wrong_dim(g.num_vertices(), 8);
  wrong_dim.initialize_random(14);
  EXPECT_THROW(trainer.train(wrong_dim, 5), std::invalid_argument);
}

TEST(Trainer, SlottedLevelTrainsLikeItsOwnMatrix) {
  // A level whose rows sit at scattered slots of a larger matrix trains to
  // the bits of its own matrix and moves the same bytes, leaving the other
  // rows alone. Slots of the wrong count or beyond the matrix are refused.
  const auto g = two_cliques();
  const vid_t n = g.num_vertices();
  TrainConfig config;
  config.dim = 16;
  simt::DeviceConfig device_config = test_device_config();
  device_config.workers = 1;

  simt::Device own_device(device_config);
  EmbeddingMatrix own(n, 16);
  own.initialize_random(21);
  DeviceTrainer(own_device, g, config).train(own, 7);

  std::vector<vid_t> slots(n);
  for (vid_t v = 0; v < n; ++v) slots[v] = 2 * (n - 1 - v);
  EmbeddingMatrix shared(2 * n, 16);
  std::fill(shared.data(), shared.data() + shared.size(), 7.0f);
  shared.initialize_random(21, slots);
  simt::Device shared_device(device_config);
  DeviceTrainer trainer(shared_device, g, config);
  trainer.train(shared, 7, slots);
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
      trainer.train(shared, 7, std::span<const vid_t>(slots).first(n - 1)),
      std::invalid_argument);
  slots[0] = shared.rows();
  EXPECT_THROW(trainer.train(shared, 7, slots), std::invalid_argument);
}

TEST(Trainer, RejectsZeroEpochSchedules) {
  // epochs = 0 used to reach decayed_learning_rate as 0/0 and train on
  // NaN; it is an invalid argument now.
  simt::Device device(test_device_config());
  const auto g = two_cliques();
  TrainConfig config;
  config.dim = 16;
  DeviceTrainer trainer(device, g, config);
  EmbeddingMatrix m(g.num_vertices(), 16);
  m.initialize_random(15);
  EXPECT_THROW(trainer.train(m, 0), std::invalid_argument);
}

TEST(Trainer, RejectsTooManyNegativeSamples) {
  // The per-source draw buffer holds 1 + 64 rows; api::Options caps
  // negative-samples there, but a TrainConfig built directly skips it.
  simt::Device device(test_device_config());
  const auto g = two_cliques();
  TrainConfig config;
  config.dim = 16;
  config.negative_samples = 65;
  DeviceTrainer trainer(device, g, config);
  EmbeddingMatrix m(g.num_vertices(), 16);
  m.initialize_random(16);
  EXPECT_THROW(trainer.train(m, 1), std::invalid_argument);

  config.negative_samples = 64;
  DeviceTrainer at_cap(device, g, config);
  EXPECT_NO_THROW(at_cap.train(m, 1));
}

TEST(Trainer, MatrixAboveL2RunsOnTheWorkerPool) {
  // 16384 x 128 floats = 8 MiB, above any per-core L2. The naive kernel
  // keeps the launch over the whole matrix, spread over the worker pool,
  // so this is the trainer test that keeps the spread path under the race
  // detector. One worker is enough to check the hand-off of the matrix to
  // the pool and back; a second would only add the HOGWILD sample-row
  // race .tsan-suppressions waives, and the detector spends minutes on
  // those reports.
  simt::DeviceConfig device_config = test_device_config();
  device_config.workers = 1;
  simt::Device device(device_config);
  const auto g = graph::erdos_renyi(16384, 65536, 17);
  TrainConfig config;
  config.dim = 128;
  config.naive_kernel = true;
  EmbeddingMatrix m(g.num_vertices(), config.dim);
  m.initialize_random(17);
  ASSERT_GT(m.bytes(), simt::core_l2_bytes());
  const std::vector<emb_t> before(m.data(), m.data() + m.size());
  device.metrics().reset();
  DeviceTrainer trainer(device, g, config);
  EXPECT_EQ(trainer.blocked_parts(), 0u);
  trainer.train(m, 2);
  EXPECT_EQ(device.metrics().snapshot().kernels_launched, 2u);
  std::size_t changed = 0;
  for (std::size_t i = 0; i < m.size(); ++i) {
    ASSERT_TRUE(std::isfinite(m.data()[i]));
    changed += m.data()[i] != before[i];
  }
  EXPECT_GT(changed, m.size() / 2);
}

TEST(Trainer, BlockedMatrixAboveL2RunsOnTheWorkerPool) {
  // The same level with the staged kernel trains in blocked passes: two
  // training rounds of a K-round cycle, then K - 2 positive-only rounds,
  // each one task launch. Its pairs never share a row, so two workers
  // run it with nothing for the race detector to waive.
  simt::DeviceConfig device_config = test_device_config();
  device_config.workers = 2;
  simt::Device device(device_config);
  const auto g = graph::erdos_renyi(16384, 65536, 17);
  TrainConfig config;
  config.dim = 128;
  EmbeddingMatrix m(g.num_vertices(), config.dim);
  m.initialize_random(17);
  ASSERT_GT(m.bytes(), simt::core_l2_bytes());
  const std::vector<emb_t> before(m.data(), m.data() + m.size());
  device.metrics().reset();
  DeviceTrainer trainer(device, g, config);
  const unsigned k = trainer.blocked_parts();
  EXPECT_EQ(k, blocked_part_count(g.num_vertices(), config));
  ASSERT_GE(k, 2u);
  trainer.train(m, 2);
  EXPECT_EQ(device.metrics().snapshot().kernels_launched, k);
  std::size_t changed = 0;
  for (std::size_t i = 0; i < m.size(); ++i) {
    ASSERT_TRUE(std::isfinite(m.data()[i]));
    changed += m.data()[i] != before[i];
  }
  EXPECT_GT(changed, m.size() / 2);
}

// ---- The update sequence, pinned against a reference -------------------

/// The resident kernel's per-source loop written out on the host in its
/// plainest form: sources in order, one RNG per (epoch, source), the
/// positive then `ns` negatives, each draw followed at once by its update,
/// self samples and isolated sources skipped. The samplers are restated
/// here rather than borrowed from DeviceGraph, so a change to either side
/// shows.
std::vector<emb_t> reference_train(const graph::Graph& g,
                                   const TrainConfig& config,
                                   const EmbeddingMatrix& initial,
                                   unsigned epochs) {
  const vid_t n = g.num_vertices();
  const unsigned d = config.dim;
  EmbeddingMatrix m(n, d);
  std::copy(initial.data(), initial.data() + initial.size(), m.data());
  const auto& xadj = g.xadj();
  const auto& adj = g.adj();
  auto neighbour = [&](vid_t v, Rng& rng) {
    const eid_t begin = xadj[v];
    const eid_t end = xadj[v + 1];
    return begin == end ? kInvalidVertex
                        : adj[begin + rng.next_bounded(end - begin)];
  };
  auto ppr_endpoint = [&](vid_t v, Rng& rng) {
    for (vid_t current = v;;) {
      const vid_t next = neighbour(current, rng);
      if (next == kInvalidVertex) {
        return current == v ? kInvalidVertex : current;
      }
      current = next;
      if (rng.next_float() >= config.ppr_alpha) return current;
    }
  };
  const SigmoidTable& sigmoid = default_sigmoid_table();
  for (unsigned epoch = 0; epoch < epochs; ++epoch) {
    const float lr =
        decayed_learning_rate(config.learning_rate, epoch, epochs);
    const std::uint64_t epoch_seed = hash_combine(config.seed, epoch);
    for (vid_t src = 0; src < n; ++src) {
      Rng rng(hash_combine(epoch_seed, src));
      emb_t* source = m.row(src).data();
      const vid_t positive =
          config.positive_sampling == PositiveSampling::kPpr
              ? ppr_endpoint(src, rng)
              : neighbour(src, rng);
      if (positive != kInvalidVertex && positive != src) {
        update_embedding(source, m.row(positive).data(), d, 1.0f, lr,
                         sigmoid, config.update_rule);
      }
      for (unsigned k = 0; k < config.negative_samples; ++k) {
        const vid_t negative = rng.next_vertex(n);
        if (negative == src) continue;
        update_embedding(source, m.row(negative).data(), d, 0.0f, lr,
                         sigmoid, config.update_rule);
      }
    }
  }
  return std::vector<emb_t>(m.data(), m.data() + m.size());
}

/// (naive kernel, PPR positives, dim)
using SequenceCase = std::tuple<bool, bool, unsigned>;

class TrainerSequenceTest : public ::testing::TestWithParam<SequenceCase> {};

TEST_P(TrainerSequenceTest, MatchesReferenceLoopBitForBit) {
  const auto [naive, ppr, dim] = GetParam();
  const auto g = two_cliques();
  TrainConfig config;
  config.dim = dim;  // 8: four vertices per warp when packed; 32: one
  config.naive_kernel = naive;
  config.positive_sampling =
      ppr ? PositiveSampling::kPpr : PositiveSampling::kAdjacency;
  config.seed = 99;
  EmbeddingMatrix m(g.num_vertices(), dim);
  m.initialize_random(18);
  const std::vector<emb_t> expected = reference_train(g, config, m, 50);

  // The 16-row matrix fits any L2, so each launch runs its warps in order
  // on this thread: the device walks the reference's exact sequence.
  simt::Device device(test_device_config());
  DeviceTrainer trainer(device, g, config);
  trainer.train(m, 50);
  const std::vector<emb_t> actual(m.data(), m.data() + m.size());
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < actual.size(); ++i) {
    ASSERT_EQ(actual[i], expected[i]) << "element " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Kernels, TrainerSequenceTest,
    ::testing::Combine(::testing::Bool(), ::testing::Bool(),
                       ::testing::Values(8u, 32u)));

TEST(Trainer, AccountsDeviceTraffic) {
  simt::Device device(test_device_config());
  const auto g = two_cliques();
  device.metrics().reset();
  TrainConfig config;
  config.dim = 16;
  EmbeddingMatrix m(g.num_vertices(), config.dim);
  m.initialize_random(8);
  DeviceTrainer trainer(device, g, config);
  trainer.train(m, 3);
  const auto snap = device.metrics().snapshot();
  EXPECT_GT(snap.h2d_bytes, m.bytes());      // matrix + CSR uploads
  EXPECT_GE(snap.d2h_bytes, m.bytes());      // final download
  EXPECT_EQ(snap.kernels_launched, 3u);      // one per epoch
  EXPECT_GT(snap.shared_accesses, 0u);
  EXPECT_GT(snap.global_accesses, 0u);
}

TEST(Trainer, GraphTooBigForDeviceThrows) {
  simt::DeviceConfig config;
  config.memory_bytes = 1024;  // tiny device
  config.workers = 1;
  simt::Device device(config);
  const auto g = graph::erdos_renyi(1000, 5000, 9);
  TrainConfig train;
  EXPECT_THROW(DeviceTrainer(device, g, train), simt::DeviceOutOfMemory);
}

}  // namespace
}  // namespace gosh::embedding
