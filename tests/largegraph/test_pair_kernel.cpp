// Blocked Algorithm 5 pair kernels: the sub-part count, the rounds of
// disjoint sub-part pairs, the per-visit sampling that keeps each source's
// draws those of the unblocked kernel, and the trainer built on them.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <utility>
#include <vector>

#include "gosh/common/rng.hpp"
#include "gosh/common/sigmoid.hpp"
#include "gosh/embedding/schedule.hpp"
#include "gosh/embedding/update.hpp"
#include "gosh/graph/generators.hpp"
#include "gosh/largegraph/rotation.hpp"
#include "gosh/largegraph/sample_pool.hpp"
#include "gosh/largegraph/trainer.hpp"

namespace gosh::largegraph {
namespace {

using embedding::PartPair;

// ---- The schedule --------------------------------------------------------

TEST(PairSchedule, OffDiagonalRoundsAreMatchingsMeetingEveryPairOnce) {
  for (const unsigned s : {2u, 3u, 4u, 5u, 7u}) {
    const auto rounds = pair_kernel_rounds(s, /*diagonal=*/false);
    ASSERT_EQ(rounds.size(), s) << "S=" << s;
    std::map<std::pair<unsigned, unsigned>, unsigned> met;
    for (const std::vector<PartPair>& pairs : rounds) {
      // A perfect matching: each sub-part of either part sits in one pair.
      std::vector<unsigned> first(s, 0), second(s, 0);
      for (const PartPair& pair : pairs) {
        ASSERT_LT(pair.a, s);
        ASSERT_LT(pair.b, s);
        first[pair.a]++;
        second[pair.b]++;
        met[{pair.a, pair.b}]++;
      }
      for (unsigned i = 0; i < s; ++i) {
        ASSERT_EQ(first[i], 1u) << "S=" << s << " sub-part " << i;
        ASSERT_EQ(second[i], 1u) << "S=" << s << " sub-part " << i;
      }
    }
    ASSERT_EQ(met.size(), std::size_t{s} * s) << "S=" << s;
    for (const auto& [pair, count] : met) {
      ASSERT_EQ(count, 1u) << "S=" << s << " (" << pair.first << ","
                           << pair.second << ")";
    }
  }
}

TEST(PairSchedule, DiagonalRoundsCoverEveryUnorderedPairOnce) {
  for (const unsigned s : {2u, 3u, 4u, 5u, 7u}) {
    const auto rounds = pair_kernel_rounds(s, /*diagonal=*/true);
    ASSERT_EQ(rounds.size(), s) << "S=" << s;
    std::map<std::pair<unsigned, unsigned>, unsigned> met;
    for (const std::vector<PartPair>& pairs : rounds) {
      // Disjoint: every sub-part in exactly one pair, a self-pair or not.
      std::vector<unsigned> seen(s, 0);
      for (const PartPair& pair : pairs) {
        ASSERT_LT(pair.a, s);
        ASSERT_LT(pair.b, s);
        seen[pair.a]++;
        if (pair.a != pair.b) seen[pair.b]++;
        met[{std::min(pair.a, pair.b), std::max(pair.a, pair.b)}]++;
      }
      for (unsigned i = 0; i < s; ++i) {
        ASSERT_EQ(seen[i], 1u) << "S=" << s << " sub-part " << i;
      }
    }
    ASSERT_EQ(met.size(), std::size_t{s} * (s + 1) / 2) << "S=" << s;
    for (const auto& [pair, count] : met) {
      ASSERT_EQ(count, 1u) << "S=" << s << " (" << pair.first << ","
                           << pair.second << ")";
    }
  }
}

TEST(PairSchedule, SubPartCountIsTheSmallestFittingTwoSubPartsInL2) {
  constexpr std::size_t kL2 = std::size_t{2} << 20;
  // 512-byte rows: two sub-parts hold at most 2048 rows each.
  EXPECT_EQ(pair_sub_parts(2048, 128, kL2), 1u);
  EXPECT_EQ(pair_sub_parts(2049, 128, kL2), 2u);
  EXPECT_EQ(pair_sub_parts(4096, 128, kL2), 2u);
  EXPECT_EQ(pair_sub_parts(6144, 128, kL2), 3u);
  // The 3.2 MiB parts of a partitioned level: S = 4, not L2/8's 13.
  EXPECT_EQ(pair_sub_parts(6554, 128, kL2), 4u);
  for (const vid_t capacity : {2049u, 4097u, 6554u, 8192u}) {
    const unsigned s = pair_sub_parts(capacity, 128, kL2);
    ASSERT_GE(s, 2u);
    EXPECT_LE(2 * ((capacity + s - 1) / s) * 512, kL2) << capacity;
    EXPECT_GT(2 * ((capacity + s - 2) / (s - 1)) * 512, kL2) << capacity;
  }
  // S depends on the rows and their width only.
  EXPECT_EQ(pair_sub_parts(6554, 64, kL2), 2u);
  EXPECT_EQ(pair_sub_parts(4096, 128, kL2 / 2), 4u);
}

TEST(PairSchedule, SubPartCountStopsAtTheCapThenSpreadsAboveFourL2s) {
  constexpr std::size_t kL2 = std::size_t{2} << 20;
  // Past 8192 rows of 512 bytes, two sub-parts fit L2 together only at
  // S > 4: S stays at the cap while one sub-part at the cap fits L2
  // (16384 rows), and is 0 beyond, where the pair kernels spread.
  for (const vid_t capacity : {8193u, 10000u, 16384u}) {
    EXPECT_EQ(pair_sub_parts(capacity, 128, kL2), kMaxPairSubParts)
        << capacity;
  }
  for (const vid_t capacity : {16385u, 65536u, 262144u}) {
    EXPECT_EQ(pair_sub_parts(capacity, 128, kL2), 0u) << capacity;
  }
  EXPECT_EQ(pair_sub_parts(6554, 128, kL2 / 2), kMaxPairSubParts);
  EXPECT_EQ(pair_sub_parts(6554, 128, kL2 / 4), 0u);
}

// ---- Sampling: one source's draws over its S visits ---------------------

constexpr vid_t kPartnerBegin = 1000;
constexpr vid_t kPartnerRows = 103;
constexpr vid_t kSources = 64;
constexpr unsigned kBatch = 5;
constexpr unsigned kNs = 3;

/// A pool of B entries per source: neighbours spread over the partner part,
/// with kInvalidVertex for some (a source without neighbours there).
std::vector<vid_t> synthetic_pool(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<vid_t> pool(std::size_t{kSources} * kBatch);
  for (vid_t v = 0; v < kSources; ++v) {
    for (unsigned i = 0; i < kBatch; ++i) {
      pool[std::size_t{v} * kBatch + i] =
          v % 7 == 3 ? kInvalidVertex
                     : kPartnerBegin +
                           static_cast<vid_t>(rng.next_bounded(kPartnerRows));
    }
  }
  return pool;
}

struct SourceDraws {
  std::vector<vid_t> positives;
  std::vector<vid_t> negatives;
  std::vector<unsigned> negatives_per_sub_part;
};

/// Every draw the S visits of one pair kernel make, per source.
std::vector<SourceDraws> sample_kernel(const std::vector<vid_t>& pool,
                                       unsigned sub_parts,
                                       std::uint64_t seed) {
  std::vector<SourceDraws> draws(kSources);
  for (SourceDraws& source : draws) {
    source.negatives_per_sub_part.assign(sub_parts, 0);
  }
  embedding::PairVisit visit;
  visit.pool = pool.data();
  visit.part_begin = 0;
  visit.batch = kBatch;
  visit.partner_begin = kPartnerBegin;
  visit.partner_end = kPartnerBegin + kPartnerRows;
  visit.seed = seed;
  visit.negatives = kBatch * kNs;
  for (unsigned j = 0; j < sub_parts; ++j) {
    visit.sub_begin = kPartnerBegin + j * kPartnerRows / sub_parts;
    visit.sub_end = kPartnerBegin + (j + 1) * kPartnerRows / sub_parts;
    embedding::for_each_pair_source(
        visit, 0, kSources,
        [&](vid_t src, unsigned positives, unsigned negatives,
            auto&& draw_positive, auto&& draw_negative) {
          for (unsigned i = 0; i < positives; ++i) {
            const vid_t u = draw_positive();
            EXPECT_GE(u, visit.sub_begin);
            EXPECT_LT(u, visit.sub_end);
            draws[src].positives.push_back(u);
          }
          for (unsigned i = 0; i < negatives; ++i) {
            const vid_t u = draw_negative();
            EXPECT_GE(u, visit.sub_begin);
            EXPECT_LT(u, visit.sub_end);
            draws[src].negatives.push_back(u);
          }
          draws[src].negatives_per_sub_part[j] += negatives;
        });
  }
  return draws;
}

TEST(PairSampling, EveryValidPoolEntryIsDrawnOnce) {
  for (const unsigned s : {2u, 3u, 4u, 5u, 7u}) {
    const std::vector<vid_t> pool = synthetic_pool(s);
    const auto draws = sample_kernel(pool, s, hash_combine(9, s));
    for (vid_t v = 0; v < kSources; ++v) {
      std::vector<vid_t> expected;
      for (unsigned i = 0; i < kBatch; ++i) {
        const vid_t entry = pool[std::size_t{v} * kBatch + i];
        if (entry != kInvalidVertex) expected.push_back(entry);
      }
      std::vector<vid_t> drawn = draws[v].positives;
      std::sort(expected.begin(), expected.end());
      std::sort(drawn.begin(), drawn.end());
      ASSERT_EQ(drawn, expected) << "S=" << s << " source " << v;
    }
  }
}

TEST(PairSampling, EachSourceDrawsBTimesNsNegativesSplitBySubPartSize) {
  for (const unsigned s : {2u, 3u, 4u, 5u, 7u}) {
    const std::vector<vid_t> pool = synthetic_pool(s);
    // Over many kernels the split is unbiased: each sub-part's mean count
    // is its exact share.
    std::vector<double> mean(s, 0.0);
    constexpr unsigned kKernels = 400;
    for (unsigned kernel = 0; kernel < kKernels; ++kernel) {
      const auto draws = sample_kernel(pool, s, hash_combine(s, kernel));
      for (vid_t v = 0; v < kSources; ++v) {
        ASSERT_EQ(draws[v].negatives.size(), kBatch * kNs)
            << "S=" << s << " source " << v;
        for (unsigned j = 0; j < s; ++j) {
          const double rows = (j + 1) * kPartnerRows / s - j * kPartnerRows / s;
          const double share = kBatch * kNs * rows / kPartnerRows;
          const unsigned count = draws[v].negatives_per_sub_part[j];
          ASSERT_GE(count, std::floor(share)) << "S=" << s << " sub " << j;
          ASSERT_LE(count, std::ceil(share)) << "S=" << s << " sub " << j;
          mean[j] += count;
        }
      }
    }
    for (unsigned j = 0; j < s; ++j) {
      const double rows = (j + 1) * kPartnerRows / s - j * kPartnerRows / s;
      EXPECT_NEAR(mean[j] / (kKernels * kSources),
                  kBatch * kNs * rows / kPartnerRows, 0.02)
          << "S=" << s << " sub-part " << j;
    }
  }
}

TEST(PairSampling, NegativesAreUniformWithinEachSubPart) {
  // The per-sub-part chi-square statistics of every negative pick sum to
  // one with sum(|sub-part| - 1) degrees of freedom; picks that favoured
  // a sub-part's ends, or reused one stream across visits, land far
  // outside its spread.
  constexpr unsigned kSubParts = 4;
  const std::vector<vid_t> pool = synthetic_pool(1);
  std::vector<double> counts(kPartnerRows, 0.0);
  std::vector<double> per_sub_part(kSubParts, 0.0);
  for (unsigned kernel = 0; kernel < 300; ++kernel) {
    const auto draws = sample_kernel(pool, kSubParts, hash_combine(2, kernel));
    for (const SourceDraws& source : draws) {
      for (const vid_t u : source.negatives) counts[u - kPartnerBegin]++;
    }
  }
  const auto sub_part_of = [](vid_t row) {
    unsigned j = 0;
    while ((j + 1) * kPartnerRows / kSubParts <= row) ++j;
    return j;
  };
  for (vid_t row = 0; row < kPartnerRows; ++row) {
    per_sub_part[sub_part_of(row)] += counts[row];
  }
  double statistic = 0.0;
  double freedom = 0.0;
  for (unsigned j = 0; j < kSubParts; ++j) {
    const vid_t first = j * kPartnerRows / kSubParts;
    const vid_t last = (j + 1) * kPartnerRows / kSubParts;
    const double expected = per_sub_part[j] / (last - first);
    for (vid_t row = first; row < last; ++row) {
      statistic += (counts[row] - expected) * (counts[row] - expected) /
                   expected;
    }
    freedom += last - first - 1;
  }
  EXPECT_LT(statistic, freedom + 5.0 * std::sqrt(2.0 * freedom))
      << "chi-square " << statistic << " on " << freedom << " dof";
  EXPECT_GT(statistic, freedom - 5.0 * std::sqrt(2.0 * freedom))
      << "chi-square " << statistic << " on " << freedom << " dof";
}

// ---- The trainer ---------------------------------------------------------

/// A flat level of 3 L2s of 128-wide rows in 2 parts: both the diagonal
/// (1.5 L2) and the off-diagonal (3 L2) pair kernels exceed one core's L2
/// at any L2 size, and S = 3 gives the diagonal its byes.
struct AboveL2Level {
  graph::Graph graph;
  embedding::TrainConfig train;
  LargeGraphConfig large;
  simt::DeviceConfig device;

  AboveL2Level() {
    const std::size_t l2 = simt::core_l2_bytes();
    const auto n = static_cast<vid_t>(3 * l2 / (128 * sizeof(emb_t)));
    graph = graph::erdos_renyi(n, 4 * eid_t{n}, 29);
    train.dim = 128;
    train.seed = 17;
    large.batch_B = 2;
    large.device_budget_bytes = 6 * l2;
    device.memory_bytes = 8 * l2;
  }

  std::vector<emb_t> train_matrix(unsigned workers, unsigned epochs,
                                  LargeGraphStats* stats = nullptr) const {
    simt::DeviceConfig config = device;
    config.workers = workers;
    simt::Device dev(config);
    LargeGraphTrainer trainer(dev, graph, train, large);
    EXPECT_EQ(trainer.plan().num_parts(), 2u);
    embedding::EmbeddingMatrix m(graph.num_vertices(), train.dim);
    m.initialize_random(23);
    const LargeGraphStats trained = trainer.train(m, epochs);
    if (stats != nullptr) *stats = trained;
    return std::vector<emb_t>(m.data(), m.data() + m.size());
  }
};

/// The partitioned level written out on the host in its plainest form:
/// rotations of the inside-out pair order, each pair's pool from the
/// sampler, the rounds of its blocked kernel, each task's sub-parts in
/// turn, sources in order, every pool entry the visited sub-part holds,
/// then the negatives the systematic split gives it, counted point by
/// point, each draw followed at once by its update. The seeds and the
/// split are restated here rather than borrowed from the trainer.
std::vector<emb_t> reference_partitioned(const AboveL2Level& level,
                                         unsigned epochs) {
  const graph::Graph& g = level.graph;
  const embedding::TrainConfig& config = level.train;
  const unsigned d = config.dim;
  const unsigned batch = level.large.batch_B;
  const unsigned ns = config.negative_samples;
  simt::Device sizing(level.device);
  const PartitionPlan plan =
      LargeGraphTrainer(sizing, g, config, level.large).plan();
  const unsigned k = plan.num_parts();
  const unsigned rotations = (epochs + batch * k - 1) / (batch * k);
  const std::size_t l2 = simt::core_l2_bytes();
  unsigned s = 1;
  while (s < kMaxPairSubParts &&
         2 * ((plan.part_capacity + s - 1) / s) * d * sizeof(emb_t) > l2) {
    ++s;
  }

  embedding::EmbeddingMatrix m(g.num_vertices(), d);
  m.initialize_random(23);
  const SigmoidTable& sigmoid = default_sigmoid_table();
  auto update = [&](vid_t v, vid_t sample, float label, float lr) {
    if (sample == v) return;
    embedding::update_embedding(m.row(v).data(), m.row(sample).data(), d,
                                label, lr, sigmoid, config.update_rule);
  };
  for (unsigned r = 0; r < rotations; ++r) {
    const float lr =
        embedding::decayed_learning_rate(config.learning_rate, r, rotations);
    for (const auto& [a, b] : rotation_pairs(k)) {
      EXPECT_GT((std::size_t{plan.part_size(a)} +
                 (a == b ? 0 : plan.part_size(b))) *
                    d * sizeof(emb_t),
                l2);
      const PairSamples pool =
          SampleManager::make_pool(g, plan, r, a, b, batch, config.seed);
      const std::uint64_t seed = hash_combine(
          config.seed, (std::uint64_t{r} << 32) | (std::uint64_t{a} << 16) | b);
      // Sub-part j of `part`: rows [first, last).
      const auto sub_part = [&](unsigned part, unsigned j) {
        const std::uint64_t size = plan.part_size(part);
        return std::pair<vid_t, vid_t>(
            plan.part_begin(part) + static_cast<vid_t>(j * size / s),
            plan.part_begin(part) + static_cast<vid_t>((j + 1) * size / s));
      };
      const auto half = [&](unsigned part, unsigned j, unsigned partner,
                            unsigned l) {
        const std::vector<vid_t>& entries =
            part == a ? pool.a_from_b : pool.b_from_a;
        const auto [first, last] = sub_part(part, j);
        const auto [lo, hi] = sub_part(partner, l);
        const std::uint64_t rows = plan.part_size(partner);
        const std::uint64_t total = std::uint64_t{batch} * ns;
        const std::uint64_t lo_point = (lo - plan.part_begin(partner)) * total;
        const std::uint64_t hi_point = (hi - plan.part_begin(partner)) * total;
        for (vid_t v = first; v < last; ++v) {
          const std::uint64_t source_seed = hash_combine(seed, v);
          const std::uint64_t offset = Rng(source_seed).next_bounded(rows);
          unsigned negatives = 0;
          for (std::uint64_t n = 0; n < total; ++n) {
            const std::uint64_t point = n * rows + offset;
            negatives += point >= lo_point && point < hi_point;
          }
          Rng rng(hash_combine(source_seed, lo));
          for (unsigned i = 0; i < batch; ++i) {
            const vid_t u =
                entries[std::size_t{v - plan.part_begin(part)} * batch + i];
            if (u >= lo && u < hi) update(v, u, 1.0f, lr);
          }
          for (unsigned i = 0; i < negatives; ++i) {
            update(v, lo + static_cast<vid_t>(rng.next_bounded(hi - lo)),
                   0.0f, lr);
          }
        }
      };
      std::vector<std::vector<PartPair>> rounds;
      if (a == b) {
        rounds = embedding::BlockedSchedule::circle(s);
      } else {
        rounds.resize(s);
        for (unsigned round = 0; round < s; ++round) {
          for (unsigned i = 0; i < s; ++i) {
            rounds[round].push_back({i, (i + round) % s});
          }
        }
      }
      for (const std::vector<PartPair>& tasks : rounds) {
        for (const PartPair& task : tasks) {
          half(a, task.a, b, task.b);
          if (a != b || task.a != task.b) half(b, task.b, a, task.a);
        }
      }
    }
  }
  return std::vector<emb_t>(m.data(), m.data() + m.size());
}

TEST(LargeTrainer, BlockedPairKernelsMatchReferenceLoopBitForBit) {
  const AboveL2Level level;
  const unsigned epochs = 8;  // two rotations of B * K = 4
  LargeGraphStats stats;
  const std::vector<emb_t> actual = level.train_matrix(1, epochs, &stats);
  EXPECT_EQ(stats.rotations, 2u);
  EXPECT_EQ(stats.sub_parts, 3u);
  const std::vector<emb_t> expected = reference_partitioned(level, epochs);
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < actual.size(); ++i) {
    ASSERT_EQ(actual[i], expected[i]) << "element " << i;
  }
}

}  // namespace
}  // namespace gosh::largegraph
