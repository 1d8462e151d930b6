// Blocked resident training: the round-robin schedule over L2-sized parts,
// the binomial chain that buckets each source's positives into the rounds
// that hold them, and the blocked DeviceTrainer path built on both.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "gosh/common/rng.hpp"
#include "gosh/common/sigmoid.hpp"
#include "gosh/embedding/schedule.hpp"
#include "gosh/embedding/trainer.hpp"
#include "gosh/graph/builder.hpp"
#include "gosh/graph/generators.hpp"

namespace gosh::embedding {
namespace {

// ---- The schedule --------------------------------------------------------

TEST(BlockedSchedule, RoundsArePerfectMatchingsCoveringEveryPairOnce) {
  for (const unsigned k : {2u, 4u, 22u, 64u}) {
    const BlockedSchedule schedule(1000, k);
    for (std::uint64_t seed = 0; seed < 4; ++seed) {
      const auto rounds = schedule.cycle(hash_combine(7, seed));
      ASSERT_EQ(rounds.size(), k) << "K=" << k;
      std::map<std::pair<unsigned, unsigned>, unsigned> met;
      for (const std::vector<PartPair>& pairs : rounds) {
        // Every part sits in exactly one pair of the round.
        std::vector<unsigned> seen(k, 0);
        for (const PartPair& pair : pairs) {
          ASSERT_LT(pair.a, k);
          ASSERT_LT(pair.b, k);
          seen[pair.a]++;
          if (pair.a != pair.b) seen[pair.b]++;
          met[{std::min(pair.a, pair.b), std::max(pair.a, pair.b)}]++;
        }
        for (unsigned p = 0; p < k; ++p) {
          ASSERT_EQ(seen[p], 1u) << "K=" << k << " part " << p;
        }
      }
      // Every unordered pair, self-pairs included, once per cycle.
      ASSERT_EQ(met.size(), std::size_t{k} * (k + 1) / 2) << "K=" << k;
      for (const auto& [pair, count] : met) {
        ASSERT_EQ(count, 1u) << "K=" << k << " pair " << pair.first << ","
                             << pair.second;
      }
    }
  }
}

TEST(BlockedSchedule, PartsAreContiguousAndDifferByAtMostOneRow) {
  const std::vector<std::pair<vid_t, unsigned>> cases = {
      {1000, 22}, {32332, 64}, {64, 64}, {7, 2}};
  for (const auto& [n, k] : cases) {
    const BlockedSchedule schedule(n, k);
    EXPECT_EQ(schedule.part_begin(0), 0u);
    EXPECT_EQ(schedule.part_end(k - 1), n);
    vid_t smallest = n, largest = 0;
    for (unsigned p = 0; p < k; ++p) {
      if (p > 0) {
        EXPECT_EQ(schedule.part_begin(p), schedule.part_end(p - 1));
      }
      const vid_t size = schedule.part_end(p) - schedule.part_begin(p);
      smallest = std::min(smallest, size);
      largest = std::max(largest, size);
    }
    EXPECT_GE(smallest, 1u);
    EXPECT_LE(largest - smallest, 1u) << "n=" << n << " K=" << k;
  }
}

TEST(BlockedSchedule, RejectsUnusablePartCounts) {
  EXPECT_THROW(BlockedSchedule(100, 0), std::invalid_argument);
  EXPECT_THROW(BlockedSchedule(100, 3), std::invalid_argument);
  EXPECT_THROW(BlockedSchedule(10, 12), std::invalid_argument);
  EXPECT_NO_THROW(BlockedSchedule(10, 10));
}

TEST(BlockedSchedule, CyclesRelabelPartsAndReorderRounds) {
  const BlockedSchedule schedule(4096, 16);
  EXPECT_EQ(schedule.cycle(5), schedule.cycle(5));
  EXPECT_NE(schedule.cycle(5), schedule.cycle(6));
  // Part 0's first partner and the self round's slot both vary by cycle,
  // so a level with fewer passes than K still meets random partners.
  std::set<unsigned> first_partners, self_slots;
  for (std::uint64_t c = 0; c < 64; ++c) {
    const auto rounds = schedule.cycle(hash_combine(11, c));
    for (const PartPair& pair : rounds[0]) {
      if (pair.a == 0) first_partners.insert(pair.b);
      if (pair.b == 0) first_partners.insert(pair.a);
    }
    for (unsigned slot = 0; slot < rounds.size(); ++slot) {
      if (rounds[slot][0].a == rounds[slot][0].b) self_slots.insert(slot);
    }
  }
  EXPECT_GT(first_partners.size(), 8u);
  EXPECT_GT(self_slots.size(), 8u);
}

TEST(BlockedSchedule, PartCountIsTheSmallestEvenOneFittingAnEighthOfL2) {
  constexpr std::size_t kL2 = std::size_t{2} << 20;
  TrainConfig config;
  config.dim = 128;  // 512-byte rows: a part holds at most 512 of them
  EXPECT_EQ(blocked_part_count(4096, config, kL2), 0u);  // fits L2 exactly
  EXPECT_EQ(blocked_part_count(4097, config, kL2), 10u);  // 9 rounded up
  EXPECT_EQ(blocked_part_count(32332, config, kL2), 64u);
  EXPECT_EQ(blocked_part_count(10600, config, kL2), 22u);
  for (const vid_t n : {4097u, 10600u, 32332u, 100000u}) {
    const unsigned k = blocked_part_count(n, config, kL2);
    ASSERT_EQ(k % 2, 0u);
    EXPECT_LE((n + k - 1) / k * 512, kL2 / 8) << n;
    EXPECT_GT((n + k - 3) / (k - 2) * 512, kL2 / 8) << n;
  }
  // The Figure 4 baseline and PPR positives keep the spread launch.
  TrainConfig naive = config;
  naive.naive_kernel = true;
  EXPECT_EQ(blocked_part_count(32332, naive, kL2), 0u);
  TrainConfig ppr = config;
  ppr.positive_sampling = PositiveSampling::kPpr;
  EXPECT_EQ(blocked_part_count(32332, ppr, kL2), 0u);
}

// ---- Sampling: the chain and the partner-part draws ----------------------

/// Every draw one cycle of a blocked level makes, per source, recorded
/// through the pair task's own sampler.
struct CycleDraws {
  std::vector<std::vector<vid_t>> positives;
  std::vector<std::vector<vid_t>> negatives;
};

CycleDraws sample_cycle(const graph::Graph& g,
                        const BlockedSchedule& schedule,
                        std::vector<std::uint32_t>& chain,
                        std::uint64_t cycle_seed, unsigned trained,
                        unsigned ns) {
  CycleDraws draws;
  draws.positives.resize(g.num_vertices());
  draws.negatives.resize(g.num_vertices());
  BlockedRound round;
  round.xadj = g.xadj().data();
  round.adj = g.adj().data();
  round.chain = chain.data();
  round.cycle_draws = trained;
  const auto rounds = schedule.cycle(cycle_seed);
  for (unsigned r = 0; r < rounds.size(); ++r) {
    round.seed = hash_combine(cycle_seed, r);
    round.negatives = r < trained ? ns : 0;
    round.cycle_start = r == 0;
    const auto half = [&](unsigned part, unsigned partner) {
      for_each_blocked_source(
          round, schedule.part_begin(part), schedule.part_end(part),
          schedule.part_begin(partner), schedule.part_end(partner),
          [&](vid_t src, unsigned positives, auto&& draw_positive,
              auto&& draw_negative) {
            for (unsigned i = 0; i < positives; ++i) {
              draws.positives[src].push_back(draw_positive());
            }
            for (unsigned i = 0; i < round.negatives; ++i) {
              draws.negatives[src].push_back(draw_negative());
            }
          });
    };
    for (const PartPair& pair : rounds[r]) {
      half(pair.a, pair.b);
      if (pair.a != pair.b) half(pair.b, pair.a);
    }
  }
  return draws;
}

/// 256 vertices in 8 parts of 32; about 12 neighbours each, spread over
/// most parts, except vertex 255, which is isolated.
graph::Graph spread_graph() {
  const graph::Graph random = graph::erdos_renyi(256, 1536, 21);
  std::vector<graph::Edge> edges;
  for (vid_t u = 0; u < 255; ++u) {
    for (const vid_t v : random.neighbors(u)) {
      if (u < v && v < 255) edges.emplace_back(u, v);
    }
  }
  const graph::Graph g = graph::build_csr(256, std::move(edges));
  EXPECT_TRUE(g.has_sorted_adjacency());
  EXPECT_TRUE(g.neighbors(255).empty());
  return g;
}

TEST(BlockedSchedule, EachSourceDrawsOnePositivePerTrainingRound) {
  const graph::Graph g = spread_graph();
  const BlockedSchedule schedule(g.num_vertices(), 8);
  std::vector<std::uint32_t> chain(2 * g.num_vertices());
  vid_t spanning = 0;
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    std::set<vid_t> parts;
    for (const vid_t u : g.neighbors(v)) parts.insert(u / 32);
    spanning += parts.size() > 3;
  }
  EXPECT_GT(spanning, g.num_vertices() / 2);
  // Full cycles and partial ones (3, 7 and 1 training rounds of 8).
  for (const unsigned trained : {8u, 3u, 7u, 8u, 1u}) {
    const CycleDraws draws =
        sample_cycle(g, schedule, chain, hash_combine(3, trained), trained,
                     /*ns=*/2);
    for (vid_t v = 0; v < g.num_vertices(); ++v) {
      const auto neighbours = g.neighbors(v);
      EXPECT_EQ(draws.positives[v].size(), neighbours.empty() ? 0 : trained)
          << "vertex " << v;
      EXPECT_EQ(draws.negatives[v].size(), 2u * trained) << "vertex " << v;
      for (const vid_t u : draws.positives[v]) {
        EXPECT_TRUE(std::binary_search(neighbours.begin(), neighbours.end(),
                                       u))
            << u << " is not a neighbour of " << v;
      }
    }
  }
}

TEST(BlockedSchedule, NegativesHitEveryPartEquallyPerCycle) {
  const graph::Graph g = spread_graph();
  const BlockedSchedule schedule(g.num_vertices(), 8);
  std::vector<std::uint32_t> chain(2 * g.num_vertices());
  const unsigned ns = 3;
  for (std::uint64_t c = 0; c < 3; ++c) {
    const CycleDraws draws =
        sample_cycle(g, schedule, chain, hash_combine(4, c), 8, ns);
    for (vid_t v = 0; v < g.num_vertices(); ++v) {
      std::vector<unsigned> per_part(8, 0);
      for (const vid_t u : draws.negatives[v]) per_part[u / 32]++;
      for (unsigned p = 0; p < 8; ++p) {
        ASSERT_EQ(per_part[p], ns) << "vertex " << v << " part " << p;
      }
    }
  }
}

TEST(BlockedSchedule, PositivesAreUniformOverNeighbours) {
  // Over many cycles each source's positive picks must be uniform over its
  // neighbours, whatever part holds them and whenever the cycle meets it.
  // The per-source chi-square statistics sum to one with sum(deg - 1)
  // degrees of freedom; a chain that favoured early or late parts, or
  // dropped draws, lands far outside its spread.
  const graph::Graph g = spread_graph();
  const BlockedSchedule schedule(g.num_vertices(), 8);
  std::vector<std::uint32_t> chain(2 * g.num_vertices());
  std::vector<std::map<vid_t, unsigned>> counts(g.num_vertices());
  constexpr unsigned kCycles = 400;
  for (unsigned c = 0; c < kCycles; ++c) {
    // Alternate full and partial cycles: both must be exact.
    const unsigned trained = c % 2 == 0 ? 8 : 5;
    const CycleDraws draws =
        sample_cycle(g, schedule, chain, hash_combine(5, c), trained, 1);
    for (vid_t v = 0; v < g.num_vertices(); ++v) {
      for (const vid_t u : draws.positives[v]) counts[v][u]++;
    }
  }
  double statistic = 0.0;
  double freedom = 0.0;
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    const auto neighbours = g.neighbors(v);
    if (neighbours.size() < 2) continue;
    const double expected = (kCycles / 2) * 13.0 / neighbours.size();
    for (const vid_t u : neighbours) {
      const double observed = counts[v][u];
      statistic += (observed - expected) * (observed - expected) / expected;
    }
    freedom += static_cast<double>(neighbours.size() - 1);
  }
  EXPECT_LT(statistic, freedom + 5.0 * std::sqrt(2.0 * freedom))
      << "chi-square " << statistic << " on " << freedom << " dof";
  EXPECT_GT(statistic, freedom - 5.0 * std::sqrt(2.0 * freedom))
      << "chi-square " << statistic << " on " << freedom << " dof";
}

// ---- The blocked trainer -------------------------------------------------

simt::DeviceConfig blocked_device_config(unsigned workers) {
  simt::DeviceConfig config;
  config.memory_bytes = 64u << 20;
  config.workers = workers;
  return config;
}

/// A level whose 128-wide matrix is twice this host's L2, so it trains in
/// blocked passes with K = 16 parts at any L2 size.
graph::Graph level_above_l2() {
  const vid_t n =
      static_cast<vid_t>(2 * simt::core_l2_bytes() / (128 * sizeof(emb_t)));
  return graph::erdos_renyi(n, 4 * eid_t{n}, 23);
}

TrainConfig blocked_config() {
  TrainConfig config;
  config.dim = 128;
  config.seed = 31;
  return config;
}

std::vector<emb_t> train_level(const graph::Graph& g, const TrainConfig& config,
                               unsigned workers, unsigned passes) {
  simt::Device device(blocked_device_config(workers));
  EmbeddingMatrix m(g.num_vertices(), config.dim);
  m.initialize_random(24);
  DeviceTrainer trainer(device, g, config);
  EXPECT_EQ(trainer.blocked_parts(), 16u);
  trainer.train(m, passes);
  return std::vector<emb_t>(m.data(), m.data() + m.size());
}

TEST(Trainer, BlockedLevelIsIdenticalAtAnyWorkerCount) {
  // Every write of a blocked pass stays inside one part pair, and the
  // pairs of a round are disjoint: the worker that runs a pair cannot
  // change what it computes. K passes are one whole cycle; K + 5 add a
  // partial cycle with its positive-only rounds.
  const graph::Graph g = level_above_l2();
  const TrainConfig config = blocked_config();
  for (const unsigned passes : {16u, 21u}) {
    const std::vector<emb_t> one = train_level(g, config, 1, passes);
    EXPECT_EQ(train_level(g, config, 2, passes), one) << passes << " passes";
    EXPECT_EQ(train_level(g, config, 4, passes), one) << passes << " passes";
  }
}

/// The blocked level written out on the host in its plainest form: cycles
/// of K rounds from the same schedule, each pair's parts in turn, sources
/// in order, one RNG per (round, source), the chain's positive count, the
/// positives, then the negatives from the partner part, each draw followed
/// at once by its update. The seeds and the chain are restated here rather
/// than borrowed from the trainer, so a change to either side shows.
std::vector<emb_t> reference_blocked(const graph::Graph& g,
                                     const TrainConfig& config,
                                     const EmbeddingMatrix& initial,
                                     unsigned passes, unsigned k) {
  const vid_t n = g.num_vertices();
  const unsigned d = config.dim;
  EmbeddingMatrix m(n, d);
  std::copy(initial.data(), initial.data() + initial.size(), m.data());
  const BlockedSchedule schedule(n, k);
  const SigmoidTable& sigmoid = default_sigmoid_table();
  std::vector<unsigned> draws_left(n), neighbours_left(n);
  auto update = [&](vid_t v, vid_t sample, float label, float lr) {
    if (sample == v) return;
    update_embedding(m.row(v).data(), m.row(sample).data(), d, label, lr,
                     sigmoid, config.update_rule);
  };
  for (unsigned first = 0; first < passes; first += k) {
    const unsigned trained = std::min(k, passes - first);
    const std::uint64_t cycle_seed =
        hash_combine(config.seed, (std::uint64_t{1} << 32) + first);
    const auto rounds = schedule.cycle(cycle_seed);
    // Positive-only rounds run at the mean rate of the training rounds.
    float positive_only_lr = 0.0f;
    for (unsigned r = 0; r < trained; ++r) {
      positive_only_lr +=
          decayed_learning_rate(config.learning_rate, first + r, passes);
    }
    positive_only_lr /= static_cast<float>(trained);
    for (unsigned r = 0; r < k; ++r) {
      const bool training = r < trained;
      const float lr =
          training ? decayed_learning_rate(config.learning_rate, first + r,
                                           passes)
                   : positive_only_lr;
      const std::uint64_t round_seed = hash_combine(cycle_seed, r);
      const auto half = [&](unsigned part, unsigned partner) {
        const vid_t lo = schedule.part_begin(partner);
        const vid_t hi = schedule.part_end(partner);
        for (vid_t v = schedule.part_begin(part); v < schedule.part_end(part);
             ++v) {
          const auto neighbours = g.neighbors(v);
          if (r == 0) {
            draws_left[v] = trained;
            neighbours_left[v] = static_cast<unsigned>(neighbours.size());
          }
          std::vector<vid_t> held;
          for (const vid_t u : neighbours) {
            if (u >= lo && u < hi) held.push_back(u);
          }
          if (held.empty() && !training) continue;
          Rng rng(hash_combine(round_seed, v));
          unsigned positives = 0;
          if (!held.empty()) {
            if (held.size() == neighbours_left[v]) {
              positives = draws_left[v];
            } else {
              for (unsigned i = 0; i < draws_left[v]; ++i) {
                positives += rng.next_bounded(neighbours_left[v]) <
                             held.size();
              }
            }
            draws_left[v] -= positives;
            neighbours_left[v] -= static_cast<unsigned>(held.size());
          }
          for (unsigned i = 0; i < positives; ++i) {
            update(v, held[rng.next_bounded(held.size())], 1.0f, lr);
          }
          if (!training) continue;
          for (unsigned i = 0; i < config.negative_samples; ++i) {
            update(v, lo + static_cast<vid_t>(rng.next_bounded(hi - lo)),
                   0.0f, lr);
          }
        }
      };
      for (const PartPair& pair : rounds[r]) {
        half(pair.a, pair.b);
        if (pair.a != pair.b) half(pair.b, pair.a);
      }
    }
  }
  return std::vector<emb_t>(m.data(), m.data() + m.size());
}

TEST(Trainer, BlockedLevelMatchesReferenceLoopBitForBit) {
  const graph::Graph g = level_above_l2();
  const TrainConfig config = blocked_config();
  EmbeddingMatrix initial(g.num_vertices(), config.dim);
  initial.initialize_random(24);
  const unsigned passes = 16 + 3;  // a whole cycle and a partial one
  const std::vector<emb_t> expected =
      reference_blocked(g, config, initial, passes, 16);
  const std::vector<emb_t> actual = train_level(g, config, 1, passes);
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < actual.size(); ++i) {
    ASSERT_EQ(actual[i], expected[i]) << "element " << i;
  }
}

TEST(Trainer, LevelsThatFitL2OrKeepTheSpreadLaunchTrainUnblocked) {
  simt::Device device(blocked_device_config(1));
  const graph::Graph small = graph::erdos_renyi(64, 256, 25);
  EXPECT_EQ(DeviceTrainer(device, small, blocked_config()).blocked_parts(),
            0u);
  const graph::Graph big = level_above_l2();
  TrainConfig naive = blocked_config();
  naive.naive_kernel = true;
  EXPECT_EQ(DeviceTrainer(device, big, naive).blocked_parts(), 0u);
  TrainConfig ppr = blocked_config();
  ppr.positive_sampling = PositiveSampling::kPpr;
  EXPECT_EQ(DeviceTrainer(device, big, ppr).blocked_parts(), 0u);
  // The chain finds a part's neighbours by binary search, so a graph built
  // without sorted adjacency keeps the one-launch pass.
  std::vector<graph::Edge> arcs;
  for (vid_t u = 0; u < big.num_vertices(); ++u) {
    for (const vid_t v : big.neighbors(u)) arcs.emplace_back(u, v);
  }
  std::reverse(arcs.begin(), arcs.end());
  graph::BuildOptions unsorted_build;
  unsorted_build.symmetrize = false;
  unsorted_build.dedup = false;
  unsorted_build.sort_adjacency = false;
  const graph::Graph unsorted =
      graph::build_csr(big.num_vertices(), std::move(arcs), unsorted_build);
  ASSERT_FALSE(unsorted.has_sorted_adjacency());
  EXPECT_EQ(DeviceTrainer(device, unsorted, blocked_config()).blocked_parts(),
            0u);
}

TEST(Trainer, BlockedLevelWithoutRoomForTheChainTrainsUnblocked) {
  // The chain's 8 bytes per vertex live in the headroom the fits-check
  // leaves; a device planned to the last byte keeps the one-launch pass.
  const graph::Graph g = level_above_l2();
  const TrainConfig config = blocked_config();
  simt::DeviceConfig tight = blocked_device_config(1);
  tight.memory_bytes = DeviceGraph::required_bytes(g) + 2 * kCacheLine +
                       EmbeddingMatrix::bytes_for(g.num_vertices(),
                                                  config.dim);
  simt::Device device(tight);
  DeviceTrainer trainer(device, g, config);
  EXPECT_EQ(trainer.blocked_parts(), 0u);
  EmbeddingMatrix m(g.num_vertices(), config.dim);
  m.initialize_random(26);
  EXPECT_NO_THROW(trainer.train(m, 1));
}

}  // namespace
}  // namespace gosh::embedding
