// Exact blocked scan — bitwise agreement with a naive per-row reference
// under every metric at every available SIMD ISA, batch/single
// consistency, determinism across thread counts and block sizes,
// malformed-shape Status propagation, and edge cases (k > rows, tie
// ordering, -0.0 under an L2 mean, NaN scores).
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "gosh/common/rng.hpp"
#include "gosh/common/simd.hpp"
#include "gosh/query/brute_force.hpp"

namespace gosh::query {
namespace {

/// Unwraps a scan Result; a Status failure is a test failure carrying the
/// status text instead of an abort inside Result::value().
template <typename T>
T must(api::Result<T> result) {
  EXPECT_TRUE(result.ok()) << result.status().to_string();
  return std::move(result).value();
}

struct Fixture {
  store::EmbeddingStore store;
  std::string path;
  std::uint32_t shard_count = 1;

  explicit Fixture(vid_t rows, unsigned dim, std::uint64_t seed = 17) {
    embedding::EmbeddingMatrix matrix(rows, dim);
    matrix.initialize_random(seed);
    // getpid(): concurrent `ctest -j` test processes with the same fixture
    // shape must not rewrite each other's stores mid-scan.
    path = testing::TempDir() + "brute_force_" + std::to_string(::getpid()) +
           "_" + std::to_string(rows) + "_" + std::to_string(seed) + ".gshs";
    const std::uint64_t per_shard = rows / 3 + 1;
    shard_count = static_cast<std::uint32_t>((rows + per_shard - 1) / per_shard);
    EXPECT_TRUE(store::EmbeddingStore::write(matrix, path,
                                             {.rows_per_shard = per_shard})
                    .is_ok());
    auto opened = store::EmbeddingStore::open(path);
    EXPECT_TRUE(opened.ok()) << opened.status().to_string();
    store = std::move(opened).value();
  }
  ~Fixture() {
    for (std::uint32_t s = 0; s < shard_count; ++s) {
      std::remove(
          store::EmbeddingStore::shard_path(path, s, shard_count).c_str());
    }
  }
};

// Naive reference: score every row, sort, truncate.
std::vector<Neighbor> reference_top_k(const store::EmbeddingStore& store,
                                      std::span<const float> query, unsigned k,
                                      Metric metric) {
  const auto inv = row_inverse_norms(store, metric);
  const float query_inv =
      metric == Metric::kCosine ? inverse_norm(query.data(), store.dim()) : 0.0f;
  std::vector<Neighbor> all;
  for (vid_t v = 0; v < store.rows(); ++v) {
    all.push_back({v, similarity(metric, query.data(), store.row(v).data(),
                                 store.dim(),
                                 query_inv, metric == Metric::kCosine
                                                ? inv[v]
                                                : 0.0f)});
  }
  std::sort(all.begin(), all.end(), better);
  if (all.size() > k) all.resize(k);
  return all;
}

// The tiled scan scores every (query, row) pair exactly as the per-row
// kernels do: ids AND score bits match a naive per-row reference at every
// ISA. The shard sizes (rows/3 + 1 = 33, 101, 44) and block sizes are not
// multiples of the 64-row tile, so tiles end at blocks, shards and both.
TEST(BruteForce, MatchesNaiveReferenceUnderEveryMetric) {
  simd::ScopedIsa guard;
  for (const auto& [rows, dim] : {std::pair<vid_t, unsigned>{97, 9},
                                  std::pair<vid_t, unsigned>{300, 37},
                                  std::pair<vid_t, unsigned>{130, 128}}) {
    Fixture fx(rows, dim);
    const auto query = fx.store.row(13);
    for (const simd::Isa isa : {simd::Isa::kScalar, simd::Isa::kAvx2,
                                simd::Isa::kAvx512, simd::Isa::kNeon}) {
      if (simd::kernel_table(isa) == nullptr) continue;
      ASSERT_TRUE(simd::force_isa(isa));
      for (const Metric metric : {Metric::kCosine, Metric::kDot, Metric::kL2}) {
        const auto inv = row_inverse_norms(fx.store, metric);
        const auto expected = reference_top_k(fx.store, query, 25, metric);
        for (const ScanOptions options :
             {ScanOptions{}, ScanOptions{.threads = 1, .block_rows = 1},
              ScanOptions{.threads = 3, .block_rows = 7},
              ScanOptions{.threads = 2, .block_rows = 63},
              ScanOptions{.threads = 4, .block_rows = 65}}) {
          const auto got =
              must(scan_top_k(fx.store, query, 25, metric, inv, options));
          ASSERT_EQ(got.size(), expected.size()) << metric_name(metric);
          for (std::size_t i = 0; i < got.size(); ++i) {
            EXPECT_EQ(got[i].id, expected[i].id)
                << simd::isa_name(isa) << " " << metric_name(metric)
                << " rows " << rows << " block " << options.block_rows
                << " rank " << i;
            EXPECT_EQ(got[i].score, expected[i].score)
                << simd::isa_name(isa) << " " << metric_name(metric)
                << " rows " << rows << " block " << options.block_rows
                << " rank " << i;
          }
        }
      }
    }
  }
}

TEST(BruteForce, DeterministicAcrossThreadAndBlockShapes) {
  Fixture fx(211, 6);
  const auto query = fx.store.row(0);
  const auto inv = row_inverse_norms(fx.store, Metric::kCosine);
  const auto baseline =
      must(scan_top_k(fx.store, query, 10, Metric::kCosine, inv,
                      {.threads = 1, .block_rows = 1024}));
  for (const ScanOptions options :
       {ScanOptions{.threads = 4, .block_rows = 1},
        ScanOptions{.threads = 3, .block_rows = 7},
        ScanOptions{.threads = 0, .block_rows = 100000}}) {
    const auto got =
        must(scan_top_k(fx.store, query, 10, Metric::kCosine, inv, options));
    ASSERT_EQ(got.size(), baseline.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].id, baseline[i].id) << "rank " << i;
    }
  }
}

// The register-tiled scan must answer identically — ids AND score bits —
// however rows land on threads and blocks, at every ISA the host supports.
TEST(BruteForce, DeterministicAcrossThreadCountsAtEachForcedIsa) {
  Fixture fx(157, 19);
  simd::ScopedIsa guard;
  const unsigned d = fx.store.dim();
  // Two queries, the second holding two vectors, to drive the multi path.
  std::vector<float> vectors;
  for (const vid_t v : {7u, 60u, 101u}) {
    const auto row = fx.store.row(v);
    vectors.insert(vectors.end(), row.begin(), row.end());
  }
  const std::vector<std::size_t> counts = {1, 2};
  ASSERT_EQ(vectors.size(), 3u * d);

  for (const simd::Isa isa : {simd::Isa::kScalar, simd::Isa::kAvx2,
                              simd::Isa::kAvx512, simd::Isa::kNeon}) {
    if (simd::kernel_table(isa) == nullptr) continue;
    ASSERT_TRUE(simd::force_isa(isa));
    for (const Metric metric : {Metric::kCosine, Metric::kDot, Metric::kL2}) {
      const auto inv = row_inverse_norms(fx.store, metric);
      const auto baseline =
          must(scan_top_k_multi(fx.store, vectors, counts, 12, metric, inv,
                                Aggregate::kMean, {},
                                {.threads = 1, .block_rows = 4096}));
      for (const ScanOptions options :
           {ScanOptions{.threads = 2, .block_rows = 3},
            ScanOptions{.threads = 4, .block_rows = 32},
            ScanOptions{.threads = 3, .block_rows = 1}}) {
        const auto got = must(scan_top_k_multi(fx.store, vectors, counts, 12,
                                               metric, inv, Aggregate::kMean, {},
                                               options));
        ASSERT_EQ(got.size(), baseline.size());
        for (std::size_t q = 0; q < got.size(); ++q) {
          ASSERT_EQ(got[q].size(), baseline[q].size());
          for (std::size_t i = 0; i < got[q].size(); ++i) {
            EXPECT_EQ(got[q][i].id, baseline[q][i].id)
                << simd::isa_name(isa) << " " << metric_name(metric)
                << " query " << q << " rank " << i;
            // Bit-for-bit at a fixed ISA, not merely close.
            EXPECT_EQ(got[q][i].score, baseline[q][i].score)
                << simd::isa_name(isa) << " " << metric_name(metric);
          }
        }
      }
    }
  }
}

TEST(BruteForce, MalformedVectorCountsAreInvalidArgumentNotAnOverread) {
  Fixture fx(30, 8);
  const auto inv = row_inverse_norms(fx.store, Metric::kCosine);
  const auto query = fx.store.row(3);  // 8 floats
  // Counts claim two vectors but the buffer holds one.
  const std::vector<std::size_t> counts = {2};
  const auto got = scan_top_k_multi(fx.store, query, counts, 5,
                                    Metric::kCosine, inv, Aggregate::kMax, {});
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), api::StatusCode::kInvalidArgument);

  // A query with no vectors: the buffer matches the counts' sum, but the
  // empty query has nothing to rank by.
  const std::vector<std::size_t> empty_first = {0, 1};
  const auto empty = scan_top_k_multi(fx.store, query, empty_first, 5,
                                      Metric::kCosine, inv, Aggregate::kMax, {});
  ASSERT_FALSE(empty.ok());
  EXPECT_EQ(empty.status().code(), api::StatusCode::kInvalidArgument);

  // Batch variant with a short buffer fails the same way.
  const auto batched =
      scan_top_k_batch(fx.store, query, 3, 5, Metric::kCosine, inv);
  ASSERT_FALSE(batched.ok());
  EXPECT_EQ(batched.status().code(), api::StatusCode::kInvalidArgument);
}

TEST(BruteForce, MissingCosineNormsAreInvalidArgument) {
  Fixture fx(30, 8);
  const std::vector<float> truncated_norms(10, 1.0f);  // store has 30 rows
  const auto got = scan_top_k(fx.store, fx.store.row(0), 5, Metric::kCosine,
                              truncated_norms);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), api::StatusCode::kInvalidArgument);
}

// A batch answers every query exactly as its own scan does, ids and score
// bits, also when its 130 query vectors cap the tile at 31 rows (the
// tile's score budget) while single scans take 64.
TEST(BruteForce, BatchAgreesWithSingleQueries) {
  Fixture fx(200, 8);
  const unsigned d = fx.store.dim();
  const auto inv = row_inverse_norms(fx.store, Metric::kL2);
  std::vector<vid_t> large;
  for (vid_t q = 0; q < 130; ++q) large.push_back((q * 7 + 1) % 200);
  for (const std::vector<vid_t>& ids : {std::vector<vid_t>{3, 31, 63}, large}) {
    std::vector<float> queries;
    for (const vid_t v : ids) {
      const auto row = fx.store.row(v);
      queries.insert(queries.end(), row.begin(), row.end());
    }
    const auto batched = must(
        scan_top_k_batch(fx.store, queries, ids.size(), 5, Metric::kL2, inv));
    ASSERT_EQ(batched.size(), ids.size());
    for (std::size_t q = 0; q < ids.size(); ++q) {
      const auto single = must(scan_top_k(
          fx.store, std::span<const float>(queries).subspan(q * d, d), 5,
          Metric::kL2, inv));
      ASSERT_EQ(batched[q].size(), single.size());
      for (std::size_t i = 0; i < single.size(); ++i) {
        EXPECT_EQ(batched[q][i].id, single[i].id) << "query " << q;
        EXPECT_EQ(batched[q][i].score, single[i].score) << "query " << q;
      }
    }
  }
}

TEST(BruteForce, SelfIsTheBestMatchForItsOwnRow) {
  Fixture fx(50, 12);
  for (const Metric metric : {Metric::kCosine, Metric::kL2}) {
    const auto inv = row_inverse_norms(fx.store, metric);
    const auto top =
        must(scan_top_k(fx.store, fx.store.row(21), 3, metric, inv));
    ASSERT_FALSE(top.empty());
    EXPECT_EQ(top[0].id, 21u) << metric_name(metric);
  }
}

TEST(BruteForce, KBeyondRowsReturnsEveryRowRanked) {
  Fixture fx(6, 4);
  const auto inv = row_inverse_norms(fx.store, Metric::kCosine);
  const auto top =
      must(scan_top_k(fx.store, fx.store.row(2), 100, Metric::kCosine, inv));
  EXPECT_EQ(top.size(), 6u);
  for (std::size_t i = 1; i < top.size(); ++i) {
    EXPECT_TRUE(better(top[i - 1], top[i]) || top[i - 1].score == top[i].score);
  }
}

TEST(BruteForce, KZeroAndEmptyBatchAreEmpty) {
  Fixture fx(10, 4);
  const auto inv = row_inverse_norms(fx.store, Metric::kCosine);
  EXPECT_TRUE(must(scan_top_k(fx.store, fx.store.row(0), 0, Metric::kCosine, inv))
                  .empty());
  EXPECT_TRUE(must(scan_top_k_batch(fx.store, {}, 0, 5, Metric::kCosine, inv))
                  .empty());
}

TEST(BruteForce, FilteredScanOnlyReturnsPassingRows) {
  Fixture fx(80, 6);
  const auto inv = row_inverse_norms(fx.store, Metric::kCosine);
  const auto query = fx.store.row(5);
  const std::vector<std::size_t> counts = {1};
  const RowFilter even = [](vid_t v) { return v % 2 == 0; };
  const auto filtered = must(scan_top_k_multi(fx.store, query, counts, 10,
                                              Metric::kCosine, inv,
                                              Aggregate::kMax, even));
  ASSERT_EQ(filtered.size(), 1u);
  ASSERT_EQ(filtered[0].size(), 10u);
  for (const Neighbor& n : filtered[0]) EXPECT_EQ(n.id % 2, 0u);

  // Equivalent to scanning only the allowed rows: the top filtered answer
  // must rank at least as high as any even row of the unfiltered order.
  const auto all = reference_top_k(fx.store, query, 80, Metric::kCosine);
  std::vector<Neighbor> expected;
  for (const Neighbor& n : all) {
    if (n.id % 2 == 0) expected.push_back(n);
  }
  expected.resize(10);
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(filtered[0][i].id, expected[i].id) << "rank " << i;
  }
}

TEST(BruteForce, MultiVectorMaxTakesTheBestPerCandidate) {
  Fixture fx(60, 5);
  const unsigned d = fx.store.dim();
  const auto inv = row_inverse_norms(fx.store, Metric::kDot);
  // One query made of rows 2 and 40: under kMax each candidate scores its
  // better similarity, so both probes must rank themselves on top.
  std::vector<float> vectors;
  for (const vid_t v : {2u, 40u}) {
    const auto row = fx.store.row(v);
    vectors.insert(vectors.end(), row.begin(), row.end());
  }
  const std::vector<std::size_t> counts = {2};
  const auto got = must(scan_top_k_multi(fx.store, vectors, counts, 60,
                                         Metric::kDot, inv, Aggregate::kMax, {}));
  ASSERT_EQ(got.size(), 1u);

  // Naive reference.
  std::vector<Neighbor> expected;
  for (vid_t v = 0; v < 60; ++v) {
    const float* row = fx.store.row(v).data();
    const float a = dot(vectors.data(), row, d);
    const float b = dot(vectors.data() + d, row, d);
    expected.push_back({v, std::max(a, b)});
  }
  std::sort(expected.begin(), expected.end(), better);
  ASSERT_EQ(got[0].size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(got[0][i].id, expected[i].id) << "rank " << i;
    EXPECT_FLOAT_EQ(got[0][i].score, expected[i].score);
  }
}

TEST(BruteForce, MultiVectorMeanAveragesPerCandidate) {
  Fixture fx(40, 7);
  const unsigned d = fx.store.dim();
  const auto inv = row_inverse_norms(fx.store, Metric::kL2);
  std::vector<float> vectors;
  for (const vid_t v : {1u, 17u, 33u}) {
    const auto row = fx.store.row(v);
    vectors.insert(vectors.end(), row.begin(), row.end());
  }
  const std::vector<std::size_t> counts = {3};
  const auto got = must(scan_top_k_multi(fx.store, vectors, counts, 8, Metric::kL2,
                                         inv, Aggregate::kMean, {}));
  ASSERT_EQ(got[0].size(), 8u);

  std::vector<Neighbor> expected;
  for (vid_t v = 0; v < 40; ++v) {
    const float* row = fx.store.row(v).data();
    float sum = 0.0f;
    for (int i = 0; i < 3; ++i) sum += -l2_squared(vectors.data() + i * d, row, d);
    expected.push_back({v, sum / 3.0f});
  }
  std::sort(expected.begin(), expected.end(), better);
  for (std::size_t i = 0; i < got[0].size(); ++i) {
    EXPECT_EQ(got[0][i].id, expected[i].id) << "rank " << i;
    EXPECT_FLOAT_EQ(got[0][i].score, expected[i].score);
  }
}

TEST(BruteForce, MixedCountsBatchAgreesWithSeparateScans) {
  Fixture fx(50, 6);
  const unsigned d = fx.store.dim();
  const auto inv = row_inverse_norms(fx.store, Metric::kCosine);
  // Query 0: single vector (row 4); query 1: two vectors (rows 9, 30).
  std::vector<float> vectors;
  for (const vid_t v : {4u, 9u, 30u}) {
    const auto row = fx.store.row(v);
    vectors.insert(vectors.end(), row.begin(), row.end());
  }
  const std::vector<std::size_t> counts = {1, 2};
  const auto batched = must(scan_top_k_multi(fx.store, vectors, counts, 6,
                                             Metric::kCosine, inv, Aggregate::kMax,
                                             {}));
  ASSERT_EQ(batched.size(), 2u);

  const auto single = must(scan_top_k(
           fx.store, std::span<const float>(vectors).subspan(0, d), 6,
           Metric::kCosine, inv));
  const std::vector<std::size_t> pair_count = {2};
  const auto pair = must(scan_top_k_multi(
           fx.store, std::span<const float>(vectors).subspan(d, 2 * d), pair_count,
           6, Metric::kCosine, inv, Aggregate::kMax, {}));
  ASSERT_EQ(batched[0].size(), single.size());
  for (std::size_t i = 0; i < single.size(); ++i) {
    EXPECT_EQ(batched[0][i].id, single[i].id);
  }
  ASSERT_EQ(batched[1].size(), pair[0].size());
  for (std::size_t i = 0; i < pair[0].size(); ++i) {
    EXPECT_EQ(batched[1][i].id, pair[0][i].id);
  }
}

TEST(BruteForce, FilterRejectingEverythingYieldsEmptyAnswers) {
  Fixture fx(30, 4);
  const auto inv = row_inverse_norms(fx.store, Metric::kCosine);
  const auto query = fx.store.row(0);
  const std::vector<std::size_t> counts = {1};
  const auto got = must(scan_top_k_multi(fx.store, query, counts, 5,
                                         Metric::kCosine, inv, Aggregate::kMax,
                                         [](vid_t) { return false; }));
  ASSERT_EQ(got.size(), 1u);
  EXPECT_TRUE(got[0].empty());
}

// The scan negates an L2 distance, so a row equal to the query scores
// -0.0; a kMean aggregate starts from 0.0f, so even over one vector the
// same row scores +0.0. Combining requests of different aggregates would
// change those bits, and the per-tile scaling must keep both.
TEST(BruteForce, SingleVectorL2MeanScoresAnExactMatchAtPositiveZero) {
  Fixture fx(70, 9);
  simd::ScopedIsa guard;
  const auto query = fx.store.row(21);
  const std::vector<std::size_t> counts = {1};
  for (const simd::Isa isa : {simd::Isa::kScalar, simd::Isa::kAvx2,
                              simd::Isa::kAvx512, simd::Isa::kNeon}) {
    if (simd::kernel_table(isa) == nullptr) continue;
    ASSERT_TRUE(simd::force_isa(isa));
    for (const auto& [aggregate, bits] :
         {std::pair<Aggregate, std::uint32_t>{Aggregate::kMean, 0x00000000u},
          std::pair<Aggregate, std::uint32_t>{Aggregate::kMax, 0x80000000u}}) {
      const auto got = must(scan_top_k_multi(fx.store, query, counts, 3,
                                             Metric::kL2, {}, aggregate, {}));
      ASSERT_EQ(got.size(), 1u);
      ASSERT_FALSE(got[0].empty());
      EXPECT_EQ(got[0][0].id, 21u) << simd::isa_name(isa);
      EXPECT_EQ(std::bit_cast<std::uint32_t>(got[0][0].score), bits)
          << simd::isa_name(isa) << " " << aggregate_name(aggregate);
    }
  }
}

// Rows whose scores are NaN are offered like any other while the heap is
// not full, and the heap rule decides the rest: the scan's answer equals
// offering every row in id order to the same bounded heap, with no row
// skipped before the heap has seen it.
TEST(BruteForce, NaNScoresStillReachTheHeap) {
  constexpr vid_t kRows = 40;
  constexpr unsigned kDim = 8;
  embedding::EmbeddingMatrix matrix(kRows, kDim);
  matrix.initialize_random(5);
  for (const vid_t v : {0u, 1u, 25u}) {
    for (float& x : matrix.row(v)) x = std::numeric_limits<float>::quiet_NaN();
  }
  const std::string path = testing::TempDir() + "brute_force_nan_" +
                           std::to_string(::getpid()) + ".gshs";
  ASSERT_TRUE(store::EmbeddingStore::write(matrix, path).is_ok());
  auto opened = store::EmbeddingStore::open(path);
  ASSERT_TRUE(opened.ok()) << opened.status().to_string();
  const store::EmbeddingStore& store = opened.value();
  const auto query = store.row(5);

  for (const Metric metric : {Metric::kCosine, Metric::kDot, Metric::kL2}) {
    const auto inv = row_inverse_norms(store, metric);
    const float query_inv =
        metric == Metric::kCosine ? inverse_norm(query.data(), kDim) : 0.0f;
    for (const unsigned k : {5u, kRows}) {
      // The heap rule without the gate.
      std::vector<Neighbor> heap;
      for (vid_t v = 0; v < kRows; ++v) {
        const Neighbor candidate{
            v, similarity(metric, query.data(), store.row(v).data(), kDim,
                          query_inv,
                          metric == Metric::kCosine ? inv[v] : 0.0f)};
        if (heap.size() < k) {
          heap.push_back(candidate);
          std::push_heap(heap.begin(), heap.end(), better);
        } else if (better(candidate, heap.front())) {
          std::pop_heap(heap.begin(), heap.end(), better);
          heap.back() = candidate;
          std::push_heap(heap.begin(), heap.end(), better);
        }
      }
      std::sort(heap.begin(), heap.end(), better);

      const auto got = must(scan_top_k(store, query, k, metric, inv,
                                       {.threads = 1, .block_rows = 16}));
      ASSERT_EQ(got.size(), heap.size()) << metric_name(metric);
      std::size_t nans = 0;
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].id, heap[i].id)
            << metric_name(metric) << " k " << k << " rank " << i;
        if (std::isnan(heap[i].score)) {
          EXPECT_TRUE(std::isnan(got[i].score));
          ++nans;
        } else {
          EXPECT_EQ(std::bit_cast<std::uint32_t>(got[i].score),
                    std::bit_cast<std::uint32_t>(heap[i].score));
        }
      }
      if (k == kRows) {
        EXPECT_EQ(nans, 3u) << metric_name(metric);
      }
    }
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace gosh::query
