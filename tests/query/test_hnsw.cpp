// HNSW index — recall against the exact scan on a trained graph
// embedding (the headline acceptance metric), exhaustive-beam exactness,
// save/load round trips, and the corrupt-index error paths.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "gosh/api/api.hpp"

namespace gosh::query {
namespace {

// Process-unique: under `ctest -j` every gtest case is its own process,
// and HnswRecallTest's SetUpTestSuite rewrites its store per process — a
// shared name would let concurrent siblings corrupt each other's stores.
std::string temp_path(const std::string& name) {
  return testing::TempDir() + std::to_string(::getpid()) + "_" + name;
}

store::EmbeddingStore open_fresh(const std::string& path) {
  auto opened = store::EmbeddingStore::open(path);
  EXPECT_TRUE(opened.ok()) << opened.status().to_string();
  return std::move(opened).value();
}

// Shared fixture: one trained embedding per test binary run. Training is
// the expensive part (a real gosh::api pipeline over an LFR graph), so
// the store is written once and reopened per test.
class HnswRecallTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    store_path_ = new std::string(temp_path("hnsw_recall.gshs"));
    graph::LfrParams params;
    params.communities = 16;
    const graph::Graph g = graph::lfr_like(1200, params, 31);

    api::Options options;
    options.preset = "fast";
    options.train().dim = 32;
    options.gosh.total_epochs = 200;
    auto embedded = api::embed(g, options);
    ASSERT_TRUE(embedded.ok()) << embedded.status().to_string();
    ASSERT_TRUE(store::EmbeddingStore::write(embedded.value().embedding,
                                             *store_path_)
                    .is_ok());
  }
  static void TearDownTestSuite() {
    std::remove(store_path_->c_str());
    delete store_path_;
    store_path_ = nullptr;
  }

  static std::string* store_path_;
};

std::string* HnswRecallTest::store_path_ = nullptr;

/// The k nearest of `neighbors` (ranked, k + 1 fetched) once the probe
/// vertex itself is dropped.
std::vector<Neighbor> without_probe(std::vector<Neighbor> neighbors,
                                    vid_t probe, unsigned k) {
  std::erase_if(neighbors,
                [probe](const Neighbor& n) { return n.id == probe; });
  if (neighbors.size() > k) neighbors.resize(k);
  return neighbors;
}

/// recall@k of `index` searched with beam `ef` against the exact scan, over
/// sampled vertex probes (each excluded from its own answer).
double recall_at_k(const store::EmbeddingStore& store, const HnswIndex& index,
                   unsigned ef, unsigned k, std::size_t samples) {
  const std::vector<float> norms = row_inverse_norms(store, index.metric());
  Rng rng(5);
  double hits = 0.0;
  for (std::size_t i = 0; i < samples; ++i) {
    const vid_t probe = rng.next_vertex(store.rows());
    auto exact =
        scan_top_k(store, store.row(probe), k + 1, index.metric(), norms);
    // Bail instead of touching value(): in a release build value() on an
    // error Result is UB (this exact spot once looped forever on garbage
    // vector bounds when a corrupted fixture store failed the query).
    EXPECT_TRUE(exact.ok()) << exact.status().to_string();
    if (!exact.ok()) return 0.0;
    const auto truth = without_probe(std::move(exact).value(), probe, k);
    const auto approx = without_probe(
        index.search(store, store.row(probe), k + 1, ef), probe, k);
    for (const Neighbor& want : truth) {
      for (const Neighbor& got : approx) {
        if (want.id == got.id) {
          hits += 1.0;
          break;
        }
      }
    }
  }
  return hits / (static_cast<double>(samples) * k);
}

TEST_F(HnswRecallTest, RecallAt10AboveNinetyPercentOnTrainedEmbedding) {
  const auto store = open_fresh(*store_path_);
  const HnswIndex index =
      HnswIndex::build(store, {.M = 16, .ef_construction = 200, .seed = 7});
  const double recall = recall_at_k(store, index, /*ef=*/64, 10, 100);
  EXPECT_GE(recall, 0.9) << "HNSW recall@10 degraded against exact scan";
}

TEST_F(HnswRecallTest, WiderBeamNeverHurtsRecall) {
  const auto store = open_fresh(*store_path_);
  const HnswIndex index =
      HnswIndex::build(store, {.M = 8, .ef_construction = 64, .seed = 7});
  const double narrow_recall = recall_at_k(store, index, /*ef=*/10, 10, 50);
  const double wide_recall = recall_at_k(store, index, /*ef=*/256, 10, 50);
  EXPECT_GE(wide_recall + 1e-9, narrow_recall);
  EXPECT_GE(wide_recall, 0.9);
}

TEST_F(HnswRecallTest, SaveLoadRoundTripPreservesSearchResults) {
  const std::string index_path = temp_path("hnsw_roundtrip.hnsw");
  auto store = open_fresh(*store_path_);
  const HnswIndex built =
      HnswIndex::build(store, {.M = 12, .ef_construction = 100, .seed = 3});
  ASSERT_TRUE(built.save(index_path).is_ok());

  auto loaded = HnswIndex::load(index_path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().to_string();
  EXPECT_EQ(loaded.value().M(), built.M());
  EXPECT_EQ(loaded.value().metric(), built.metric());
  EXPECT_EQ(loaded.value().max_level(), built.max_level());

  Rng rng(9);
  for (int i = 0; i < 20; ++i) {
    const vid_t probe = rng.next_vertex(store.rows());
    const auto before = built.search(store, store.row(probe), 10, 64);
    const auto after = loaded.value().search(store, store.row(probe), 10, 64);
    ASSERT_EQ(before.size(), after.size());
    for (std::size_t j = 0; j < before.size(); ++j) {
      EXPECT_EQ(before[j].id, after[j].id) << "probe " << probe;
    }
  }
  std::remove(index_path.c_str());
}

TEST(HnswIndex, ExhaustiveBeamEqualsBruteForce) {
  // With ef >= rows the layer-0 beam touches every reachable node, so the
  // result must match the exact scan row for row.
  const std::string path = temp_path("hnsw_exhaustive.gshs");
  embedding::EmbeddingMatrix matrix(80, 6);
  matrix.initialize_random(2);
  ASSERT_TRUE(store::EmbeddingStore::write(matrix, path).is_ok());
  auto store = open_fresh(path);

  const HnswIndex index =
      HnswIndex::build(store, {.M = 8, .ef_construction = 80, .seed = 1});
  const auto inv = row_inverse_norms(store, Metric::kCosine);
  for (const vid_t probe : {0u, 17u, 79u}) {
    const auto approx = index.search(store, store.row(probe), 10, 200);
    const auto exact =
        scan_top_k(store, store.row(probe), 10, Metric::kCosine, inv).value();
    ASSERT_EQ(approx.size(), exact.size());
    for (std::size_t i = 0; i < exact.size(); ++i) {
      EXPECT_EQ(approx[i].id, exact[i].id) << "probe " << probe;
    }
  }
  std::remove(path.c_str());
}

TEST(HnswIndex, BuildsUnderEveryMetric) {
  const std::string path = temp_path("hnsw_metrics.gshs");
  embedding::EmbeddingMatrix matrix(60, 5);
  matrix.initialize_random(4);
  ASSERT_TRUE(store::EmbeddingStore::write(matrix, path).is_ok());
  auto store = open_fresh(path);
  for (const Metric metric : {Metric::kCosine, Metric::kDot, Metric::kL2}) {
    const HnswIndex index = HnswIndex::build(
        store, {.M = 6, .ef_construction = 60, .metric = metric});
    const auto top = index.search(store, store.row(30), 5, 60);
    ASSERT_FALSE(top.empty()) << metric_name(metric);
    if (metric != Metric::kDot) {
      // Under cosine/L2 a stored row's best match is itself.
      EXPECT_EQ(top[0].id, 30u) << metric_name(metric);
    }
  }
  std::remove(path.c_str());
}

TEST(HnswIndex, EmptyStoreYieldsEmptyResults) {
  const std::string path = temp_path("hnsw_empty.gshs");
  ASSERT_TRUE(
      store::EmbeddingStore::write(embedding::EmbeddingMatrix(0, 3), path)
          .is_ok());
  auto store = open_fresh(path);
  const HnswIndex index = HnswIndex::build(store, {});
  const float query[3] = {1.0f, 0.0f, 0.0f};
  EXPECT_TRUE(index.search(store, {query, 3}, 5, 16).empty());
  std::remove(path.c_str());
}

TEST(HnswIndex, LoadRejectsMissingCorruptAndForeignFiles) {
  EXPECT_EQ(HnswIndex::load(temp_path("no_such_index.hnsw")).status().code(),
            api::StatusCode::kIoError);

  const std::string garbage = temp_path("hnsw_garbage.hnsw");
  { std::ofstream(garbage, std::ios::binary) << "GSHSnot an index at all"; }
  auto foreign = HnswIndex::load(garbage);
  EXPECT_EQ(foreign.status().code(), api::StatusCode::kIoError);
  std::remove(garbage.c_str());

  // Build a real index, then flip a byte in the middle.
  const std::string store_path = temp_path("hnsw_corrupt.gshs");
  embedding::EmbeddingMatrix matrix(40, 4);
  matrix.initialize_random(6);
  ASSERT_TRUE(store::EmbeddingStore::write(matrix, store_path).is_ok());
  auto store = open_fresh(store_path);
  const std::string index_path = temp_path("hnsw_corrupt.hnsw");
  ASSERT_TRUE(HnswIndex::build(store, {.M = 4}).save(index_path).is_ok());
  {
    std::fstream file(index_path,
                      std::ios::binary | std::ios::in | std::ios::out);
    file.seekp(64);
    char byte = 0;
    file.read(&byte, 1);
    file.seekp(64);
    byte = static_cast<char>(byte ^ 0x11);
    file.write(&byte, 1);
  }
  auto corrupt = HnswIndex::load(index_path);
  EXPECT_EQ(corrupt.status().code(), api::StatusCode::kIoError);
  EXPECT_NE(corrupt.status().message().find("checksum"), std::string::npos);
  std::remove(index_path.c_str());
  std::remove(store_path.c_str());
}

}  // namespace
}  // namespace gosh::query
