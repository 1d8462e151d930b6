// QueryEngine argument checking, vertex self-exclusion and index
// attachment (suite QueryEngine* is in the TSan filter).
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <string>
#include <vector>

#include "gosh/query/engine.hpp"

namespace gosh::query {
namespace {

struct Fixture {
  store::EmbeddingStore store;
  std::string path;

  explicit Fixture(vid_t rows = 128, unsigned dim = 8) {
    embedding::EmbeddingMatrix matrix(rows, dim);
    matrix.initialize_random(23);
    path = testing::TempDir() + "query_engine_" +
           std::to_string(::getpid()) + "_" + std::to_string(rows) + ".gshs";
    EXPECT_TRUE(store::EmbeddingStore::write(matrix, path).is_ok());
    auto opened = store::EmbeddingStore::open(path);
    EXPECT_TRUE(opened.ok()) << opened.status().to_string();
    store = std::move(opened).value();
  }
  ~Fixture() { std::remove(path.c_str()); }
};

TEST(QueryEngine, RejectsBadArguments) {
  Fixture fx;
  QueryEngine engine(std::move(fx.store), {});
  const std::vector<float> query(engine.dim(), 0.5f);

  EXPECT_EQ(engine.top_k(query, 0).status().code(),
            api::StatusCode::kInvalidArgument);
  const std::vector<float> short_query(engine.dim() - 1, 0.5f);
  EXPECT_EQ(engine.top_k(short_query, 5).status().code(),
            api::StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.top_k_vertex(engine.rows(), 5).status().code(),
            api::StatusCode::kInvalidArgument);
  // HNSW without an index is a diagnosed error, not a crash.
  EXPECT_EQ(engine.top_k(query, 5, Strategy::kHnsw).status().code(),
            api::StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.load_index("/nonexistent/index.hnsw").code(),
            api::StatusCode::kIoError);
}

TEST(QueryEngine, VertexQueriesExcludeTheProbeItself) {
  Fixture fx;
  QueryEngine engine(std::move(fx.store), {});
  auto top = engine.top_k_vertex(40, 10);
  ASSERT_TRUE(top.ok());
  EXPECT_EQ(top.value().size(), 10u);
  for (const Neighbor& n : top.value()) EXPECT_NE(n.id, 40u);
}

TEST(QueryEngine, RejectsIndexBuiltForAnotherMetricOrStore) {
  Fixture fx;
  QueryEngineOptions l2;
  l2.metric = Metric::kL2;
  QueryEngine engine(std::move(fx.store), l2);
  const HnswIndex cosine_index = HnswIndex::build(
      engine.store(), {.M = 4, .metric = Metric::kCosine});
  EXPECT_EQ(engine.attach_index(cosine_index).code(),
            api::StatusCode::kInvalidArgument);

  // Shape mismatch: an index over a smaller store.
  embedding::EmbeddingMatrix tiny(10, 8);
  tiny.initialize_random(1);
  const std::string tiny_path = testing::TempDir() + "query_engine_tiny_" +
                                std::to_string(::getpid()) + ".gshs";
  ASSERT_TRUE(store::EmbeddingStore::write(tiny, tiny_path).is_ok());
  auto tiny_store = store::EmbeddingStore::open(tiny_path);
  ASSERT_TRUE(tiny_store.ok());
  const HnswIndex tiny_index =
      HnswIndex::build(tiny_store.value(), {.M = 4, .metric = Metric::kL2});
  EXPECT_EQ(engine.attach_index(tiny_index).code(),
            api::StatusCode::kInvalidArgument);
  std::remove(tiny_path.c_str());
}

}  // namespace
}  // namespace gosh::query
