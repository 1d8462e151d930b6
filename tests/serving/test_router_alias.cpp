// Router — the `router` strategy is a registry alias of `exact`: one engine
// scans every shard of a sharded store. Served that way it must be
// indistinguishable from a single engine over the unsharded matrix: same
// ids, same scores, same deterministic (score desc, id asc) tie handling,
// under every metric (suite Router* is in the TSan CI filter). The
// scatter-gather router across processes is covered by test_dist_router.cpp.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "gosh/serving/registry.hpp"

namespace gosh::serving {
namespace {

/// The same matrix written twice: once unsharded, once as 3 shards. Rows
/// are seeded with deliberate duplicates so top-k runs into score ties.
struct ShardedFixture {
  std::string sharded_path;
  std::string flat_path;
  std::uint32_t shard_count;
  vid_t rows;
  unsigned dim;

  explicit ShardedFixture(vid_t rows_in = 99, unsigned dim_in = 7)
      : rows(rows_in), dim(dim_in) {
    embedding::EmbeddingMatrix matrix(rows, dim);
    matrix.initialize_random(31);
    // Duplicate every 10th row into the NEXT shard's range so results
    // carry cross-shard ties: (score desc, id asc) must pick the lower id
    // first, whichever shard holds it.
    const vid_t third = rows / 3;
    for (vid_t v = 0; v + third < rows; v += 10) {
      const auto src = matrix.row(v);
      auto dst = matrix.row(v + third);
      std::copy(src.begin(), src.end(), dst.begin());
    }

    // getpid(): concurrent `ctest -j` test processes must not rewrite
    // (truncate) a store another one has mapped.
    const std::string base = testing::TempDir() + "router_" +
                             std::to_string(::getpid()) + "_" +
                             std::to_string(rows) + "_" +
                             std::to_string(dim);
    sharded_path = base + ".sharded.gshs";
    flat_path = base + ".flat.gshs";
    const std::uint64_t per_shard = rows / 3 + 1;
    shard_count =
        static_cast<std::uint32_t>((rows + per_shard - 1) / per_shard);
    EXPECT_TRUE(store::EmbeddingStore::write(matrix, sharded_path,
                                             {.rows_per_shard = per_shard})
                    .is_ok());
    EXPECT_TRUE(store::EmbeddingStore::write(matrix, flat_path, {}).is_ok());
  }

  ServeOptions options(const std::string& path) const {
    ServeOptions serve;
    serve.store_path = path;
    serve.k = 12;
    return serve;
  }

  ~ShardedFixture() {
    for (std::uint32_t s = 0; s < shard_count; ++s) {
      std::remove(
          store::EmbeddingStore::shard_path(sharded_path, s, shard_count)
              .c_str());
    }
    std::remove(flat_path.c_str());
  }
};

void expect_identical(const std::vector<query::Neighbor>& got,
                      const std::vector<query::Neighbor>& expected,
                      const char* what) {
  ASSERT_EQ(got.size(), expected.size()) << what;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(got[i].id, expected[i].id) << what << " rank " << i;
    EXPECT_FLOAT_EQ(got[i].score, expected[i].score) << what << " rank " << i;
  }
}

TEST(Router, MatchesSingleEngineUnderEveryMetricWithTies) {
  ShardedFixture fx;
  for (const query::Metric metric :
       {query::Metric::kCosine, query::Metric::kDot, query::Metric::kL2}) {
    ServeOptions sharded = fx.options(fx.sharded_path);
    sharded.strategy = "router";
    sharded.metric = metric;
    auto router = make_service(sharded);
    ASSERT_TRUE(router.ok()) << router.status().to_string();

    ServeOptions flat = fx.options(fx.flat_path);
    flat.strategy = "exact";
    flat.metric = metric;
    auto exact = make_service(flat);
    ASSERT_TRUE(exact.ok()) << exact.status().to_string();

    // Vertex probes include duplicated rows (tie-heavy) and shard-edge
    // ids; raw-vector probes hit the same paths without self-exclusion.
    for (const vid_t probe : {0u, 10u, 32u, 33u, 43u, 98u}) {
      auto a = router.value()->top_k_vertex(probe, 12);
      auto b = exact.value()->top_k_vertex(probe, 12);
      ASSERT_TRUE(a.ok() && b.ok()) << query::metric_name(metric);
      expect_identical(a.value(), b.value(),
                       (std::string(query::metric_name(metric)) + " vertex " +
                        std::to_string(probe))
                           .c_str());
    }
    auto vec = router.value()->row_vector(50);
    ASSERT_TRUE(vec.ok());
    auto a = router.value()->top_k(vec.value(), 12);
    auto b = exact.value()->top_k(vec.value(), 12);
    ASSERT_TRUE(a.ok() && b.ok());
    expect_identical(a.value(), b.value(), query::metric_name(metric).data());
  }
}

TEST(Router, FiltersSpeakGlobalIds) {
  ShardedFixture fx;
  ServeOptions options = fx.options(fx.sharded_path);
  options.strategy = "router";
  auto router = make_service(options);
  ASSERT_TRUE(router.ok());

  // The allowed range straddles shard 1 and 2; the filter sees global ids
  // or it would pass the wrong rows.
  QueryRequest request = QueryRequest::for_vertex(2, 20);
  request.filter = [](vid_t v) { return v >= 40 && v < 80; };
  auto response = router.value()->serve(request);
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response.value().results.front().size(), 20u);
  for (const query::Neighbor& n : response.value().results.front()) {
    EXPECT_GE(n.id, 40u);
    EXPECT_LT(n.id, 80u);
  }

  ServeOptions flat = fx.options(fx.flat_path);
  flat.strategy = "exact";
  auto exact = make_service(flat);
  ASSERT_TRUE(exact.ok());
  auto expected = exact.value()->serve(request);
  ASSERT_TRUE(expected.ok());
  expect_identical(response.value().results.front(),
                   expected.value().results.front(), "filtered");
}

TEST(Router, MultiVectorAndMetricOverridesScatterCorrectly) {
  ShardedFixture fx;
  ServeOptions options = fx.options(fx.sharded_path);
  options.strategy = "router";
  auto router = make_service(options);
  ASSERT_TRUE(router.ok());
  ServeOptions flat = fx.options(fx.flat_path);
  flat.strategy = "exact";
  auto exact = make_service(flat);
  ASSERT_TRUE(exact.ok());

  auto a = router.value()->row_vector(8);
  auto b = router.value()->row_vector(70);
  ASSERT_TRUE(a.ok() && b.ok());
  std::vector<float> joint = a.value();
  joint.insert(joint.end(), b.value().begin(), b.value().end());

  QueryRequest request;
  request.queries.push_back(Query::multi(joint, 2));
  request.queries.push_back(Query::vertex(70));
  request.k = 9;
  request.aggregate = Aggregate::kMean;
  request.metric = query::Metric::kDot;
  auto got = router.value()->serve(request);
  auto expected = exact.value()->serve(request);
  ASSERT_TRUE(got.ok() && expected.ok());
  for (std::size_t q = 0; q < expected.value().results.size(); ++q) {
    expect_identical(got.value().results[q], expected.value().results[q],
                     ("query " + std::to_string(q)).c_str());
  }
}

TEST(Router, RowVectorResolvesAcrossShards) {
  ShardedFixture fx;
  ServeOptions options = fx.options(fx.sharded_path);
  options.strategy = "router";
  auto router = make_service(options);
  ASSERT_TRUE(router.ok()) << router.status().to_string();
  auto flat = store::EmbeddingStore::open(fx.flat_path);
  ASSERT_TRUE(flat.ok());
  for (const vid_t v : {0u, 33u, 66u, 98u}) {
    auto row = router.value()->row_vector(v);
    ASSERT_TRUE(row.ok()) << v;
    const auto expected = flat.value().row(v);
    ASSERT_EQ(row.value().size(), expected.size());
    for (std::size_t d = 0; d < expected.size(); ++d) {
      EXPECT_FLOAT_EQ(row.value()[d], expected[d]) << "vertex " << v;
    }
  }
  EXPECT_FALSE(router.value()->row_vector(fx.rows).ok());
}

TEST(Router, ConcurrentServeIsSafe) {
  ShardedFixture fx;
  ServeOptions options = fx.options(fx.sharded_path);
  options.strategy = "router";
  options.threads = 2;
  auto router = make_service(options);
  ASSERT_TRUE(router.ok());
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&router, t, &fx] {
      for (int i = 0; i < 20; ++i) {
        const vid_t probe = static_cast<vid_t>((t * 20 + i) % fx.rows);
        auto top = router.value()->top_k_vertex(probe, 5);
        ASSERT_TRUE(top.ok());
        EXPECT_EQ(top.value().size(), 5u);
      }
    });
  }
  for (std::thread& t : threads) t.join();
}

}  // namespace
}  // namespace gosh::serving
