// gosh::query metrics — hand-computed similarity values, metric and
// aggregate name parsing, and the per-store norm cache.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>

#include "gosh/query/metric.hpp"

namespace gosh::query {
namespace {

TEST(QueryMetric, CosineMatchesHandComputation) {
  // cos((1,0), (1,1)) = 1 / sqrt(2).
  const float a[2] = {1.0f, 0.0f};
  const float b[2] = {1.0f, 1.0f};
  const float inv_a = inverse_norm(a, 2);
  const float inv_b = inverse_norm(b, 2);
  EXPECT_NEAR(similarity(Metric::kCosine, a, b, 2, inv_a, inv_b),
              1.0f / std::sqrt(2.0f), 1e-6f);
  // Orthogonal vectors score 0, antiparallel score -1.
  const float c[2] = {0.0f, 3.0f};
  EXPECT_NEAR(similarity(Metric::kCosine, a, c, 2, inv_a,
                         inverse_norm(c, 2)),
              0.0f, 1e-6f);
  const float d[2] = {-2.0f, 0.0f};
  EXPECT_NEAR(similarity(Metric::kCosine, a, d, 2, inv_a,
                         inverse_norm(d, 2)),
              -1.0f, 1e-6f);
}

TEST(QueryMetric, ZeroVectorCosineIsZeroNotNan) {
  const float zero[3] = {0.0f, 0.0f, 0.0f};
  const float v[3] = {1.0f, 2.0f, 3.0f};
  EXPECT_EQ(inverse_norm(zero, 3), 0.0f);
  EXPECT_EQ(similarity(Metric::kCosine, zero, v, 3, inverse_norm(zero, 3),
                       inverse_norm(v, 3)),
            0.0f);
}

TEST(QueryMetric, DotMatchesHandComputation) {
  const float a[3] = {1.0f, 2.0f, 3.0f};
  const float b[3] = {4.0f, -5.0f, 6.0f};
  EXPECT_NEAR(similarity(Metric::kDot, a, b, 3, 0.0f, 0.0f),
              4.0f - 10.0f + 18.0f, 1e-6f);
}

TEST(QueryMetric, L2IsNegatedSquaredDistance) {
  const float a[2] = {1.0f, 2.0f};
  const float b[2] = {4.0f, 6.0f};  // distance 5, squared 25
  EXPECT_NEAR(similarity(Metric::kL2, a, b, 2, 0.0f, 0.0f), -25.0f, 1e-6f);
  // Identical vectors are the best possible match under L2.
  EXPECT_EQ(similarity(Metric::kL2, a, a, 2, 0.0f, 0.0f), 0.0f);
}

TEST(QueryMetric, NeighborOrderingBreaksTiesById) {
  EXPECT_TRUE(better({3, 1.0f}, {2, 0.5f}));
  EXPECT_FALSE(better({3, 0.5f}, {2, 1.0f}));
  EXPECT_TRUE(better({2, 1.0f}, {3, 1.0f}));  // equal score: lower id wins
}

TEST(QueryMetric, ParseRoundTripsAndRejectsUnknown) {
  for (const Metric metric : {Metric::kCosine, Metric::kDot, Metric::kL2}) {
    auto parsed = parse_metric(metric_name(metric));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value(), metric);
  }
  EXPECT_EQ(parse_metric("manhattan").status().code(),
            api::StatusCode::kInvalidArgument);
}

TEST(QueryMetric, ParseAggregateEnumeratesValidNames) {
  EXPECT_EQ(parse_aggregate("max").value(), Aggregate::kMax);
  EXPECT_EQ(parse_aggregate("mean").value(), Aggregate::kMean);
  auto bogus = parse_aggregate("median");
  ASSERT_FALSE(bogus.ok());
  EXPECT_NE(bogus.status().message().find("max"), std::string::npos);
  EXPECT_NE(bogus.status().message().find("mean"), std::string::npos);
}

TEST(QueryMetric, RowInverseNormsCoverTheStore) {
  embedding::EmbeddingMatrix matrix(5, 3);
  for (vid_t v = 0; v < 5; ++v) {
    for (unsigned i = 0; i < 3; ++i) matrix.row(v)[i] = (v == 0) ? 0.0f : v;
  }
  const std::string path = testing::TempDir() + "metric_norms.gshs";
  ASSERT_TRUE(store::EmbeddingStore::write(matrix, path).is_ok());
  auto opened = store::EmbeddingStore::open(path);
  ASSERT_TRUE(opened.ok());

  const auto inv = row_inverse_norms(opened.value(), Metric::kCosine);
  ASSERT_EQ(inv.size(), 5u);
  EXPECT_EQ(inv[0], 0.0f);  // zero row degrades, no NaN
  for (vid_t v = 1; v < 5; ++v) {
    EXPECT_NEAR(inv[v], 1.0f / (v * std::sqrt(3.0f)), 1e-6f);
  }
  // Non-cosine metrics need no norms at all.
  EXPECT_TRUE(row_inverse_norms(opened.value(), Metric::kDot).empty());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace gosh::query
