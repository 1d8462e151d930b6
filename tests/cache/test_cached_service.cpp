// CachedService — the "cached:<inner>" strategy end to end: registry
// composition (prefix and --cache), the bit-identical-to-uncached
// guarantee at threshold 1.0, hit/miss/skip annotations, the gosh_cache_*
// metrics, partial merges (annotated, never cached), generation
// fingerprinting, and a recall-vs-threshold property sweep over a trained
// LFR embedding (suite CachedService* is in the TSan CI filter).
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "gosh/api/api.hpp"
#include "gosh/cache/cached_service.hpp"
#include "gosh/common/zipf.hpp"
#include "gosh/graph/generators.hpp"
#include "gosh/serving/registry.hpp"
#include "../serving/stub_service.hpp"

namespace gosh::cache {
namespace {

std::string temp_path(const std::string& name) {
  return testing::TempDir() + std::to_string(::getpid()) + "_" + name;
}

/// A random single-shard store, cleaned up on exit.
struct Fixture {
  std::string store_path;
  vid_t rows;
  unsigned dim;

  explicit Fixture(vid_t rows_in = 120, unsigned dim_in = 8,
                   std::uint64_t seed = 29)
      : rows(rows_in), dim(dim_in) {
    embedding::EmbeddingMatrix matrix(rows, dim);
    matrix.initialize_random(seed);
    store_path = temp_path("cached_service_" + std::to_string(rows) + "_" +
                           std::to_string(seed) + ".gshs");
    EXPECT_TRUE(
        store::EmbeddingStore::write(matrix, store_path, {}).is_ok());
  }

  serving::ServeOptions options(double threshold = 1.0) const {
    serving::ServeOptions serve;
    serve.store_path = store_path;
    serve.strategy = "cached:exact";
    serve.k = 10;
    serve.cache_threshold = threshold;
    return serve;
  }

  ~Fixture() { std::remove(store_path.c_str()); }
};

TEST(CachedService, RegistryComposesThePrefixAndTheCacheFlag) {
  Fixture fx;
  auto prefixed = serving::make_service(fx.options());
  ASSERT_TRUE(prefixed.ok()) << prefixed.status().to_string();
  EXPECT_EQ(prefixed.value()->strategy_name(), "cached:exact");
  EXPECT_EQ(prefixed.value()->rows(), fx.rows);

  // --cache on a plain strategy name wraps it the same way.
  serving::ServeOptions flagged = fx.options();
  flagged.strategy = "exact";
  flagged.cache_enabled = true;
  auto wrapped = serving::make_service(flagged);
  ASSERT_TRUE(wrapped.ok()) << wrapped.status().to_string();
  EXPECT_EQ(wrapped.value()->strategy_name(), "cached:exact");

  // Nested and empty inner names are configuration errors, not services.
  serving::ServeOptions nested = fx.options();
  nested.strategy = "cached:cached:exact";
  EXPECT_FALSE(serving::make_service(nested).ok());
  serving::ServeOptions empty = fx.options();
  empty.strategy = "cached:";
  EXPECT_FALSE(serving::make_service(empty).ok());
}

TEST(CachedService, ThresholdOneIsBitIdenticalToTheUncachedStrategy) {
  Fixture fx;
  serving::ServeOptions uncached = fx.options();
  uncached.strategy = "exact";
  auto exact = serving::make_service(uncached);
  ASSERT_TRUE(exact.ok());
  auto cached = serving::make_service(fx.options(/*threshold=*/1.0));
  ASSERT_TRUE(cached.ok());

  // Every probe twice: the first serve fills the cache, the second answers
  // from it — and BOTH must reproduce the uncached results bit for bit.
  for (int round = 0; round < 2; ++round) {
    for (vid_t probe = 0; probe < fx.rows; probe += 7) {
      auto truth =
          exact.value()->serve(serving::QueryRequest::for_vertex(probe, 10));
      auto got =
          cached.value()->serve(serving::QueryRequest::for_vertex(probe, 10));
      ASSERT_TRUE(truth.ok() && got.ok());
      const auto& expected = truth.value().results[0];
      const auto& actual = got.value().results[0];
      ASSERT_EQ(actual.size(), expected.size()) << "probe " << probe;
      for (std::size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(actual[i].id, expected[i].id) << "probe " << probe;
        EXPECT_EQ(actual[i].score, expected[i].score) << "probe " << probe;
      }
      const serving::CacheOutcome outcome = got.value().cache[0];
      EXPECT_EQ(outcome, round == 0 ? serving::CacheOutcome::kMiss
                                    : serving::CacheOutcome::kHit);
    }
  }
}

TEST(CachedService, ColinearVectorIsAProximityHit) {
  Fixture fx;
  auto service = serving::make_service(fx.options(/*threshold=*/0.99));
  ASSERT_TRUE(service.ok());
  auto row = service.value()->row_vector(3);
  ASSERT_TRUE(row.ok());

  auto first = service.value()->serve(
      serving::QueryRequest::for_vector(row.value(), 10));
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.value().cache[0], serving::CacheOutcome::kMiss);

  // The doubled vector differs in bytes but its cosine against the cached
  // entry is exactly 1.0 >= 0.99 — a proximity hit with the same ids.
  std::vector<float> doubled = row.value();
  for (float& x : doubled) x *= 2.0f;
  auto second = service.value()->serve(
      serving::QueryRequest::for_vector(doubled, 10));
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.value().cache[0], serving::CacheOutcome::kHit);
  ASSERT_EQ(second.value().results[0].size(),
            first.value().results[0].size());
  for (std::size_t i = 0; i < first.value().results[0].size(); ++i) {
    EXPECT_EQ(second.value().results[0][i].id,
              first.value().results[0][i].id);
  }
}

TEST(CachedService, UncacheableRequestsAreSkippedNotBroken) {
  Fixture fx;
  auto service = serving::make_service(fx.options(/*threshold=*/0.0));
  ASSERT_TRUE(service.ok());
  serving::ServeOptions uncached = fx.options();
  uncached.strategy = "exact";
  auto exact = serving::make_service(uncached);
  ASSERT_TRUE(exact.ok());

  const auto expect_skipped = [&](serving::QueryRequest request,
                                  const char* what) {
    auto truth = exact.value()->serve(request);
    auto got = service.value()->serve(request);
    ASSERT_TRUE(truth.ok() && got.ok()) << what;
    ASSERT_EQ(got.value().cache.size(), request.queries.size()) << what;
    for (const serving::CacheOutcome outcome : got.value().cache) {
      EXPECT_EQ(outcome, serving::CacheOutcome::kSkip) << what;
    }
    ASSERT_EQ(got.value().results.size(), truth.value().results.size());
    for (std::size_t q = 0; q < truth.value().results.size(); ++q) {
      ASSERT_EQ(got.value().results[q].size(),
                truth.value().results[q].size())
          << what;
      for (std::size_t i = 0; i < truth.value().results[q].size(); ++i) {
        EXPECT_EQ(got.value().results[q][i].id,
                  truth.value().results[q][i].id)
            << what;
      }
    }
  };

  serving::QueryRequest filtered = serving::QueryRequest::for_vertex(5, 10);
  filtered.filter = [](vid_t v) { return v < 60; };
  expect_skipped(filtered, "filtered");

  serving::QueryRequest metric = serving::QueryRequest::for_vertex(5, 10);
  metric.metric = query::Metric::kDot;
  expect_skipped(metric, "metric override");

  serving::QueryRequest beam = serving::QueryRequest::for_vertex(5, 10);
  beam.ef = 32;
  expect_skipped(beam, "ef override");

  auto row_a = service.value()->row_vector(1);
  auto row_b = service.value()->row_vector(2);
  ASSERT_TRUE(row_a.ok() && row_b.ok());
  std::vector<float> flat = row_a.value();
  flat.insert(flat.end(), row_b.value().begin(), row_b.value().end());
  serving::QueryRequest multi;
  multi.queries.push_back(serving::Query::multi(std::move(flat), 2));
  multi.k = 10;
  expect_skipped(multi, "multi-vector");
}

TEST(CachedService, MetricsCountHitsMissesAndInsertions) {
  Fixture fx;
  serving::MetricsRegistry metrics;
  auto service = serving::make_service(fx.options(/*threshold=*/1.0),
                                       &metrics);
  ASSERT_TRUE(service.ok());

  for (int round = 0; round < 2; ++round) {
    for (vid_t probe = 0; probe < 8; ++probe) {
      ASSERT_TRUE(
          service.value()
              ->serve(serving::QueryRequest::for_vertex(probe, 10))
              .ok());
    }
  }
  serving::QueryRequest filtered = serving::QueryRequest::for_vertex(0, 10);
  filtered.filter = [](vid_t) { return true; };
  ASSERT_TRUE(service.value()->serve(filtered).ok());

  EXPECT_EQ(metrics.counter("gosh_cache_misses_total").value(), 8u);
  EXPECT_EQ(metrics.counter("gosh_cache_hits_total").value(), 8u);
  EXPECT_EQ(metrics.counter("gosh_cache_insertions_total").value(), 8u);
  EXPECT_EQ(metrics.counter("gosh_cache_skips_total").value(), 1u);
  EXPECT_DOUBLE_EQ(metrics.gauge("gosh_cache_hit_ratio").value(), 0.5);
  EXPECT_DOUBLE_EQ(metrics.gauge("gosh_cache_entries").value(), 8.0);
  EXPECT_EQ(metrics.histogram("gosh_cache_lookup_seconds").count(), 16u);
}

TEST(CachedService, PartialMergesAreAnnotatedAndNeverCached) {
  serving::MetricsRegistry metrics;
  serving::ServeOptions options;
  options.k = 5;
  options.cache_threshold = 1.0;
  auto stub = std::make_unique<serving::StubService>();
  serving::StubService& inner = *stub;
  CachedService service(std::move(stub), options, &metrics);
  const serving::Counter& insertions =
      metrics.counter("gosh_cache_insertions_total");
  const serving::QueryRequest request = serving::QueryRequest::for_vertex(7);

  // A shard is down: the partial answer says so and is not cached.
  inner.degraded = true;
  auto partial = service.serve(request);
  ASSERT_TRUE(partial.ok()) << partial.status().to_string();
  EXPECT_TRUE(partial.value().degraded);
  ASSERT_EQ(partial.value().shards.size(), 2u);
  EXPECT_FALSE(partial.value().shards[1].ok);
  EXPECT_EQ(partial.value().cache.front(), serving::CacheOutcome::kMiss);
  EXPECT_EQ(insertions.value(), 0u);

  // Once it recovers, the whole answer is a miss and is cached...
  inner.degraded = false;
  auto whole = service.serve(request);
  ASSERT_TRUE(whole.ok()) << whole.status().to_string();
  EXPECT_FALSE(whole.value().degraded);
  EXPECT_TRUE(whole.value().shards.empty());
  EXPECT_EQ(whole.value().cache.front(), serving::CacheOutcome::kMiss);
  EXPECT_EQ(insertions.value(), 1u);

  // ...and the next ask hits it.
  auto hit = service.serve(request);
  ASSERT_TRUE(hit.ok()) << hit.status().to_string();
  EXPECT_EQ(hit.value().cache.front(), serving::CacheOutcome::kHit);
}

TEST(CachedService, CapacityEvictionsReachTheMetricsCounter) {
  Fixture fx;
  serving::MetricsRegistry metrics;
  serving::ServeOptions options = fx.options(/*threshold=*/1.0);
  options.cache_capacity = 4;
  auto service = serving::make_service(options, &metrics);
  ASSERT_TRUE(service.ok());
  for (vid_t probe = 0; probe < 10; ++probe) {
    ASSERT_TRUE(service.value()
                    ->serve(serving::QueryRequest::for_vertex(probe, 10))
                    .ok());
  }
  EXPECT_EQ(metrics.counter("gosh_cache_evictions_total").value(), 6u);
  EXPECT_DOUBLE_EQ(metrics.gauge("gosh_cache_entries").value(), 4.0);
}

TEST(CachedService, GenerationTracksTheStoreFingerprint) {
  const std::string path = temp_path("cached_generation.gshs");
  embedding::EmbeddingMatrix first(60, 8);
  first.initialize_random(3);
  ASSERT_TRUE(store::EmbeddingStore::write(first, path, {}).is_ok());

  serving::ServeOptions options;
  options.store_path = path;
  options.strategy = "cached:exact";
  options.k = 5;
  auto before = serving::make_service(options);
  ASSERT_TRUE(before.ok());
  auto* cached_before = dynamic_cast<CachedService*>(before.value().get());
  ASSERT_NE(cached_before, nullptr);
  const std::uint64_t generation_before = cached_before->cache().generation();
  EXPECT_NE(generation_before, 0u);

  // A rewritten store (different shape, so different file size) must land
  // a service on a different generation — the reopened cache starts cold.
  embedding::EmbeddingMatrix second(80, 8);
  second.initialize_random(4);
  ASSERT_TRUE(store::EmbeddingStore::write(second, path, {}).is_ok());
  auto after = serving::make_service(options);
  ASSERT_TRUE(after.ok());
  auto* cached_after = dynamic_cast<CachedService*>(after.value().get());
  ASSERT_NE(cached_after, nullptr);
  EXPECT_NE(cached_after->cache().generation(), generation_before);

  // And a generation flush empties a warm cache.
  ASSERT_TRUE(cached_after->serve(serving::QueryRequest::for_vertex(1, 5))
                  .ok());
  EXPECT_GE(cached_after->cache().size(), 1u);
  cached_after->cache().set_generation(generation_before);
  EXPECT_EQ(cached_after->cache().size(), 0u);
  std::remove(path.c_str());
}

TEST(CachedService, ConcurrentServesAgreeWithTheUncachedAnswers) {
  Fixture fx(96, 8, 11);
  serving::ServeOptions uncached = fx.options();
  uncached.strategy = "exact";
  auto exact = serving::make_service(uncached);
  ASSERT_TRUE(exact.ok());
  std::vector<std::vector<serving::Neighbor>> truth(fx.rows);
  for (vid_t v = 0; v < fx.rows; ++v) {
    auto served =
        exact.value()->serve(serving::QueryRequest::for_vertex(v, 10));
    ASSERT_TRUE(served.ok());
    truth[v] = std::move(served.value().results[0]);
  }

  auto service = serving::make_service(fx.options(/*threshold=*/1.0));
  ASSERT_TRUE(service.ok());
  std::atomic<int> failures{0};
  std::vector<std::thread> workers;
  for (unsigned t = 0; t < 4; ++t) {
    workers.emplace_back([&, t] {
      Rng rng(100 + t);
      for (unsigned i = 0; i < 200; ++i) {
        const vid_t probe = rng.next_vertex(fx.rows);
        auto served = service.value()->serve(
            serving::QueryRequest::for_vertex(probe, 10));
        if (!served.ok() ||
            served.value().results[0].size() != truth[probe].size()) {
          failures.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        for (std::size_t r = 0; r < truth[probe].size(); ++r) {
          if (served.value().results[0][r].id != truth[probe][r].id) {
            failures.fetch_add(1, std::memory_order_relaxed);
            break;
          }
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(failures.load(), 0);
}

// Shared fixture: one trained embedding per test binary run (the
// HnswRecallTest pattern) — the recall-vs-threshold property needs real
// community structure, where near-identical vectors share neighborhoods.
class CachedServiceRecallTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    store_path_ = new std::string(temp_path("cached_recall.gshs"));
    graph::LfrParams params;
    params.communities = 12;
    const graph::Graph g = graph::lfr_like(800, params, 17);
    api::Options options;
    options.preset = "fast";
    options.train().dim = 16;
    options.gosh.total_epochs = 120;
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

std::string* CachedServiceRecallTest::store_path_ = nullptr;

TEST_F(CachedServiceRecallTest, RecallDegradesGracefullyWithTheThreshold) {
  serving::ServeOptions uncached;
  uncached.store_path = *store_path_;
  uncached.strategy = "exact";
  uncached.k = 10;
  auto exact = serving::make_service(uncached);
  ASSERT_TRUE(exact.ok()) << exact.status().to_string();
  const vid_t rows = exact.value()->rows();

  // Zipf-skewed probes with replacement: repeats are exact-byte hits at
  // every threshold, so the hit counts below can only grow as the
  // threshold loosens.
  Rng rng(23);
  ZipfSampler zipf(rows, 1.0, rng);
  std::vector<vid_t> probes(200);
  for (vid_t& p : probes) p = zipf.sample(rng);
  std::vector<std::vector<serving::Neighbor>> truth(probes.size());
  for (std::size_t q = 0; q < probes.size(); ++q) {
    auto served = exact.value()->serve(
        serving::QueryRequest::for_vertex(probes[q], 10));
    ASSERT_TRUE(served.ok());
    truth[q] = std::move(served.value().results[0]);
  }

  std::uint64_t hits_at_one = 0;
  for (const double threshold : {1.0, 0.99, 0.95}) {
    serving::ServeOptions options = uncached;
    options.strategy = "cached:exact";
    options.cache_threshold = threshold;
    auto service = serving::make_service(options);
    ASSERT_TRUE(service.ok());
    std::uint64_t hits = 0;
    double recall_sum = 0.0;
    for (std::size_t q = 0; q < probes.size(); ++q) {
      auto served = service.value()->serve(
          serving::QueryRequest::for_vertex(probes[q], 10));
      ASSERT_TRUE(served.ok());
      if (served.value().cache[0] != serving::CacheOutcome::kHit) continue;
      ++hits;
      std::size_t overlap = 0;
      for (const serving::Neighbor& n : served.value().results[0]) {
        for (const serving::Neighbor& t : truth[q]) {
          if (n.id == t.id) {
            ++overlap;
            break;
          }
        }
      }
      recall_sum += truth[q].empty() ? 1.0
                                     : static_cast<double>(overlap) /
                                           static_cast<double>(
                                               truth[q].size());
      if (threshold == 1.0) {
        // Exact-byte mode: the hit IS the uncached answer, bit for bit.
        ASSERT_EQ(served.value().results[0].size(), truth[q].size());
        for (std::size_t i = 0; i < truth[q].size(); ++i) {
          EXPECT_EQ(served.value().results[0][i].id, truth[q][i].id);
          EXPECT_EQ(served.value().results[0][i].score, truth[q][i].score);
        }
      }
    }
    const double recall = hits > 0 ? recall_sum / hits : 1.0;
    if (threshold == 1.0) {
      hits_at_one = hits;
      EXPECT_GT(hits, 0u);  // Zipf repeats guarantee exact-byte hits
      EXPECT_DOUBLE_EQ(recall, 1.0);
    } else {
      // Every exact-byte repeat still hits under a looser threshold, and
      // cache-served answers must stay close to the uncached truth.
      EXPECT_GE(hits, hits_at_one) << "threshold " << threshold;
      EXPECT_GE(recall, 0.9) << "threshold " << threshold;
    }
  }
}

}  // namespace
}  // namespace gosh::cache
