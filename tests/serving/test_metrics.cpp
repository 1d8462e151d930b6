// MetricsRegistry — counters, histogram quantiles, text exposition, the
// serving and training event feeds, and concurrent-observe safety (suite
// MetricsRegistry* is in the TSan CI filter).
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "gosh/serving/metrics.hpp"
#include "gosh/serving/scan_combiner.hpp"

namespace gosh::serving {
namespace {

TEST(MetricsRegistry, CounterFindsOrCreatesByName) {
  MetricsRegistry registry;
  Counter& a = registry.counter("requests_total", "help text");
  a.increment();
  a.increment(4);
  EXPECT_EQ(registry.counter("requests_total").value(), 5u);
  // A different name is a different instrument.
  EXPECT_EQ(registry.counter("other_total").value(), 0u);
}

TEST(MetricsRegistry, GaugeSetsAddsAndFindsByName) {
  MetricsRegistry registry;
  Gauge& g = registry.gauge("inflight", "help text");
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  g.set(4.0);
  g.add(2.5);
  g.add(-1.5);
  EXPECT_DOUBLE_EQ(registry.gauge("inflight").value(), 5.0);
  // A different name is a different instrument; set() overwrites.
  EXPECT_DOUBLE_EQ(registry.gauge("tokens").value(), 0.0);
  g.set(-3.0);
  EXPECT_DOUBLE_EQ(g.value(), -3.0);
}

TEST(MetricsRegistry, GaugeAppearsInExpositionAsGaugeType) {
  MetricsRegistry registry;
  registry.gauge("gosh_http_inflight_connections", "open connections")
      .set(3.0);
  const std::string text = registry.expose();
  EXPECT_NE(
      text.find("# HELP gosh_http_inflight_connections open connections"),
      std::string::npos);
  EXPECT_NE(text.find("# TYPE gosh_http_inflight_connections gauge"),
            std::string::npos);
  EXPECT_NE(text.find("gosh_http_inflight_connections 3"), std::string::npos);
  EXPECT_EQ(text, registry.expose());
}

TEST(MetricsRegistry, GaugeConcurrentAddsNeverLoseAnUpdate) {
  MetricsRegistry registry;
  Gauge& gauge = registry.gauge("concurrent_level");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&gauge] {
      // +1/-1 bracketing, the in-flight-connection pattern: the final
      // level must come back to exactly the surviving +1 per iteration.
      for (int i = 0; i < kPerThread; ++i) {
        gauge.add(2.0);
        gauge.add(-1.0);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_DOUBLE_EQ(gauge.value(), kThreads * kPerThread * 1.0);
}

TEST(MetricsRegistry, HistogramQuantilesInterpolateInsideBuckets) {
  MetricsRegistry registry;
  // Buckets: (0,1], (1,2], (2,4], +Inf.
  Histogram& h = registry.histogram("latency", "", {1.0, 2.0, 4.0});
  for (int i = 0; i < 100; ++i) h.observe(0.5);   // all in (0, 1]
  EXPECT_EQ(h.count(), 100u);
  EXPECT_NEAR(h.sum(), 50.0, 1e-9);
  // Every observation is in the first bucket: quantiles stay within it.
  EXPECT_GT(h.quantile(0.5), 0.0);
  EXPECT_LE(h.quantile(0.5), 1.0);
  EXPECT_LE(h.quantile(0.99), 1.0);

  for (int i = 0; i < 100; ++i) h.observe(3.0);   // (2, 4]
  // p50 now sits at the first-bucket / third-bucket boundary region, p99
  // firmly in (2, 4].
  EXPECT_LE(h.quantile(0.25), 1.0);
  EXPECT_GT(h.quantile(0.99), 2.0);
  EXPECT_LE(h.quantile(0.99), 4.0);
}

TEST(MetricsRegistry, HistogramOverflowLandsInInfBucket) {
  MetricsRegistry registry;
  Histogram& h = registry.histogram("wide", "", {1.0});
  h.observe(100.0);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.cumulative(0), 0u);  // nothing <= 1.0
  // The +Inf bucket reports its finite lower bound.
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 1.0);
}

TEST(MetricsRegistry, EmptyHistogramQuantileIsZero) {
  MetricsRegistry registry;
  EXPECT_DOUBLE_EQ(registry.histogram("empty").quantile(0.99), 0.0);
}

TEST(MetricsRegistry, ExpositionCarriesTypesBucketsAndQuantiles) {
  MetricsRegistry registry;
  registry.counter("gosh_requests_total", "served requests").increment(7);
  Histogram& h = registry.histogram("gosh_latency_seconds", "latency",
                                    {0.1, 1.0});
  h.observe(0.05);
  h.observe(0.5);
  h.observe(5.0);

  const std::string text = registry.expose();
  EXPECT_NE(text.find("# HELP gosh_requests_total served requests"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE gosh_requests_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("gosh_requests_total 7"), std::string::npos);
  EXPECT_NE(text.find("# TYPE gosh_latency_seconds histogram"),
            std::string::npos);
  EXPECT_NE(text.find("gosh_latency_seconds_bucket{le=\"0.1\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("gosh_latency_seconds_bucket{le=\"1\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("gosh_latency_seconds_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("gosh_latency_seconds_count 3"), std::string::npos);
  EXPECT_NE(text.find("gosh_latency_seconds_p50"), std::string::npos);
  EXPECT_NE(text.find("gosh_latency_seconds_p99"), std::string::npos);
  EXPECT_NE(text.find("gosh_latency_seconds_p999"), std::string::npos);
  // Deterministic: two dumps of the same state are byte-identical.
  EXPECT_EQ(text, registry.expose());
}

TEST(MetricsRegistry, QueryObserverAdapterStreamsServingEvents) {
  MetricsRegistry registry;
  // A 16-query request holds the first pass until two 4-query requests
  // wait; they then share the second pass: 2 passes, 24 queries, 3
  // requests.
  std::atomic<bool> held{true};
  std::atomic<int> calls{0};
  ScanCombiner combiner(
      [&](const ScanKey&, std::span<const float>,
          std::span<const std::size_t> counts,
          const query::RowFilter&) -> api::Result<ScanAnswers> {
        if (calls.fetch_add(1) == 0) {
          while (held.load()) std::this_thread::yield();
        }
        return ScanAnswers(counts.size());
      },
      64, &registry);
  const ScanKey key{query::Metric::kCosine, query::Aggregate::kMax, 10};
  const std::vector<float> sixteen(16, 1.0f), four(4, 1.0f);
  const std::vector<std::size_t> ones16(16, 1), ones4(4, 1);
  std::vector<std::thread> threads;
  threads.emplace_back([&] { (void)combiner.scan(key, sixteen, ones16); });
  while (calls.load() == 0) std::this_thread::yield();
  for (std::size_t waiting = 1; waiting <= 2; ++waiting) {
    threads.emplace_back([&] { (void)combiner.scan(key, four, ones4); });
    while (combiner.waiting() < waiting) std::this_thread::yield();
  }
  held.store(false);
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(registry.counter("gosh_serving_batches_total").value(), 2u);
  EXPECT_EQ(registry.counter("gosh_serving_batch_queries_total").value(), 24u);
  EXPECT_EQ(registry.histogram("gosh_serving_batch_seconds").count(), 2u);
  EXPECT_EQ(
      registry.histogram("gosh_serving_request_latency_seconds").count(), 3u);
}

TEST(MetricsRegistry, ProgressObserverAdapterStreamsTrainingEvents) {
  MetricsRegistry registry;
  MetricsProgressObserver observer(registry);
  observer.on_epoch(0, 0, 10);
  observer.on_epoch(0, 1, 10);
  observer.on_pair(0, 0, 0, 6);
  observer.on_level_end({}, 1.5);
  observer.on_pipeline_end(3.0);
  EXPECT_EQ(registry.counter("gosh_train_epochs_total").value(), 2u);
  EXPECT_EQ(registry.counter("gosh_train_pair_kernels_total").value(), 1u);
  EXPECT_EQ(registry.histogram("gosh_train_level_seconds").count(), 1u);
  EXPECT_EQ(registry.histogram("gosh_train_pipeline_seconds").count(), 1u);
}

TEST(MetricsRegistry, ConcurrentObservationsAreAccountedExactly) {
  MetricsRegistry registry;
  Counter& counter = registry.counter("concurrent_total");
  Histogram& histogram = registry.histogram("concurrent_seconds", "", {1.0});
  constexpr int kThreads = 8;
  constexpr int kPerThread = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, &counter, &histogram] {
      for (int i = 0; i < kPerThread; ++i) {
        counter.increment();
        histogram.observe(0.5);
        // Concurrent lookups must also be safe, not just observes.
        registry.counter("concurrent_total");
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(counter.value(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(histogram.count(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_NEAR(histogram.sum(), kThreads * kPerThread * 0.5, 1e-6);
}

}  // namespace
}  // namespace gosh::serving
