// MetricsRegistry — the unified Prometheus-style metrics sink.
//
// Named monotonic Counters, Gauges and fixed-bucket latency Histograms
// (p50/p99 readable at any time), exposed in the text format scrapers
// expect. The serving layer registers its instruments directly;
// MetricsProgressObserver streams the training side's api::ProgressObserver
// callbacks into the same registry, so a deployment that trains and serves
// in the same process scrapes a single endpoint.
//
// Concurrency: Counter::increment and Histogram::observe are lock-free
// (relaxed atomics — the counters are statistics, not synchronization);
// registry lookups take a mutex but return stable references, so hot paths
// resolve their instruments once and never touch the map again.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "gosh/api/progress.hpp"
#include "gosh/common/sync.hpp"

namespace gosh::serving {

/// Monotonically increasing event count.
class Counter {
 public:
  void increment(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Point-in-time level that moves both ways — in-flight connections,
/// rate-limiter token balance. set() publishes an absolute reading; add()
/// adjusts it atomically (CAS on the double's bit pattern, the Histogram
/// sum technique), so concurrent +1/-1 bracketing never loses an update.
class Gauge {
 public:
  void set(double value) noexcept;
  void add(double delta) noexcept;
  double value() const noexcept;

 private:
  std::atomic<std::uint64_t> bits_{0};  ///< double bits; 0 encodes +0.0
};

/// Fixed-bucket histogram: observations land in the first bucket whose
/// upper bound is >= the value (the last bucket is +Inf). Quantiles are
/// read back by linear interpolation inside the winning bucket — exact
/// enough for latency reporting without storing samples.
class Histogram {
 public:
  /// `bounds` are the finite bucket upper bounds, ascending; empty picks
  /// the default latency ladder (10 us .. 10 s).
  explicit Histogram(std::vector<double> bounds = {});

  void observe(double value) noexcept;

  std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  double sum() const noexcept;
  /// Value at quantile `q` in [0, 1]; 0 when nothing was observed.
  /// quantile(0.5) is p50, quantile(0.99) is p99.
  double quantile(double q) const noexcept;
  const std::vector<double>& bounds() const noexcept { return bounds_; }
  /// Cumulative count of observations <= bounds()[i].
  std::uint64_t cumulative(std::size_t i) const noexcept;

 private:
  std::vector<double> bounds_;
  std::vector<std::atomic<std::uint64_t>> buckets_;  ///< bounds + 1 (+Inf)
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_bits_{0};  ///< double bits, CAS-accumulated
};

/// Named instrument table with text exposition. Constructible per test;
/// global() is the process-wide instance the tools scrape.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  static MetricsRegistry& global();

  /// Finds or creates the named counter. The reference stays valid for the
  /// registry's lifetime, so callers resolve once and increment lock-free.
  Counter& counter(std::string_view name, std::string_view help = {});
  /// Finds or creates the named gauge, same lifetime contract as counter().
  Gauge& gauge(std::string_view name, std::string_view help = {});
  /// Finds or creates the named histogram (`bounds` only applies on
  /// creation; empty = the default latency ladder).
  Histogram& histogram(std::string_view name, std::string_view help = {},
                       std::vector<double> bounds = {});

  /// Prometheus text exposition: # HELP / # TYPE lines, counter and gauge
  /// samples, histogram _bucket/_sum/_count series plus quantile gauge
  /// series (<name>_p50 / _p99 / _p999) for humans reading the dump
  /// directly.
  std::string expose() const;

 private:
  struct CounterEntry {
    std::string name, help;
    Counter counter;
  };
  struct GaugeEntry {
    std::string name, help;
    Gauge gauge;
  };
  struct HistogramEntry {
    std::string name, help;
    Histogram histogram;
    HistogramEntry(std::vector<double> bounds) : histogram(std::move(bounds)) {}
  };

  mutable common::Mutex mutex_;
  std::vector<std::unique_ptr<CounterEntry>> counters_ GOSH_GUARDED_BY(mutex_);
  std::vector<std::unique_ptr<GaugeEntry>> gauges_ GOSH_GUARDED_BY(mutex_);
  std::vector<std::unique_ptr<HistogramEntry>> histograms_
      GOSH_GUARDED_BY(mutex_);
};

/// Streams the training pipeline events into a registry:
/// gosh_train_epochs_total, gosh_train_pair_kernels_total,
/// gosh_train_level_seconds, gosh_train_pipeline_seconds.
class MetricsProgressObserver : public api::ProgressObserver {
 public:
  explicit MetricsProgressObserver(MetricsRegistry& registry);
  void on_epoch(std::size_t level, unsigned epoch, unsigned total) override;
  void on_pair(std::size_t level, unsigned rotation, std::size_t pair,
               std::size_t num_pairs) override;
  void on_level_end(const api::LevelInfo& level, double seconds) override;
  void on_pipeline_end(double total_seconds) override;

 private:
  Counter& epochs_;
  Counter& pair_kernels_;
  Histogram& level_seconds_;
  Histogram& pipeline_seconds_;
};

}  // namespace gosh::serving
