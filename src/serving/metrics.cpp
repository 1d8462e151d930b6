#include "gosh/serving/metrics.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>

namespace gosh::serving {

namespace {

// 10 us .. 10 s in roughly 1-2.5-5 steps: wide enough for a single scan
// over an SSD-resident store, fine enough to separate p50 from p99 on a
// sub-millisecond cache-hot path.
std::vector<double> default_latency_bounds() {
  return {1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3,
          1e-2, 2.5e-2, 5e-2, 1e-1, 2.5e-1, 5e-1, 1.0,  2.5,    5.0, 10.0};
}

std::string format_double(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%g", value);
  return buffer;
}

}  // namespace

void Gauge::set(double value) noexcept {
  bits_.store(std::bit_cast<std::uint64_t>(value), std::memory_order_relaxed);
}

void Gauge::add(double delta) noexcept {
  std::uint64_t seen = bits_.load(std::memory_order_relaxed);
  while (!bits_.compare_exchange_weak(
      seen, std::bit_cast<std::uint64_t>(std::bit_cast<double>(seen) + delta),
      std::memory_order_relaxed)) {
  }
}

double Gauge::value() const noexcept {
  return std::bit_cast<double>(bits_.load(std::memory_order_relaxed));
}

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(bounds.empty() ? default_latency_bounds() : std::move(bounds)),
      buckets_(bounds_.size() + 1) {
  // Callers may pass hand-rolled ladders; sorted order is a precondition
  // of the bucket search, so enforce it rather than trusting it.
  std::sort(bounds_.begin(), bounds_.end());
}

void Histogram::observe(double value) noexcept {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  const std::size_t bucket = static_cast<std::size_t>(it - bounds_.begin());
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  // Lock-free double accumulation: CAS on the bit pattern.
  std::uint64_t seen = sum_bits_.load(std::memory_order_relaxed);
  while (!sum_bits_.compare_exchange_weak(
      seen, std::bit_cast<std::uint64_t>(std::bit_cast<double>(seen) + value),
      std::memory_order_relaxed)) {
  }
}

double Histogram::sum() const noexcept {
  return std::bit_cast<double>(sum_bits_.load(std::memory_order_relaxed));
}

std::uint64_t Histogram::cumulative(std::size_t i) const noexcept {
  std::uint64_t total = 0;
  for (std::size_t b = 0; b <= i && b < buckets_.size(); ++b) {
    total += buckets_[b].load(std::memory_order_relaxed);
  }
  return total;
}

double Histogram::quantile(double q) const noexcept {
  const std::uint64_t n = count();
  if (n == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the target observation (1-based, ceil — the standard nearest-
  // rank definition, so quantile(1.0) is the max bucket).
  const std::uint64_t rank =
      std::max<std::uint64_t>(1, static_cast<std::uint64_t>(q * n + 0.5));
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    const std::uint64_t in_bucket =
        buckets_[b].load(std::memory_order_relaxed);
    if (seen + in_bucket < rank) {
      seen += in_bucket;
      continue;
    }
    // Interpolate inside [lower, upper); the +Inf bucket reports its lower
    // bound (there is no finite upper edge to interpolate toward).
    const double lower = b == 0 ? 0.0 : bounds_[b - 1];
    if (b >= bounds_.size()) return lower;
    const double upper = bounds_[b];
    const double within =
        in_bucket == 0 ? 0.0
                       : static_cast<double>(rank - seen) /
                             static_cast<double>(in_bucket);
    return lower + (upper - lower) * within;
  }
  return bounds_.empty() ? 0.0 : bounds_.back();
}

MetricsRegistry& MetricsRegistry::global() {
  // Leaked on purpose, like BackendRegistry::instance(): observers owned
  // by static objects may outlive main().
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter& MetricsRegistry::counter(std::string_view name,
                                  std::string_view help) {
  common::MutexLock lock(mutex_);
  for (const auto& entry : counters_) {
    if (entry->name == name) return entry->counter;
  }
  counters_.push_back(std::make_unique<CounterEntry>());
  counters_.back()->name = std::string(name);
  counters_.back()->help = std::string(help);
  return counters_.back()->counter;
}

Gauge& MetricsRegistry::gauge(std::string_view name, std::string_view help) {
  common::MutexLock lock(mutex_);
  for (const auto& entry : gauges_) {
    if (entry->name == name) return entry->gauge;
  }
  gauges_.push_back(std::make_unique<GaugeEntry>());
  gauges_.back()->name = std::string(name);
  gauges_.back()->help = std::string(help);
  return gauges_.back()->gauge;
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      std::string_view help,
                                      std::vector<double> bounds) {
  common::MutexLock lock(mutex_);
  for (const auto& entry : histograms_) {
    if (entry->name == name) return entry->histogram;
  }
  histograms_.push_back(std::make_unique<HistogramEntry>(std::move(bounds)));
  histograms_.back()->name = std::string(name);
  histograms_.back()->help = std::string(help);
  return histograms_.back()->histogram;
}

std::string MetricsRegistry::expose() const {
  common::MutexLock lock(mutex_);
  std::string out;

  // Stable order: counters, gauges, then histograms, each sorted by name,
  // so two dumps of the same state are byte-identical.
  std::vector<const CounterEntry*> counters;
  for (const auto& entry : counters_) counters.push_back(entry.get());
  std::sort(counters.begin(), counters.end(),
            [](const CounterEntry* a, const CounterEntry* b) {
              return a->name < b->name;
            });
  for (const CounterEntry* entry : counters) {
    if (!entry->help.empty())
      out += "# HELP " + entry->name + " " + entry->help + "\n";
    out += "# TYPE " + entry->name + " counter\n";
    out += entry->name + " " + std::to_string(entry->counter.value()) + "\n";
  }

  std::vector<const GaugeEntry*> gauges;
  for (const auto& entry : gauges_) gauges.push_back(entry.get());
  std::sort(gauges.begin(), gauges.end(),
            [](const GaugeEntry* a, const GaugeEntry* b) {
              return a->name < b->name;
            });
  for (const GaugeEntry* entry : gauges) {
    if (!entry->help.empty())
      out += "# HELP " + entry->name + " " + entry->help + "\n";
    out += "# TYPE " + entry->name + " gauge\n";
    out += entry->name + " " + format_double(entry->gauge.value()) + "\n";
  }

  std::vector<const HistogramEntry*> histograms;
  for (const auto& entry : histograms_) histograms.push_back(entry.get());
  std::sort(histograms.begin(), histograms.end(),
            [](const HistogramEntry* a, const HistogramEntry* b) {
              return a->name < b->name;
            });
  for (const HistogramEntry* entry : histograms) {
    const Histogram& h = entry->histogram;
    if (!entry->help.empty())
      out += "# HELP " + entry->name + " " + entry->help + "\n";
    out += "# TYPE " + entry->name + " histogram\n";
    for (std::size_t b = 0; b < h.bounds().size(); ++b) {
      out += entry->name + "_bucket{le=\"" + format_double(h.bounds()[b]) +
             "\"} " + std::to_string(h.cumulative(b)) + "\n";
    }
    out += entry->name + "_bucket{le=\"+Inf\"} " + std::to_string(h.count()) +
           "\n";
    out += entry->name + "_sum " + format_double(h.sum()) + "\n";
    out += entry->name + "_count " + std::to_string(h.count()) + "\n";
    // Human-facing convenience series; scrapers compute their own from the
    // buckets, `gosh_query --metrics` readers get them for free.
    out += entry->name + "_p50 " + format_double(h.quantile(0.5)) + "\n";
    out += entry->name + "_p99 " + format_double(h.quantile(0.99)) + "\n";
    out += entry->name + "_p999 " + format_double(h.quantile(0.999)) + "\n";
  }
  return out;
}

MetricsProgressObserver::MetricsProgressObserver(MetricsRegistry& registry)
    : epochs_(registry.counter("gosh_train_epochs_total",
                               "Training passes/rotations completed")),
      pair_kernels_(registry.counter("gosh_train_pair_kernels_total",
                                     "Algorithm 5 pair kernels launched")),
      level_seconds_(registry.histogram("gosh_train_level_seconds",
                                        "Wall time per coarsening level")),
      pipeline_seconds_(registry.histogram("gosh_train_pipeline_seconds",
                                           "Wall time per embed() call")) {}

void MetricsProgressObserver::on_epoch(std::size_t, unsigned, unsigned) {
  epochs_.increment();
}

void MetricsProgressObserver::on_pair(std::size_t, unsigned, std::size_t,
                                      std::size_t) {
  pair_kernels_.increment();
}

void MetricsProgressObserver::on_level_end(const api::LevelInfo&,
                                           double seconds) {
  level_seconds_.observe(seconds);
}

void MetricsProgressObserver::on_pipeline_end(double total_seconds) {
  pipeline_seconds_.observe(total_seconds);
}

}  // namespace gosh::serving
