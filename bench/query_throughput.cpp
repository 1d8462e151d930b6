// Query serving throughput through the gosh::serving service API.
//
// Makes the serving path measurable the way the table/figure harnesses
// measure the training paths: writes a synthetic embedding matrix as a
// sharded mmap-served store, builds the HNSW index beside it, then drives
// ServiceRegistry-created QueryService objects ("exact" across the store's
// shards and "hnsw", then "exact" under concurrent submitters) and reports
// queries/sec plus p50/p99 latency from MetricsRegistry histograms — not
// ad-hoc averages.
//
// The strategy grid is swept once per SIMD ISA the host supports (forced
// through gosh::simd::force_isa), so the exact-scan speedup of the vector
// kernels over GOSH_SIMD=scalar is a single run's output; `--json <file>`
// emits the bench/report.hpp records that feed the BENCH_*.json perf
// trajectory.
//
//   bench_query_throughput [--rows N] [--dim D] [--queries Q] [--k K]
//                          [--threads t1,t2,...] [--batch B] [--seed S]
//                          [--zipf-s S] [--trace on|off|sampled]
//                          [--json FILE]
//
// Defaults: 20000 rows, dim 64, 512 queries, k 10, threads 1,4, batch 64,
// zipf-s 1.0.
//
// The concurrent-submitter sweep runs "exact" once per thread count T of
// the grid with T scan threads and T submitter threads sharing the
// probes, so the exact strategy's combiner folds concurrent requests into
// shared passes of at most --batch queries. Besides q/s and request
// latency it reports queries per pass: gosh_serving_batch_queries_total /
// gosh_serving_batches_total from that row's own registry.
//
// --trace prices the gosh::trace layer on the in-process path: "off"
// leaves the global gate down (every TRACE_SPAN in the scan reduces to one
// relaxed atomic load), "on" wraps every request in a sampled trace,
// "sampled" keeps 1%. The mode lands in each record's "trace" param so the
// BENCH_*.json trajectory holds the columns side by side.
//
// --zipf-s shapes probe popularity: ids are drawn Zipf(s) over a shuffled
// rank->id map (s = 0 degrades to uniform), the skew real query traffic
// shows and the regime the semantic cache is judged in. The final sweep
// replays the same probes through cached:exact at thresholds
// {off, 0.95, 0.99, 1.0} and reports queries/s, hit rate, and recall@k of
// cache-served answers against the uncached exact ground truth; the
// threshold-1.0 row is asserted bit-identical to that ground truth.
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "gosh/api/api.hpp"
#include "gosh/common/simd.hpp"
#include "gosh/common/zipf.hpp"
#include "gosh/trace/trace.hpp"
#include "report.hpp"

namespace {

using namespace gosh;

int fail(const api::Status& status) {
  std::fprintf(stderr, "error: %s\n", status.to_string().c_str());
  return 1;
}

std::string flag_string(int argc, char** argv, std::string_view name,
                        std::string fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string_view(argv[i]) == name) return argv[i + 1];
  }
  return fallback;
}

}  // namespace

int main(int argc, char** argv) {
  api::print_bench_banner(
      "Query serving throughput (QueryService strategies)");

  const auto rows = static_cast<vid_t>(
      api::require_flag_unsigned(argc, argv, "--rows", 20000));
  const auto dim = static_cast<unsigned>(
      api::require_flag_unsigned(argc, argv, "--dim", 64));
  const auto num_queries = static_cast<std::size_t>(
      api::require_flag_unsigned(argc, argv, "--queries", 512));
  const auto k =
      static_cast<unsigned>(api::require_flag_unsigned(argc, argv, "--k", 10));
  const auto batch = static_cast<std::size_t>(
      api::require_flag_unsigned(argc, argv, "--batch", 64));
  const auto seed = api::require_flag_unsigned(argc, argv, "--seed", 1);
  const std::vector<std::string> thread_flags =
      api::flag_list(argc, argv, "--threads", {"1", "4"});
  const std::string json_path = bench::json_flag(argc, argv);
  const std::string run_id = bench::run_id_flag(argc, argv);
  const std::string trace_mode = flag_string(argc, argv, "--trace", "off");
  if (trace_mode != "on" && trace_mode != "off" && trace_mode != "sampled") {
    std::fprintf(stderr, "error: --trace wants on|off|sampled, got '%s'\n",
                 trace_mode.c_str());
    return 1;
  }
  const std::string zipf_flag = flag_string(argc, argv, "--zipf-s", "1.0");
  const auto zipf_parsed = api::parse_real(zipf_flag);
  if (!zipf_parsed.ok() || zipf_parsed.value() < 0.0) {
    std::fprintf(stderr, "error: --zipf-s wants a real >= 0, got '%s'\n",
                 zipf_flag.c_str());
    return 1;
  }
  const double zipf_s = zipf_parsed.value();

  std::vector<unsigned> thread_counts;
  for (const std::string& t : thread_flags) {
    auto parsed = api::parse_unsigned(t);
    if (!parsed.ok() || parsed.value() == 0) {
      std::fprintf(stderr, "error: --threads wants positive integers\n");
      return 1;
    }
    thread_counts.push_back(static_cast<unsigned>(parsed.value()));
  }

  // A synthetic matrix stands in for a trained embedding: throughput only
  // depends on shape, not on training quality. Four shards so the exact
  // scan crosses shard boundaries.
  embedding::EmbeddingMatrix matrix(rows, dim);
  matrix.initialize_random(seed);
  const std::string store_path =
      (std::filesystem::temp_directory_path() / "gosh_bench_query.store")
          .string();
  const std::uint64_t per_shard = rows / 4 + 1;
  if (api::Status status = store::EmbeddingStore::write(
          matrix, store_path, {.rows_per_shard = per_shard});
      !status.is_ok()) {
    return fail(status);
  }

  serving::ServeOptions base;
  base.store_path = store_path;
  base.k = k;
  base.max_batch = batch;
  base.seed = seed;
  base.ef_construction = 128;
  base.verify_checksums = false;

  WallTimer timer;
  auto built = serving::build_index(base);
  if (!built.ok()) return fail(built.status());
  std::printf("store: %u rows x %u dim (4 shards); hnsw build %.2f s "
              "(M=%u, ef_construction=%u, max level %d)\n",
              rows, dim, built.value().seconds, built.value().M,
              built.value().ef_construction, built.value().max_level);

  // Queries = stored rows sampled with replacement (realistic: most
  // serving traffic asks "more like this node"), Zipf-skewed so a hot set
  // dominates the way production traffic does.
  Rng rng(seed + 7);
  ZipfSampler zipf(rows, zipf_s, rng);
  std::vector<vid_t> probes(num_queries);
  for (vid_t& p : probes) p = zipf.sample(rng);

  // Sweep every ISA the dispatch layer can serve, scalar first: the gap
  // between the scalar and the widest row is the SIMD layer's win. The
  // guard restores the entry dispatch on every exit path, including the
  // early fail() returns inside the sweep.
  simd::ScopedIsa guard;
  std::vector<simd::Isa> isas;
  for (const simd::Isa isa : {simd::Isa::kScalar, simd::Isa::kNeon,
                              simd::Isa::kAvx2, simd::Isa::kAvx512}) {
    if (simd::kernel_table(isa) != nullptr) isas.push_back(isa);
  }

  std::vector<bench::Record> records;
  const auto shape_params = [&](const char* strategy) {
    std::vector<std::pair<std::string, std::string>> params;
    params.emplace_back("strategy", strategy);
    params.emplace_back("rows", std::to_string(rows));
    params.emplace_back("dim", std::to_string(dim));
    params.emplace_back("queries", std::to_string(num_queries));
    params.emplace_back("k", std::to_string(k));
    params.emplace_back("trace", trace_mode);
    params.emplace_back("zipf_s", zipf_flag);
    return params;
  };

  // --trace wiring: "off" keeps the global gate down so every TRACE_SPAN
  // in the scan costs one relaxed load; on/sampled configure the global
  // tracer and wrap each request the way the HTTP front-end does.
  trace::Tracer& tracer = trace::Tracer::global();
  const bool tracing = trace_mode != "off";
  {
    trace::TraceOptions knobs;
    knobs.sample_rate =
        trace_mode == "on" ? 1.0 : (trace_mode == "sampled" ? 0.01 : 0.0);
    tracer.configure(knobs);
  }
  const auto traced_serve = [&](serving::QueryService& service,
                                const serving::QueryRequest& request) {
    if (!tracing) return service.serve(request);
    std::shared_ptr<trace::Trace> trace = tracer.begin(trace::mint_request_id());
    trace::ScopedTrace scope(trace);
    auto response = service.serve(request);
    tracer.finish(trace);
    return response;
  };

  serving::MetricsRegistry metrics;
  std::printf("\n%-8s %-8s %8s %12s %12s %12s %12s\n", "isa", "strategy",
              "threads", "queries/s", "p50 ms", "p99 ms", "p999 ms");
  for (const simd::Isa isa : isas) {
    simd::force_isa(isa);
    const std::string isa_label(simd::isa_name(isa));
    for (const unsigned threads : thread_counts) {
      for (const char* strategy : {"exact", "hnsw"}) {
        serving::ServeOptions options = base;
        options.strategy = strategy;
        options.threads = threads;
        auto service = serving::make_service(options, &metrics);
        if (!service.ok()) return fail(service.status());

        // Each request timing lands in its own histogram so p50/p99 come
        // straight out of the MetricsRegistry, per strategy and shape.
        serving::Histogram& latency = metrics.histogram(
            std::string("bench_latency_seconds_") + strategy + "_" +
            isa_label + "_t" + std::to_string(threads));
        timer.reset();
        for (const vid_t probe : probes) {
          auto response = traced_serve(
              *service.value(), serving::QueryRequest::for_vertex(probe, k));
          if (!response.ok()) return fail(response.status());
          latency.observe(response.value().seconds);
        }
        const double seconds = timer.seconds();
        const double qps = num_queries / (seconds > 0 ? seconds : 1e-9);
        std::printf("%-8s %-8s %8u %12.1f %12.4f %12.4f %12.4f\n",
                    isa_label.c_str(), strategy, threads, qps,
                    1e3 * latency.quantile(0.5), 1e3 * latency.quantile(0.99),
                    1e3 * latency.quantile(0.999));
        records.push_back({"query_throughput", shape_params(strategy), qps,
                           "queries/s", isa_label, threads});
      }
    }
  }
  simd::force_isa(guard.entry());

  // Exact with concurrent submitters at the entry ISA, one row per thread
  // count: T submitters pull probes off a shared cursor, each request a
  // single vertex query, and concurrent ones share passes.
  {
    const std::string isa_label(simd::isa_name(simd::active_isa()));
    std::printf("\nexact, concurrent submitters (max_batch %zu, %s)\n", batch,
                isa_label.c_str());
    std::printf("%10s %8s %12s %12s %12s %14s\n", "submitters", "threads",
                "queries/s", "p50 ms", "p99 ms", "queries/pass");
    for (const unsigned threads : thread_counts) {
      serving::MetricsRegistry pass_metrics;  // fresh counters per row
      serving::ServeOptions options = base;
      options.strategy = "exact";
      options.threads = threads;
      auto service = serving::make_service(options, &pass_metrics);
      if (!service.ok()) return fail(service.status());

      std::atomic<std::size_t> next{0};
      std::atomic<bool> served_all{true};
      timer.reset();
      std::vector<std::thread> submitters;
      submitters.reserve(threads);
      for (unsigned s = 0; s < threads; ++s) {
        submitters.emplace_back([&] {
          for (std::size_t i = next.fetch_add(1); i < num_queries;
               i = next.fetch_add(1)) {
            if (!traced_serve(*service.value(),
                              serving::QueryRequest::for_vertex(probes[i], k))
                     .ok()) {
              served_all.store(false);
            }
          }
        });
      }
      for (std::thread& submitter : submitters) submitter.join();
      const double seconds = timer.seconds();
      if (!served_all.load()) {
        std::fprintf(stderr, "error: a concurrent exact request failed\n");
        return 1;
      }
      const double qps = num_queries / (seconds > 0 ? seconds : 1e-9);
      const serving::Histogram& latency =
          pass_metrics.histogram("gosh_serving_request_latency_seconds");
      const auto passes = static_cast<double>(
          pass_metrics.counter("gosh_serving_batches_total").value());
      const double per_pass =
          passes > 0
              ? static_cast<double>(
                    pass_metrics.counter("gosh_serving_batch_queries_total")
                        .value()) /
                    passes
              : 0.0;
      std::printf("%10u %8u %12.1f %12.4f %12.4f %14.2f\n", threads, threads,
                  qps, 1e3 * latency.quantile(0.5),
                  1e3 * latency.quantile(0.99), per_pass);
      auto params = shape_params("exact");
      params.emplace_back("submitters", std::to_string(threads));
      char buffer[32];
      std::snprintf(buffer, sizeof buffer, "%.2f", per_pass);
      params.emplace_back("queries_per_pass", buffer);
      records.push_back({"query_throughput_concurrent", std::move(params), qps,
                         "queries/s", isa_label, threads});
    }
  }

  // Semantic cache sweep: the same Zipf-skewed probes replayed through
  // cached:exact at each threshold, against the uncached exact scan as
  // both the throughput baseline (the "off" row) and the answer ground
  // truth. Hit rate comes from the per-run cache counters, recall@k is
  // measured over cache-served queries only (misses are inner answers by
  // construction), and the threshold-1.0 row — exact-byte matches only —
  // is asserted bit-identical to the uncached results.
  {
    const unsigned threads = thread_counts.back();
    const std::string isa_label(simd::isa_name(simd::active_isa()));
    std::vector<std::vector<serving::Neighbor>> truth(num_queries);
    std::printf("\nsemantic cache sweep (cached:exact, zipf_s %s, "
                "%u threads, %s)\n",
                zipf_flag.c_str(), threads, isa_label.c_str());
    std::printf("%-10s %12s %10s %10s %10s %10s %10s\n", "threshold",
                "queries/s", "hit_rate", "recall@k", "p50 ms", "p99 ms",
                "p999 ms");

    const auto cache_params = [&](const char* strategy, const char* threshold,
                                  double hit_rate, double recall) {
      auto params = shape_params(strategy);
      params.emplace_back("threshold", threshold);
      char buffer[32];
      std::snprintf(buffer, sizeof buffer, "%.4f", hit_rate);
      params.emplace_back("hit_rate", buffer);
      std::snprintf(buffer, sizeof buffer, "%.4f", recall);
      params.emplace_back("recall", buffer);
      return params;
    };

    {  // Baseline + ground truth: plain exact, no cache in the path.
      serving::ServeOptions options = base;
      options.strategy = "exact";
      options.threads = threads;
      auto service = serving::make_service(options, &metrics);
      if (!service.ok()) return fail(service.status());
      serving::Histogram latency;
      timer.reset();
      for (std::size_t q = 0; q < num_queries; ++q) {
        auto response = traced_serve(
            *service.value(), serving::QueryRequest::for_vertex(probes[q], k));
        if (!response.ok()) return fail(response.status());
        latency.observe(response.value().seconds);
        truth[q] = std::move(response.value().results[0]);
      }
      const double seconds = timer.seconds();
      const double qps = num_queries / (seconds > 0 ? seconds : 1e-9);
      std::printf("%-10s %12.1f %10s %10.4f %10.4f %10.4f %10.4f\n", "off",
                  qps, "-", 1.0, 1e3 * latency.quantile(0.5),
                  1e3 * latency.quantile(0.99),
                  1e3 * latency.quantile(0.999));
      records.push_back({"cache_throughput",
                         cache_params("exact", "off", 0.0, 1.0), qps,
                         "queries/s", isa_label, threads});
    }

    for (const char* threshold_flag : {"0.95", "0.99", "1.0"}) {
      serving::MetricsRegistry cache_metrics;  // fresh counters per row
      serving::ServeOptions options = base;
      options.strategy = "exact";
      options.threads = threads;
      options.cache_enabled = true;
      options.cache_threshold = api::parse_real(threshold_flag).value();
      auto service = serving::make_service(options, &cache_metrics);
      if (!service.ok()) return fail(service.status());

      serving::Histogram latency;
      std::size_t hit_queries = 0, mismatches = 0;
      double recall_sum = 0.0;
      timer.reset();
      for (std::size_t q = 0; q < num_queries; ++q) {
        auto response = traced_serve(
            *service.value(), serving::QueryRequest::for_vertex(probes[q], k));
        if (!response.ok()) return fail(response.status());
        latency.observe(response.value().seconds);
        const std::vector<serving::Neighbor>& got =
            response.value().results[0];
        if (!response.value().cache.empty() &&
            response.value().cache[0] == serving::CacheOutcome::kHit) {
          ++hit_queries;
          std::size_t overlap = 0;
          for (const serving::Neighbor& n : got) {
            for (const serving::Neighbor& t : truth[q]) {
              if (n.id == t.id) {
                ++overlap;
                break;
              }
            }
          }
          recall_sum += truth[q].empty()
                            ? 1.0
                            : static_cast<double>(overlap) / truth[q].size();
        }
        if (options.cache_threshold == 1.0) {
          bool identical = got.size() == truth[q].size();
          for (std::size_t i = 0; identical && i < got.size(); ++i) {
            identical = got[i].id == truth[q][i].id &&
                        got[i].score == truth[q][i].score;
          }
          if (!identical) ++mismatches;
        }
      }
      const double seconds = timer.seconds();
      const double qps = num_queries / (seconds > 0 ? seconds : 1e-9);
      const double hits = static_cast<double>(
          cache_metrics.counter("gosh_cache_hits_total").value());
      const double misses = static_cast<double>(
          cache_metrics.counter("gosh_cache_misses_total").value());
      const double hit_rate =
          hits + misses > 0 ? hits / (hits + misses) : 0.0;
      const double recall =
          hit_queries > 0 ? recall_sum / hit_queries : 1.0;
      std::printf("%-10s %12.1f %10.4f %10.4f %10.4f %10.4f %10.4f\n",
                  threshold_flag, qps, hit_rate, recall,
                  1e3 * latency.quantile(0.5), 1e3 * latency.quantile(0.99),
                  1e3 * latency.quantile(0.999));
      if (mismatches > 0) {
        std::fprintf(stderr,
                     "error: threshold 1.0 produced %zu results differing "
                     "from the uncached scan (exact-byte mode must be "
                     "bit-identical)\n",
                     mismatches);
        return 1;
      }
      records.push_back({"cache_throughput",
                         cache_params("cached:exact", threshold_flag,
                                      hit_rate, recall),
                         qps, "queries/s", isa_label, threads});
    }
  }

  if (!json_path.empty()) {
    if (!bench::write_report(json_path, "bench_query_throughput", records,
                             run_id)) {
      return 1;
    }
    std::printf("json report: %s (%zu records)\n", json_path.c_str(),
                records.size());
  }

  const auto shard_count =
      static_cast<std::uint32_t>((rows + per_shard - 1) / per_shard);
  std::filesystem::remove(store_path);
  std::filesystem::remove(store_path + ".hnsw");
  for (std::uint32_t s = 1; s < shard_count; ++s) {
    std::filesystem::remove(
        store::EmbeddingStore::shard_path(store_path, s, shard_count));
  }
  return 0;
}
