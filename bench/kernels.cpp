// Kernel-level microbenchmarks (google-benchmark): the Algorithm 1 update
// across dimensions, the gosh::simd kernel tables side by side at every
// ISA this host supports, sigmoid LUT vs exact, samplers, counting sort,
// and a single coarsening level. These are the primitives whose costs
// explain the table-level results.
//
// Custom main: registers the per-ISA benchmarks dynamically (only the
// tables the CPU can run), accepts `--json <file>` alongside the normal
// --benchmark_* flags, and emits the shared bench/report.hpp record shape
// — the BENCH_*.json perf trajectory's kernel half.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "gosh/common/counting_sort.hpp"
#include "gosh/common/rng.hpp"
#include "gosh/common/sigmoid.hpp"
#include "gosh/common/simd.hpp"
#include "gosh/coarsening/multi_edge_collapse.hpp"
#include "gosh/embedding/samplers.hpp"
#include "gosh/embedding/update.hpp"
#include "gosh/graph/generators.hpp"
#include "report.hpp"

namespace {

using namespace gosh;

void BM_UpdateEmbedding(benchmark::State& state) {
  const unsigned d = static_cast<unsigned>(state.range(0));
  std::vector<float> source(d, 0.1f), sample(d, -0.05f);
  const SigmoidTable& sigmoid = default_sigmoid_table();
  for (auto _ : state) {
    embedding::update_embedding<embedding::UpdateRule::kSimultaneous>(
        source.data(), sample.data(), d, 1.0f, 0.01f, sigmoid);
    benchmark::DoNotOptimize(source.data());
    benchmark::DoNotOptimize(sample.data());
  }
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(state.iterations() * d * 2 * sizeof(float));
}
BENCHMARK(BM_UpdateEmbedding)->Arg(8)->Arg(16)->Arg(32)->Arg(64)->Arg(128);

void BM_UpdateEmbeddingPaperRule(benchmark::State& state) {
  const unsigned d = static_cast<unsigned>(state.range(0));
  std::vector<float> source(d, 0.1f), sample(d, -0.05f);
  const SigmoidTable& sigmoid = default_sigmoid_table();
  for (auto _ : state) {
    embedding::update_embedding<embedding::UpdateRule::kPaperSequential>(
        source.data(), sample.data(), d, 1.0f, 0.01f, sigmoid);
    benchmark::DoNotOptimize(source.data());
  }
}
BENCHMARK(BM_UpdateEmbeddingPaperRule)->Arg(32)->Arg(128);

void BM_SigmoidLut(benchmark::State& state) {
  const SigmoidTable& table = default_sigmoid_table();
  float x = -7.9f;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table(x));
    x += 0.001f;
    if (x > 7.9f) x = -7.9f;
  }
}
BENCHMARK(BM_SigmoidLut);

void BM_SigmoidExact(benchmark::State& state) {
  float x = -7.9f;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sigmoid_exact(x));
    x += 0.001f;
    if (x > 7.9f) x = -7.9f;
  }
}
BENCHMARK(BM_SigmoidExact);

void BM_RngBounded(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.next_bounded(1000003));
  }
}
BENCHMARK(BM_RngBounded);

void BM_AliasTableSample(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(2);
  std::vector<double> weights(n);
  for (auto& w : weights) w = rng.next_double() + 0.01;
  embedding::AliasTable table{std::span<const double>(weights)};
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.sample(rng));
  }
}
BENCHMARK(BM_AliasTableSample)->Arg(1 << 10)->Arg(1 << 20);

void BM_CountingSort(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(3);
  std::vector<unsigned> keys(n);
  for (auto& k : keys) k = static_cast<unsigned>(rng.next_bounded(n / 8 + 1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        counting_sort_descending(std::span<const unsigned>(keys), n / 8 + 1));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_CountingSort)->Arg(1 << 14)->Arg(1 << 18);

void BM_CoarsenLevel(benchmark::State& state) {
  const graph::Graph g = graph::rmat(static_cast<unsigned>(state.range(0)),
                                     1ull << (state.range(0) + 3), 7);
  const auto threads = static_cast<unsigned>(state.range(1));
  for (auto _ : state) {
    auto mapping = coarsen::map_level(g, threads);
    benchmark::DoNotOptimize(mapping.num_clusters);
  }
  state.SetItemsProcessed(state.iterations() * g.num_arcs());
}
// One worker, and every worker.
BENCHMARK(BM_CoarsenLevel)
    ->ArgNames({"scale", "threads"})
    ->ArgsProduct(
        {{12, 14},
         {1, static_cast<std::int64_t>(std::thread::hardware_concurrency())}});

void BM_PositiveSampling(benchmark::State& state) {
  const graph::Graph g = graph::rmat(12, 40000, 8);
  simt::DeviceConfig config;
  config.memory_bytes = 64u << 20;
  simt::Device device(config);
  embedding::DeviceGraph device_graph(device, g);
  Rng rng(4);
  vid_t v = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(device_graph.positive_sample(v, rng));
    v = (v + 1) % g.num_vertices();
  }
}
BENCHMARK(BM_PositiveSampling);

// ---- Per-ISA gosh::simd kernels, registered for every table this host
// ---- can run: "simd_dot/avx2/128" vs "simd_dot/scalar/128" is the
// ---- speedup the dispatch layer buys. -----------------------------------

// Scores one iteration of a block-kernel bench produces; the JSON report
// divides its time by this to give ns per score.
constexpr const char* kScoresCounter = "scores";

void register_isa_benchmarks() {
  for (const simd::Isa isa : {simd::Isa::kScalar, simd::Isa::kAvx2,
                              simd::Isa::kAvx512, simd::Isa::kNeon}) {
    const simd::KernelTable* table = simd::kernel_table(isa);
    if (table == nullptr) continue;
    // Lvalue temp: `"/" + std::string(...)` hits GCC 12's -Wrestrict false
    // positive (PR105651) on the rvalue operator+ overload.
    const std::string isa_str(simd::isa_name(isa));
    const std::string suffix = "/" + isa_str;

    benchmark::RegisterBenchmark(
        ("simd_dot" + suffix).c_str(),
        [table](benchmark::State& state) {
          const unsigned d = static_cast<unsigned>(state.range(0));
          std::vector<float> a(d, 0.1f), b(d, -0.05f);
          for (auto _ : state) {
            benchmark::DoNotOptimize(table->dot(a.data(), b.data(), d));
          }
          state.SetItemsProcessed(state.iterations());
        })
        ->Arg(32)
        ->Arg(128);

    benchmark::RegisterBenchmark(
        ("simd_l2" + suffix).c_str(),
        [table](benchmark::State& state) {
          const unsigned d = static_cast<unsigned>(state.range(0));
          std::vector<float> a(d, 0.1f), b(d, -0.05f);
          for (auto _ : state) {
            benchmark::DoNotOptimize(table->l2_squared(a.data(), b.data(), d));
          }
          state.SetItemsProcessed(state.iterations());
        })
        ->Arg(128);

    // The whole Algorithm 1 pair update: SIMD dot -> sigmoid -> fused
    // dual-axpy, exactly what the trainers run per sample.
    benchmark::RegisterBenchmark(
        ("simd_fused_update" + suffix).c_str(),
        [table](benchmark::State& state) {
          const unsigned d = static_cast<unsigned>(state.range(0));
          std::vector<float> source(d, 0.1f), sample(d, -0.05f);
          const SigmoidTable& sigmoid = default_sigmoid_table();
          for (auto _ : state) {
            const float score =
                (1.0f - sigmoid(table->dot(source.data(), sample.data(), d))) *
                0.01f;
            table->pair_update_simultaneous(source.data(), sample.data(), d,
                                            score);
            benchmark::DoNotOptimize(source.data());
            benchmark::DoNotOptimize(sample.data());
          }
          state.SetItemsProcessed(state.iterations());
          state.SetBytesProcessed(state.iterations() * d * 2 * sizeof(float));
        })
        ->Arg(32)
        ->Arg(128);

    // The serving scan's inner step: a tile of stored rows scored against
    // a block of query vectors, timed per score (rows x queries). rows:1
    // prices a call per stored row; rows:64/queries:1 is the full tile a
    // single-query scan makes.
    benchmark::RegisterBenchmark(
        ("simd_dot_block" + suffix).c_str(),
        [table](benchmark::State& state) {
          const unsigned d = static_cast<unsigned>(state.range(0));
          const auto rows = static_cast<std::size_t>(state.range(1));
          const auto count = static_cast<std::size_t>(state.range(2));
          Rng rng(7);
          std::vector<float> queries(count * d);
          for (float& x : queries) x = rng.next_float() - 0.5f;
          std::vector<float> tile(rows * d);
          for (float& x : tile) x = rng.next_float() - 0.5f;
          std::vector<float> out(rows * count);
          for (auto _ : state) {
            table->dot_block(queries.data(), count, tile.data(), rows, d,
                             out.data());
            benchmark::DoNotOptimize(out.data());
            benchmark::ClobberMemory();
          }
          state.SetItemsProcessed(state.iterations() * rows * count);
          state.counters[kScoresCounter] = static_cast<double>(rows * count);
        })
        ->ArgNames({"d", "rows", "queries"})
        ->Args({128, 1, 1})
        ->Args({128, 1, 4})
        ->Args({128, 64, 1})
        ->Args({128, 64, 4});
  }
}

// Captures every finished run for the --json report while still printing
// the normal console table.
class CaptureReporter : public benchmark::ConsoleReporter {
 public:
  struct Captured {
    std::string name;
    double ns_per_op = 0.0;
    unsigned threads = 1;
    double scores_per_op = 0.0;  ///< 0 unless the bench counts scores
  };

  // Skipped/errored runs must not enter the perf trajectory as bogus
  // measurements. Detected structurally: google-benchmark 1.8 replaced
  // `bool error_occurred` with the `skipped` enum, and non-instantiated
  // `if constexpr` branches keep both spellings compiling.
  template <typename R>
  static bool failed(const R& run) {
    if constexpr (requires { run.skipped; }) {
      return static_cast<int>(run.skipped) != 0;
    } else if constexpr (requires { run.error_occurred; }) {
      return run.error_occurred;
    } else {
      return false;
    }
  }

  void ReportRuns(const std::vector<Run>& report) override {
    for (const Run& run : report) {
      // Aggregate rows (mean/stddev/cv under --benchmark_repetitions) are
      // derived statistics, not measurements — and their "_mean" name
      // suffix would corrupt the parsed params.
      if (failed(run) || run.run_type != Run::RT_Iteration) continue;
      const auto scores = run.counters.find(kScoresCounter);
      captured.push_back(
          {run.benchmark_name(), run.GetAdjustedRealTime(),
           static_cast<unsigned>(run.threads),
           scores == run.counters.end() ? 0.0 : scores->second.value});
    }
    ConsoleReporter::ReportRuns(report);
  }

  std::vector<Captured> captured;
};

// "simd_dot/avx2/128" -> name simd_dot, isa avx2, params {d: 128};
// "simd_dot_block/avx2/d:128/rows:64/queries:1" -> named params, value in
// ns per score; "BM_CountingSort/16384" -> name BM_CountingSort, params
// {arg: 16384}, isa = the active dispatch (those benches run through
// simd::kernels()).
bench::Record to_record(const CaptureReporter::Captured& run) {
  bench::Record record;
  record.unit = run.scores_per_op > 0.0 ? "ns/score" : "ns/op";
  record.value = run.scores_per_op > 0.0 ? run.ns_per_op / run.scores_per_op
                                         : run.ns_per_op;
  record.threads = run.threads;
  record.isa = std::string(simd::isa_name(simd::active_isa()));
  std::size_t start = 0;
  bool first = true;
  unsigned arg_index = 0;
  const std::string& name = run.name;
  while (start <= name.size()) {
    const std::size_t slash = name.find('/', start);
    const std::string token = name.substr(
        start, slash == std::string::npos ? std::string::npos : slash - start);
    if (first) {
      record.name = token;
      first = false;
    } else if (simd::parse_isa(token).has_value()) {
      record.isa = token;
    } else if (const std::size_t colon = token.find(':');
               colon != std::string::npos) {
      record.params.emplace_back(token.substr(0, colon),
                                 token.substr(colon + 1));
      ++arg_index;
    } else if (!token.empty()) {
      const bool is_dim =
          record.name.rfind("simd_", 0) == 0 && arg_index == 0;
      record.params.emplace_back(
          is_dim ? "d" : "arg" + std::to_string(arg_index), token);
      ++arg_index;
    }
    if (slash == std::string::npos) break;
    start = slash + 1;
  }
  return record;
}

}  // namespace

int main(int argc, char** argv) {
  // Strip "--json <file>" / "--run-id <id>" before google-benchmark sees
  // (and rejects) them.
  const std::string json_path = gosh::bench::json_flag(argc, argv);
  const std::string run_id = gosh::bench::run_id_flag(argc, argv);
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    if (arg == "--json" || arg == "--run-id") {
      ++i;  // skip the value too
      continue;
    }
    args.push_back(argv[i]);
  }
  int filtered_argc = static_cast<int>(args.size());
  args.push_back(nullptr);

  register_isa_benchmarks();
  benchmark::Initialize(&filtered_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(filtered_argc, args.data())) {
    return 1;
  }

  CaptureReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  if (!json_path.empty()) {
    std::vector<gosh::bench::Record> records;
    records.reserve(reporter.captured.size());
    for (const auto& run : reporter.captured) records.push_back(to_record(run));
    if (!gosh::bench::write_report(json_path, "bench_kernels", records,
                                   run_id)) {
      return 1;
    }
    std::printf("json report: %s (%zu records)\n", json_path.c_str(),
                records.size());
  }
  return 0;
}
