// Figure 4 — speedup breakdown over the multi-core CPU baseline:
//   CPU (tau threads)            : verse-cpu backend, adjacency similarity
//   Naive GPU                    : device backend, no staging, no coarsening
//   Optimized GPU                : device backend, staging, no coarsening
//   + Sequential Coarsening      : full GOSH, tau=1 coarsening
//   + Parallel Coarsening (GOSH) : full GOSH, parallel coarsening
//
//   bench_fig4_breakdown [--medium-scale N] [--dim D] [--epochs E]
//                        [--datasets a,b,...] [--json FILE] [--run-id ID]
//
// Every rung is one gosh::api backend plus an Options tweak; the modeled
// device traffic comes back in EmbedResult::device_metrics.
//
// With --json, every rung adds records to a bench report (report.hpp):
// wall seconds, process CPU seconds and coarsening seconds, plus the
// blocked part count of level 0 for the device rungs (0 when level 0
// trained unblocked: it fits one core's L2, or the rung is the naive
// kernel).
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "gosh/api/api.hpp"
#include "report.hpp"

int main(int argc, char** argv) {
  using namespace gosh;
  const unsigned scale = static_cast<unsigned>(
      api::require_flag_unsigned(argc, argv, "--medium-scale", 13));
  const unsigned dim = static_cast<unsigned>(
      api::require_flag_unsigned(argc, argv, "--dim", 32));
  const unsigned epochs = static_cast<unsigned>(
      api::require_flag_unsigned(argc, argv, "--epochs", 200));
  const auto names = api::flag_list(
      argc, argv, "--datasets",
      {"com-dblp", "youtube", "soc-LiveJournal"});
  const std::size_t device_bytes = std::size_t{512} << 20;
  const std::string json_path = bench::json_flag(argc, argv);
  std::vector<bench::Record> records;

  api::print_bench_banner("Figure 4: speedup breakdown vs multi-core CPU");
  std::printf("dim=%u, %u epochs, tau=%u\n\n", dim, epochs,
              std::thread::hardware_concurrency());

  // Each embed also leaves its process CPU seconds in `cpu_seconds`.
  double cpu_seconds = 0.0;
  const auto must_embed = [&cpu_seconds](const graph::Graph& graph,
                                         const api::Options& options) {
    const double cpu_before = bench::process_cpu_seconds();
    auto embedded = api::embed(graph, options);
    cpu_seconds = bench::process_cpu_seconds() - cpu_before;
    if (!embedded.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   embedded.status().to_string().c_str());
      std::exit(1);
    }
    return std::move(embedded).value();
  };

  for (const auto& name : names) {
    const auto spec = graph::find_dataset(name, scale, scale + 3);
    const graph::Graph g = graph::generate_dataset(spec);
    std::printf("%s analog: |V|=%u |E|=%llu\n", name.c_str(),
                g.num_vertices(),
                static_cast<unsigned long long>(g.num_edges_undirected()));

    const auto record = [&](const char* rung, const char* metric,
                            double value, const char* unit) {
      bench::Record r;
      r.name = std::string("fig4/") + metric;
      r.params = {{"dataset", name},
                  {"scale", std::to_string(scale)},
                  {"dim", std::to_string(dim)},
                  {"epochs", std::to_string(epochs)},
                  {"rung", rung}};
      r.value = value;
      r.unit = unit;
      r.isa = std::string(simd::isa_name(simd::active_isa()));
      r.threads = std::thread::hardware_concurrency();
      records.push_back(std::move(r));
    };
    const auto record_rung = [&](const char* rung,
                                 const api::EmbedResult& result) {
      record(rung, "wall_s", result.total_seconds, "s");
      record(rung, "cpu_s", cpu_seconds, "s");
      record(rung, "coarsening_s", result.coarsening_seconds, "s");
    };

    // CPU reference: the VERSE baseline trained on what GOSH trains
    // (adjacency similarity), full thread team.
    double cpu_reference;
    {
      api::Options options;
      options.backend = "verse-cpu";
      options.train().dim = dim;
      options.gosh.total_epochs = epochs;
      options.verse_similarity = "adjacency";
      const api::EmbedResult result = must_embed(g, options);
      cpu_reference = result.total_seconds;
      record_rung("CPU (multi-core)", result);
    }

    auto gosh_variant = [&](const char* rung, bool coarsen, bool naive,
                            unsigned coarsen_threads,
                            simt::MetricsSnapshot* metrics,
                            double* coarsen_seconds) {
      api::Options options;
      options.backend = "device";
      if (!coarsen) {
        if (api::Status status = options.set("preset", "nocoarse");
            !status.is_ok()) {
          std::fprintf(stderr, "error: %s\n", status.to_string().c_str());
          std::exit(1);
        }
      }
      options.train().dim = dim;
      options.train().naive_kernel = naive;
      options.gosh.total_epochs = epochs;
      options.gosh.coarsening.threads = coarsen_threads;
      options.device.memory_bytes = device_bytes;
      const api::EmbedResult result = must_embed(g, options);
      record_rung(rung, result);
      record(rung, "level0_blocked_parts",
             result.levels.empty() ? 0 : result.levels[0].blocked_parts,
             "count");
      if (metrics != nullptr) *metrics = result.device_metrics;
      if (coarsen_seconds != nullptr) {
        *coarsen_seconds = result.coarsening_seconds;
      }
      return result.total_seconds;
    };

    simt::MetricsSnapshot naive_metrics, optimized_metrics;
    double seq_coarsen_s = 0.0, par_coarsen_s = 0.0;
    const double naive_gpu =
        gosh_variant("Naive GPU", false, true, 1, &naive_metrics, nullptr);
    const double optimized_gpu = gosh_variant(
        "Optimized GPU", false, false, 1, &optimized_metrics, nullptr);
    const double seq_coarse =
        gosh_variant("+ Sequential Coarsening", true, false, 1, nullptr,
                     &seq_coarsen_s);
    const double par_coarse = gosh_variant(
        "+ Parallel Coarsening (GOSH)", true, false,
        std::thread::hardware_concurrency(), nullptr, &par_coarsen_s);

    std::printf("  %-30s %10s %9s\n", "version", "time(s)", "speedup");
    std::printf("  %-30s %10.2f %8.2fx\n", "CPU (multi-core)", cpu_reference,
                1.0);
    std::printf("  %-30s %10.2f %8.2fx\n", "Naive GPU", naive_gpu,
                cpu_reference / naive_gpu);
    std::printf("  %-30s %10.2f %8.2fx\n", "Optimized GPU", optimized_gpu,
                cpu_reference / optimized_gpu);
    std::printf("  %-30s %10.2f %8.2fx   (coarsening %.3f s)\n",
                "+ Sequential Coarsening", seq_coarse,
                cpu_reference / seq_coarse, seq_coarsen_s);
    std::printf("  %-30s %10.2f %8.2fx   (coarsening %.3f s)\n",
                "+ Parallel Coarsening (GOSH)", par_coarse,
                cpu_reference / par_coarse, par_coarsen_s);
    // The naive->optimized step on real hardware comes from coalescing and
    // shared-memory staging; the emulator reports the modeled traffic so
    // the effect is visible even where CPU caches mask the time cost.
    std::printf("  modeled global accesses: naive %llu vs optimized %llu "
                "(%.2fx fewer; staged into shared: %llu)\n\n",
                static_cast<unsigned long long>(naive_metrics.global_accesses),
                static_cast<unsigned long long>(
                    optimized_metrics.global_accesses),
                static_cast<double>(naive_metrics.global_accesses) /
                    static_cast<double>(optimized_metrics.global_accesses),
                static_cast<unsigned long long>(
                    optimized_metrics.shared_accesses));
  }
  if (!json_path.empty() &&
      !bench::write_report(json_path, "fig4_breakdown", records,
                           bench::run_id_flag(argc, argv))) {
    return 1;
  }
  return 0;
}
