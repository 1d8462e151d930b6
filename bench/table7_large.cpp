// Table 7 — link prediction on the large-scale analogs, driven through the
// gosh::api facade: the auto policy routes GOSH to the "largegraph"
// backend (device memory capped well below the matrix), the GraphVite-like
// baseline fails with an out_of_memory Status, and VERSE runs only where
// the paper's did (soc-sinaweibo) unless --verse-all.
//
//   bench_table7_large [--large-scale N] [--dim D] [--device-kib K]
//                      [--epoch-scale PCT]
//                      [--datasets a,b,...] [--verse-all]
//                      [--json FILE] [--run-id ID]
//
// With --json, every GOSH row adds records to a bench report (report.hpp):
// wall seconds, process CPU seconds, trained samples per CPU-second, AUC,
// and level 0's blocked_parts (S of its pair kernels when it trained
// partitioned).
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "gosh/api/api.hpp"
#include "report.hpp"

namespace {

using namespace gosh;

eval::LinkPredictionOptions sgd_eval() {
  eval::LinkPredictionOptions options;
  options.logreg.solver = eval::LogRegConfig::Solver::kSgd;
  options.logreg.max_iterations = 10;
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  const unsigned scale = static_cast<unsigned>(
      api::require_flag_unsigned(argc, argv, "--large-scale", 13));
  const unsigned dim = static_cast<unsigned>(
      api::require_flag_unsigned(argc, argv, "--dim", 32));
  const std::size_t device_bytes =
      static_cast<std::size_t>(
          api::require_flag_unsigned(argc, argv, "--device-kib", 2048))
      << 10;
  const double epoch_scale =
      api::require_flag_unsigned(argc, argv, "--epoch-scale", 50) / 100.0;
  const bool verse_all = api::flag_present(argc, argv, "--verse-all");
  const auto names = api::flag_list(
      argc, argv, "--datasets",
      {"hyperlink2012", "soc-sinaweibo", "twitter_rv", "com-friendster"});

  const std::string json_path = bench::json_flag(argc, argv);
  std::vector<bench::Record> records;
  const std::string isa(simd::isa_name(simd::active_isa()));

  api::print_bench_banner("Table 7: link prediction on large-scale analogs");
  std::printf("dim=%u, device capped at %zu KiB (matrix exceeds it => the\n"
              "auto policy picks the \"largegraph\" backend), tau=%u\n\n",
              dim, device_bytes >> 10, std::thread::hardware_concurrency());

  for (const auto& name : names) {
    const auto spec = graph::find_dataset(name, 12, scale);
    const graph::Graph g = graph::generate_dataset(spec);
    const auto split = graph::split_for_link_prediction(g, {.seed = 1});
    const std::size_t matrix_kib =
        embedding::EmbeddingMatrix::bytes_for(split.train.num_vertices(),
                                              dim) >>
        10;
    std::printf("%s: analog |V|=%u |E|=%llu (matrix %zu KiB)\n", name.c_str(),
                split.train.num_vertices(),
                static_cast<unsigned long long>(
                    split.train.num_edges_undirected()),
                matrix_kib);
    std::printf("  %-16s %10s %10s\n", "algorithm", "time(s)", "AUCROC");

    api::Options base;
    base.train().dim = dim;
    base.device.memory_bytes = device_bytes;

    // VERSE: the paper reports Timeout for all but soc-sinaweibo, where a
    // full (expensive) run slightly beats Gosh-slow — reproduced here by
    // giving VERSE its full budget while GOSH runs the e_large presets.
    if (verse_all || name == "soc-sinaweibo") {
      api::Options options = base;
      options.backend = "verse-cpu";
      options.gosh.total_epochs = 600;  // paper PPR similarity is the default
      auto embedded = api::embed(split.train, options);
      if (embedded.ok()) {
        const double seconds = embedded.value().total_seconds;
        const auto report = eval::evaluate_link_prediction(
            embedded.value().embedding, split, sgd_eval());
        std::printf("  %-16s %10.2f %9.2f%%\n", "Verse", seconds,
                    100.0 * report.auc_roc);
      } else {
        std::printf("  %-16s %10s %10s  (%s)\n", "Verse", "-", "FAILED",
                    embedded.status().to_string().c_str());
      }
    } else {
      std::printf("  %-16s %10s %10s  (as in the paper)\n", "Verse",
                  "Timeout", "-");
    }

    // GraphVite-like: must come back as an out_of_memory Status at this
    // device size — the facade's translation of the paper's OOM row.
    {
      api::Options options = base;
      options.backend = "line-device";
      options.gosh.total_epochs = 10;
      auto embedded = api::embed(split.train, options);
      if (!embedded.ok() &&
          embedded.status().code() == api::StatusCode::kOutOfMemory) {
        std::printf("  %-16s %10s %10s  (single-GPU memory limit)\n",
                    "Graphvite-like", "OOM", "-");
      } else if (embedded.ok()) {
        std::printf("  %-16s %10s %10s\n", "Graphvite-like", "?",
                    "unexpectedly fit");
      } else {
        std::printf("  %-16s %10s %10s  (%s)\n", "Graphvite-like", "-",
                    "FAILED", embedded.status().to_string().c_str());
      }
    }

    // GOSH presets with the e_large budgets; "auto" resolves to the
    // partitioned backend because the matrix exceeds the device budget.
    for (const char* preset : {"fast", "normal", "slow"}) {
      api::Options options = base;
      if (api::Status status = options.set("preset", preset);
          !status.is_ok()) {
        std::fprintf(stderr, "error: %s\n", status.to_string().c_str());
        return 1;
      }
      if (api::Status status = options.set("large-scale", "true");
          !status.is_ok()) {
        std::fprintf(stderr, "error: %s\n", status.to_string().c_str());
        return 1;
      }
      options.train().dim = dim;
      options.gosh.total_epochs = std::max(
          10u, static_cast<unsigned>(options.gosh.total_epochs * epoch_scale));
      const double cpu_before = bench::process_cpu_seconds();
      auto embedded = api::embed(split.train, options);
      const double cpu_seconds = bench::process_cpu_seconds() - cpu_before;
      if (!embedded.ok()) {
        std::printf("  Gosh-%-11s %10s %10s  (%s)\n", preset, "-", "FAILED",
                    embedded.status().to_string().c_str());
        continue;
      }
      const api::EmbedResult& result = embedded.value();
      const auto report =
          eval::evaluate_link_prediction(result.embedding, split, sgd_eval());
      std::printf("  Gosh-%-11s %10.2f %9.2f%%\n", preset,
                  result.total_seconds, 100.0 * report.auc_roc);

      const auto record = [&](const char* metric, double value,
                              const char* unit) {
        bench::Record r;
        r.name = std::string("table7/") + metric;
        r.params = {{"dataset", name},
                    {"scale", std::to_string(scale)},
                    {"dim", std::to_string(dim)},
                    {"algorithm", std::string("Gosh-") + preset}};
        r.value = value;
        r.unit = unit;
        r.isa = isa;
        r.threads = std::thread::hardware_concurrency();
        records.push_back(std::move(r));
      };
      const double samples = bench::trained_samples(result, options);
      record("wall_s", result.total_seconds, "s");
      record("cpu_s", cpu_seconds, "s");
      record("samples_per_cpu_s",
             cpu_seconds > 0.0 ? samples / cpu_seconds : 0.0, "1/s");
      record("auc", report.auc_roc, "ratio");
      record("level0_blocked_parts",
             result.levels.empty() ? 0 : result.levels[0].blocked_parts,
             "count");
    }
    std::printf("\n");
  }
  if (!json_path.empty() &&
      !bench::write_report(json_path, "table7_large", records,
                           bench::run_id_flag(argc, argv))) {
    return 1;
  }
  return 0;
}
