// Table 6 — link prediction on the medium-scale analogs: execution time,
// speedup over VERSE, and AUCROC for VERSE, MILE, GraphVite-like
// (LINE-on-device, fast/slow) and GOSH (fast/normal/slow/NoCoarse).
//
//   bench_table6_medium [--medium-scale N] [--dim D] [--datasets a,b,...]
//                       [--epoch-scale PCT] [--json FILE] [--run-id ID]
//
// With --json, every GOSH row adds records to a bench report (report.hpp):
// wall seconds, process CPU seconds, trained samples per CPU-second, AUC
// and the train seconds of each level. A sample is one positive or
// negative update: passes x |V| x (1 + ns) on a resident level, rotations
// x B x K x |V| x (1 + ns) on a partitioned one.
//
// Every row is produced through the gosh::api facade: each tool is just a
// backend name in the registry plus an Options tweak, so adding a method
// to this table means registering a backend, not writing a harness.
//
// --epoch-scale rescales every tool's epoch budget (default 100 = the
// paper's budgets; lower it for quick smoke runs — but note VERSE's low
// learning rate genuinely needs the full budget to converge).
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "gosh/api/api.hpp"
#include "report.hpp"

namespace {

using namespace gosh;

struct Row {
  std::string label;
  double seconds = 0.0;
  double auc = 0.0;
  bool failed = false;
  double cpu_seconds = 0.0;
  double samples = 0.0;
  std::vector<double> level_seconds;
};

void print_rows(const std::vector<Row>& rows) {
  // Speedups are relative to the VERSE row; if it failed there is no
  // reference, so the column prints "-" instead of inf.
  const bool have_reference =
      !rows.front().failed && rows.front().seconds > 0.0;
  const double verse_time = rows.front().seconds;
  for (const auto& row : rows) {
    if (row.failed) {
      std::printf("  %-16s %10s %9s %10s\n", row.label.c_str(), "-", "-",
                  "FAILED");
      continue;
    }
    if (have_reference && row.seconds > 0.0) {
      std::printf("  %-16s %10.2f %8.2fx %9.2f%%\n", row.label.c_str(),
                  row.seconds, verse_time / row.seconds, 100.0 * row.auc);
    } else {
      std::printf("  %-16s %10.2f %9s %9.2f%%\n", row.label.c_str(),
                  row.seconds, "-", 100.0 * row.auc);
    }
  }
}

/// One table cell: run `options` through the facade on split.train and
/// evaluate link prediction. An out_of_memory Status becomes a FAILED row
/// (the paper's GraphVite rows on devices it does not fit).
Row measure(const std::string& label, const api::Options& options,
            const graph::LinkPredictionSplit& split) {
  const double cpu_before = bench::process_cpu_seconds();
  auto embedded = api::embed(split.train, options);
  const double cpu_seconds = bench::process_cpu_seconds() - cpu_before;
  if (!embedded.ok()) {
    std::fprintf(stderr, "  %s: %s\n", label.c_str(),
                 embedded.status().to_string().c_str());
    Row failed;
    failed.label = label;
    failed.failed = true;
    return failed;
  }
  const api::EmbedResult& result = embedded.value();
  const auto report = eval::evaluate_link_prediction(
      result.embedding, split,
      api::bench_eval_options(split.train.num_edges_undirected()));
  Row row;
  row.label = label;
  row.seconds = result.total_seconds;
  row.auc = report.auc_roc;
  row.cpu_seconds = cpu_seconds;
  row.samples = bench::trained_samples(result, options);
  for (const embedding::LevelReport& level : result.levels) {
    row.level_seconds.push_back(level.train_seconds);
  }
  return row;
}

/// The --json records of one dataset's GOSH rows.
void add_records(const std::string& dataset, unsigned scale, unsigned dim,
                 const std::vector<Row>& rows,
                 std::vector<bench::Record>& records) {
  const std::string isa(simd::isa_name(simd::active_isa()));
  const unsigned threads = std::thread::hardware_concurrency();
  for (const Row& row : rows) {
    if (row.failed || row.label.rfind("Gosh-", 0) != 0) continue;
    auto record = [&](const char* metric, double value, const char* unit,
                      const std::vector<std::pair<std::string, std::string>>&
                          extra = {}) {
      bench::Record r;
      r.name = std::string("table6/") + metric;
      r.params = {{"dataset", dataset},
                  {"scale", std::to_string(scale)},
                  {"dim", std::to_string(dim)},
                  {"algorithm", row.label}};
      r.params.insert(r.params.end(), extra.begin(), extra.end());
      r.value = value;
      r.unit = unit;
      r.isa = isa;
      r.threads = threads;
      records.push_back(std::move(r));
    };
    record("wall_s", row.seconds, "s");
    record("cpu_s", row.cpu_seconds, "s");
    record("samples_per_cpu_s",
           row.cpu_seconds > 0.0 ? row.samples / row.cpu_seconds : 0.0,
           "1/s");
    record("auc", row.auc, "ratio");
    for (std::size_t level = 0; level < row.level_seconds.size(); ++level) {
      record("level_train_s", row.level_seconds[level], "s",
             {{"level", std::to_string(level)}});
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  const unsigned scale = static_cast<unsigned>(
      api::require_flag_unsigned(argc, argv, "--medium-scale", 12));
  const unsigned dim = static_cast<unsigned>(
      api::require_flag_unsigned(argc, argv, "--dim", 32));
  const double epoch_scale =
      api::require_flag_unsigned(argc, argv, "--epoch-scale", 100) / 100.0;
  const auto names = api::flag_list(
      argc, argv, "--datasets",
      {"com-dblp", "com-amazon", "youtube", "soc-pokec", "wiki-topcats",
       "com-orkut", "com-lj", "soc-LiveJournal"});

  const std::string json_path = bench::json_flag(argc, argv);
  std::vector<bench::Record> records;

  api::print_bench_banner("Table 6: link prediction on medium-scale analogs");
  std::printf("dim=%u, epoch budgets at %.0f%% of the paper's, tau=%u\n\n",
              dim, 100.0 * epoch_scale, std::thread::hardware_concurrency());

  const auto scaled = [&](unsigned epochs) {
    return std::max(10u, static_cast<unsigned>(epochs * epoch_scale));
  };
  const std::size_t device_bytes = std::size_t{512} << 20;

  for (const auto& name : names) {
    const auto spec = graph::find_dataset(name, scale, scale + 3);
    const graph::Graph g = graph::generate_dataset(spec);
    const auto split = graph::split_for_link_prediction(g, {.seed = 1});
    std::printf("%s: analog |V|=%u |E|=%llu\n", name.c_str(),
                split.train.num_vertices(),
                static_cast<unsigned long long>(
                    split.train.num_edges_undirected()));

    api::Options base;
    base.train().dim = dim;
    base.device.memory_bytes = device_bytes;

    std::vector<Row> rows;
    // --- VERSE (the 1.00x reference): paper PPR similarity, full budget.
    {
      api::Options options = base;
      options.backend = "verse-cpu";
      options.gosh.total_epochs = scaled(1000);
      rows.push_back(measure("Verse", options, split));
    }
    // --- MILE. 6 levels keeps its coarsest near the paper's relative
    // --- granularity at these analog scales; deeper matching
    // --- over-coarsens (its Table 6 weakness, visible here too).
    {
      api::Options options = base;
      options.backend = "mile";
      options.gosh.total_epochs = scaled(600);
      options.mile_levels = 6;
      options.mile_refinement_rounds = 1;
      rows.push_back(measure("Mile", options, split));
    }
    // --- GraphVite-like (LINE on device), fast and slow. -----------------
    for (const auto& [label, epochs] : {std::pair{"Graphvite-fast", 600u},
                                        std::pair{"Graphvite-slow", 1000u}}) {
      api::Options options = base;
      options.backend = "line-device";
      options.gosh.total_epochs = scaled(epochs);
      options.train().learning_rate = 0.025f;
      rows.push_back(measure(label, options, split));
    }
    // --- GOSH presets, each just an Options::preset value. ---------------
    for (const char* preset : {"fast", "normal", "slow", "nocoarse"}) {
      api::Options options = base;
      if (api::Status status = options.set("preset", preset);
          !status.is_ok()) {
        std::fprintf(stderr, "error: %s\n", status.to_string().c_str());
        return 1;
      }
      options.train().dim = dim;
      options.backend = "auto";
      options.gosh.total_epochs = scaled(options.gosh.total_epochs);
      const std::string label =
          std::strcmp(preset, "nocoarse") == 0
              ? "Gosh-NoCoarse"
              : std::string("Gosh-") + preset;
      rows.push_back(measure(label, options, split));
    }

    std::printf("  %-16s %10s %9s %10s\n", "algorithm", "time(s)", "speedup",
                "AUCROC");
    print_rows(rows);
    std::printf("\n");
    add_records(name, scale, dim, rows, records);
  }
  if (!json_path.empty() &&
      !bench::write_report(json_path, "table6_medium", records,
                           bench::run_id_flag(argc, argv))) {
    return 1;
  }
  return 0;
}
