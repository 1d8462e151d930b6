// Table 4 — coarsening on one worker vs on T workers on the large-scale
// analogs: execution time, speedup, number of levels D, coarsest size
// |V_{D-1}|.
//
//   bench_table4_coarsening [--large-scale N] [--threads T] [--runs R]
//                           [--json FILE] [--run-id ID]
//
// Coarsening is measured in isolation (no training), so this harness uses
// the coarsening layer directly; flags and the banner come from gosh::api.
// The map is Algorithm 4's at any thread count, so the harness compares
// every level's map at tau=1 and tau=T and exits 1 on any difference. With
// --json, each analog adds records to a bench report (report.hpp): best-of-R
// seconds, D and |V_{D-1}| at each tau.
#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "gosh/api/api.hpp"
#include "gosh/coarsening/multi_edge_collapse.hpp"
#include "report.hpp"

int main(int argc, char** argv) {
  using namespace gosh;
  const unsigned scale = static_cast<unsigned>(
      api::require_flag_unsigned(argc, argv, "--large-scale", 16));
  const unsigned threads = static_cast<unsigned>(api::require_flag_unsigned(
      argc, argv, "--threads", std::thread::hardware_concurrency()));
  const unsigned runs = static_cast<unsigned>(
      api::require_flag_unsigned(argc, argv, "--runs", 3));

  const std::string json_path = bench::json_flag(argc, argv);
  std::vector<bench::Record> records;
  const std::string isa(simd::isa_name(simd::active_isa()));

  api::print_bench_banner(
      "Table 4: coarsening on 1 vs T workers (large analogs)");
  std::printf("%-16s %4s %10s %9s %4s %10s\n", "graph", "tau", "time(s)",
              "speedup", "D", "|V_{D-1}|");

  bool identical = true;
  for (const auto& spec : graph::table2_datasets(13, scale)) {
    if (!spec.large_scale) continue;
    const graph::Graph g = graph::generate_dataset(spec);

    // Best-of-`runs` wall seconds at `tau`; the hierarchy of the last run.
    const auto run_coarsening = [&](unsigned tau, coarsen::Hierarchy* last) {
      double best = 1e100;
      for (unsigned r = 0; r < runs; ++r) {
        coarsen::CoarseningConfig config;
        config.threads = tau;
        WallTimer timer;
        coarsen::Hierarchy h = coarsen::multi_edge_collapse(g, config);
        best = std::min(best, timer.seconds());
        *last = std::move(h);
      }
      return best;
    };
    // Seconds, D and |V_{D-1}| at one tau.
    const auto record = [&](unsigned tau, double seconds,
                            const coarsen::Hierarchy& h) {
      const auto add = [&](const char* metric, double value,
                           const char* unit) {
        bench::Record r;
        r.name = std::string("table4/") + metric;
        r.params = {{"dataset", spec.name},
                    {"scale", std::to_string(scale)},
                    {"tau", std::to_string(tau)}};
        r.value = value;
        r.unit = unit;
        r.isa = isa;
        r.threads = tau;
        records.push_back(std::move(r));
      };
      add("seconds", seconds, "s");
      add("levels", static_cast<double>(h.depth()), "count");
      add("coarsest_vertices",
          static_cast<double>(h.coarsest().num_vertices()), "count");
    };

    coarsen::Hierarchy seq_h, par_h;
    const double seq = run_coarsening(1, &seq_h);
    const double par = run_coarsening(threads, &par_h);
    bool same = seq_h.depth() == par_h.depth();
    for (std::size_t i = 0; same && i + 1 < seq_h.depth(); ++i) {
      same = seq_h.map(i) == par_h.map(i);
    }
    if (!same) {
      std::fprintf(stderr, "error: %s: the tau=1 and tau=%u hierarchies "
                   "differ\n", spec.name.c_str(), threads);
      identical = false;
    }

    std::printf("%-16s %4u %10.3f %9s %4zu %10u\n", spec.name.c_str(), 1u,
                seq, "-", seq_h.depth(), seq_h.coarsest().num_vertices());
    std::printf("%-16s %4u %10.3f %8.2fx %4zu %10u\n", "", threads, par,
                seq / par, par_h.depth(), par_h.coarsest().num_vertices());
    record(1, seq, seq_h);
    record(threads, par, par_h);
  }
  std::printf("\n(paper: tau=32 gives 5.8-10.5x; here tau=%u on %u cores.\n"
              " The map is Algorithm 4's at any thread count, so the two\n"
              " hierarchies are identical by construction; every level's map\n"
              " was compared: %s)\n",
              threads, std::thread::hardware_concurrency(),
              identical ? "identical" : "DIFFERENT");
  if (!json_path.empty() &&
      !bench::write_report(json_path, "table4_coarsening", records,
                           bench::run_id_flag(argc, argv))) {
    return 1;
  }
  return identical ? 0 : 1;
}
