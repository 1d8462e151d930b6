// Table 5 — MILE vs GOSH coarsening on the com-orkut analog: per-level
// time and |V_i| for the same number of levels.
//
//   bench_table5_mile [--medium-scale N] [--levels L] [--threads T]
//
// Coarsening-only comparison (no training), so the two coarsening
// algorithms are driven directly; flags and the banner come from gosh::api.
#include <algorithm>
#include <cstdio>
#include <thread>
#include <vector>

#include "gosh/api/api.hpp"
#include "gosh/coarsening/mile_matching.hpp"
#include "gosh/coarsening/multi_edge_collapse.hpp"

int main(int argc, char** argv) {
  using namespace gosh;
  const unsigned scale = static_cast<unsigned>(
      api::require_flag_unsigned(argc, argv, "--medium-scale", 14));
  const unsigned levels = static_cast<unsigned>(
      api::require_flag_unsigned(argc, argv, "--levels", 8));
  const unsigned threads = static_cast<unsigned>(api::require_flag_unsigned(
      argc, argv, "--threads", std::thread::hardware_concurrency()));

  api::print_bench_banner("Table 5: MILE vs GOSH coarsening (com-orkut analog)");
  const auto spec = graph::find_dataset("com-orkut", scale, scale + 2);
  const graph::Graph g = graph::generate_dataset(spec);
  std::printf("analog: |V|=%u |E|=%llu, %u levels for both\n\n",
              g.num_vertices(),
              static_cast<unsigned long long>(g.num_edges_undirected()),
              levels);

  // --- MILE: fixed level count, per-level times from the hierarchy. ------
  const auto mile = coarsen::mile_coarsen(g, levels, 1);

  // --- GOSH: run level by level so per-level timing is visible. ----------
  struct GoshLevel {
    double seconds;
    vid_t vertices;
  };
  std::vector<GoshLevel> gosh_levels;
  {
    graph::Graph current = g;
    for (unsigned i = 0; i < levels && current.num_vertices() > 2; ++i) {
      WallTimer timer;
      const auto mapping = coarsen::map_level(current, threads);
      graph::Graph coarser =
          coarsen::build_coarse_graph(current, mapping, threads);
      gosh_levels.push_back({timer.seconds(), coarser.num_vertices()});
      current = std::move(coarser);
    }
  }

  std::printf("%5s | %12s %10s | %12s %10s\n", "i", "MILE time(s)",
              "MILE |Vi|", "GOSH time(s)", "GOSH |Vi|");
  std::printf("%5d | %12s %10u | %12s %10u\n", 0, "-", g.num_vertices(), "-",
              g.num_vertices());
  double mile_total = 0.0, gosh_total = 0.0;
  const std::size_t rows = std::max(mile.maps.size(), gosh_levels.size());
  for (std::size_t i = 0; i < rows; ++i) {
    char mile_time[32] = "-", mile_v[32] = "-";
    char gosh_time[32] = "-", gosh_v[32] = "-";
    if (i < mile.maps.size()) {
      std::snprintf(mile_time, sizeof(mile_time), "%.3f",
                    mile.level_seconds[i]);
      std::snprintf(mile_v, sizeof(mile_v), "%u",
                    mile.graphs[i + 1].num_vertices());
      mile_total += mile.level_seconds[i];
    }
    if (i < gosh_levels.size()) {
      std::snprintf(gosh_time, sizeof(gosh_time), "%.3f",
                    gosh_levels[i].seconds);
      std::snprintf(gosh_v, sizeof(gosh_v), "%u", gosh_levels[i].vertices);
      gosh_total += gosh_levels[i].seconds;
    }
    std::printf("%5zu | %12s %10s | %12s %10s\n", i + 1, mile_time, mile_v,
                gosh_time, gosh_v);
  }
  std::printf("%5s | %12.3f %10s | %12.3f %10s\n", "total", mile_total, "",
              gosh_total, "");
  std::printf("\nGOSH coarsening is %.1fx faster in total and shrinks far\n"
              "deeper per level (paper: 264x faster vs the Python MILE;\n"
              "our MILE is C++, so the time gap is smaller — the |Vi| shape\n"
              "is the fidelity check).\n",
              mile_total / gosh_total);
  return 0;
}
