// MILE-style coarsening baseline (Liang et al., arXiv:1802.09612).
//
// MILE coarsens by *matching* (each super vertex merges at most two fine
// vertices per level, plus structurally-equivalent groups), in contrast to
// GOSH's clustering (a super vertex absorbs a whole neighbourhood). Two
// passes per level, following the MILE paper:
//   1. SEM — structural equivalence matching: vertices with identical
//      neighbourhoods collapse together;
//   2. NHEM — normalized heavy-edge matching: an unmatched vertex matches
//      its unmatched neighbour with maximal w(u,v) / sqrt(D(u) D(v)), where
//      edge weights accumulate as the graph coarsens.
//
// Because matching at best halves |V| per level while clustering shrinks
// 4-5x, MILE needs far more levels/time for the same reduction — the
// behaviour Table 5 of the GOSH paper quantifies. This reimplementation is
// C++ (the original is Python), so absolute per-level times are closer to
// GOSH's than in the paper; README.md, "Bench harnesses", discusses the gap.
#pragma once

#include <cstddef>
#include <vector>

#include "gosh/graph/graph.hpp"

namespace gosh::coarsen {

/// Edge-weighted CSR used only by the MILE pipeline (GOSH itself is
/// unweighted end to end).
struct WeightedGraph {
  std::vector<eid_t> xadj;
  std::vector<vid_t> adj;
  std::vector<float> weights;       ///< parallel to adj
  std::vector<float> vertex_weight; ///< mass of each super vertex

  vid_t num_vertices() const noexcept {
    return xadj.empty() ? 0 : static_cast<vid_t>(xadj.size() - 1);
  }
  eid_t num_arcs() const noexcept { return xadj.empty() ? 0 : xadj.back(); }

  /// Weighted degree D(v) = sum of incident edge weights.
  float weighted_degree(vid_t v) const;

  /// Forgets weights; used to hand a level to the (unweighted) trainer.
  graph::Graph unweighted() const;

  static WeightedGraph from_graph(const graph::Graph& graph);
};

struct MileLevel {
  std::vector<vid_t> map;  ///< fine vertex -> super vertex, in [0, K)
  WeightedGraph coarse;
};

/// One SEM+NHEM level. Deterministic in (graph, seed): the NHEM visit order
/// is a seeded shuffle, as MILE uses random visiting order.
MileLevel mile_coarsen_level(const WeightedGraph& graph, std::uint64_t seed);

struct MileHierarchy {
  std::vector<WeightedGraph> graphs;         ///< [0] = original
  std::vector<std::vector<vid_t>> maps;      ///< maps[i]: V_i -> V_{i+1}
  std::vector<double> level_seconds;         ///< per-level coarsening time
};

/// Runs `levels` coarsening levels (MILE has no stopping criterion; the
/// paper's Table 5 fixes 8 levels for both tools).
MileHierarchy mile_coarsen(const graph::Graph& original, unsigned levels,
                           std::uint64_t seed);

}  // namespace gosh::coarsen
