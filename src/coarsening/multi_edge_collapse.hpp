// MultiEdgeCollapse — the paper's coarsening algorithm (Section 3.2,
// Algorithm 4), with an output that does not depend on the thread count.
//
// One level works in three O(|V|+|E|) stages:
//   1. order vertices by descending degree (counting sort);
//   2. map: walk the order; an unmapped vertex v founds a cluster and pulls
//      every unmapped neighbour u in, *unless* both deg(v) and deg(u)
//      exceed delta = |E|/|V| (the hub-exclusion rule that stops two giant
//      hubs from merging);
//   3. build the coarse graph: bucket vertices by cluster, emit each
//      cluster's distinct external neighbour clusters (multi-edges collapse,
//      intra-cluster edges vanish).
//
// The walk of stage 2 makes v a hub (a cluster founder) exactly when no
// earlier neighbour it may merge with is one, so the hubs are the
// lexicographically-first maximal independent set of those pairs in that
// order (Blelloch, Fineman, Gibbons, Shun, PPoPP 2012), and map_level
// decides it in parallel rounds. Deviation from the paper: Section 3.2.2
// claims vertices by CAS races instead, so its hierarchy depends on thread
// timing (its Table 4 treats tau=1 and tau=32 as one quality class).
// Coarse-graph construction gives each worker a private edge region merged
// by prefix-sum scan, as in Section 3.2.2.
#pragma once

#include <cstddef>
#include <vector>

#include "gosh/coarsening/hierarchy.hpp"
#include "gosh/graph/graph.hpp"

namespace gosh::coarsen {

struct CoarseningConfig {
  /// Stop once a level has fewer vertices than this (paper default 100).
  vid_t threshold = 100;
  /// Hard cap on levels — a safety net; the shrink-stall check below is
  /// what normally terminates degenerate inputs.
  unsigned max_levels = 64;
  /// Abort coarsening when a level shrinks less than this fraction; keeps
  /// expander-like graphs from looping at |V_{i+1}| == |V_i|.
  double min_shrink = 0.01;
  /// Workers for the map and the coarse-graph build; 0 => every worker.
  unsigned threads = 0;
};

/// Result of mapping one level.
struct LevelMapping {
  /// Cluster id per vertex, in [0, num_clusters).
  std::vector<vid_t> map;
  vid_t num_clusters = 0;
};

/// Stage 2: Algorithm 4's mapping, on `threads` workers (0 => every
/// worker). The output does not depend on `threads`.
LevelMapping map_level(const graph::Graph& graph, unsigned threads);

/// Stage 3: coarse CSR from a level mapping. Sorted, dedup'd adjacency;
/// intra-cluster edges dropped. `threads` as in CoarseningConfig.
graph::Graph build_coarse_graph(const graph::Graph& graph,
                                const LevelMapping& mapping, unsigned threads);

/// Full multilevel driver: iterates map+build until the threshold, shrink
/// stall, or level cap is hit. Level 0 is `original`, borrowed from an
/// lvalue (it must outlive the hierarchy) and owned from an rvalue.
Hierarchy multi_edge_collapse(const graph::Graph& original,
                              const CoarseningConfig& config = {});
Hierarchy multi_edge_collapse(graph::Graph&& original,
                              const CoarseningConfig& config = {});

}  // namespace gosh::coarsen
