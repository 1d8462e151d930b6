// MultiEdgeCollapse invariants: mapping validity, the hub-exclusion rule,
// coarse-graph construction, hierarchy termination, and the contract that
// every level equals Algorithm 4's at any thread count.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "gosh/coarsening/multi_edge_collapse.hpp"
#include "gosh/coarsening/order.hpp"
#include "gosh/graph/builder.hpp"
#include "gosh/graph/generators.hpp"
#include "gosh/graph/ops.hpp"

namespace gosh::coarsen {
namespace {

/// Algorithm 4 as the paper states it: walk the degree order; an unmapped
/// vertex founds the next cluster and pulls in every unmapped neighbour
/// unless both degrees exceed delta = |E|/|V|.
LevelMapping algorithm4(const graph::Graph& g) {
  const double delta = g.average_degree();
  LevelMapping m;
  m.map.assign(g.num_vertices(), kInvalidVertex);
  for (const vid_t v : degree_order_descending(g)) {
    if (m.map[v] != kInvalidVertex) continue;
    m.map[v] = m.num_clusters;
    for (const vid_t u : g.neighbors(v)) {
      const bool eligible = g.degree(v) <= delta || g.degree(u) <= delta;
      if (eligible && m.map[u] == kInvalidVertex) m.map[u] = m.num_clusters;
    }
    ++m.num_clusters;
  }
  return m;
}

/// Two hubs (0 and 1) joined by an edge, each with 20 leaves; delta =
/// 82/42 ~ 1.95 and deg(0) = deg(1) = 21 > delta.
graph::Graph two_hubs() {
  std::vector<graph::Edge> edges = {{0, 1}};
  for (vid_t leaf = 2; leaf < 22; ++leaf) edges.push_back({0, leaf});
  for (vid_t leaf = 22; leaf < 42; ++leaf) edges.push_back({1, leaf});
  return graph::build_csr(42, std::move(edges));
}

/// Checks the structural contract of any level mapping.
void expect_valid_mapping(const graph::Graph& g, const LevelMapping& m) {
  ASSERT_EQ(m.map.size(), g.num_vertices());
  ASSERT_GT(m.num_clusters, 0u);
  std::set<vid_t> used;
  for (vid_t cluster : m.map) {
    ASSERT_NE(cluster, kInvalidVertex);  // everyone is mapped
    ASSERT_LT(cluster, m.num_clusters);
    used.insert(cluster);
  }
  EXPECT_EQ(used.size(), m.num_clusters);  // ids are contiguous [0, K)
}

/// Every cluster must be *connected through its hub*: members are the hub
/// or a direct neighbour of some member (weaker: cluster has >= 1 vertex).
/// We check the defining GOSH property — a non-singleton cluster contains
/// at least one vertex adjacent to every other member or the hub pattern —
/// by verifying each member has a neighbour inside the cluster.
void expect_clusters_locally_connected(const graph::Graph& g,
                                       const LevelMapping& m) {
  std::vector<unsigned> cluster_size(m.num_clusters, 0);
  for (vid_t v = 0; v < g.num_vertices(); ++v) cluster_size[m.map[v]]++;
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    if (cluster_size[m.map[v]] == 1) continue;
    bool has_internal_neighbor = false;
    for (vid_t u : g.neighbors(v)) {
      if (m.map[u] == m.map[v]) {
        has_internal_neighbor = true;
        break;
      }
    }
    EXPECT_TRUE(has_internal_neighbor) << "vertex " << v;
  }
}

// The MapSequential checks hold for map_level on one worker and on four.
TEST(MapSequential, StarCollapsesToOneCluster) {
  for (const unsigned threads : {1u, 4u}) {
    const auto m = map_level(graph::star_graph(50), threads);
    EXPECT_EQ(m.num_clusters, 1u) << threads << " threads";
  }
}

TEST(MapSequential, CycleShrinksByClusters) {
  // On a cycle every degree equals delta = 2, so the hub-exclusion rule
  // admits every merge and clusters absorb both neighbours of their seed:
  // roughly |V|/3 clusters.
  const auto g = graph::cycle_graph(99);
  for (const unsigned threads : {1u, 4u}) {
    const auto m = map_level(g, threads);
    expect_valid_mapping(g, m);
    EXPECT_LT(m.num_clusters, 55u) << threads << " threads";
    EXPECT_GE(m.num_clusters, 33u) << threads << " threads";
  }
}

TEST(MapSequential, PathStallsOnHubExclusion) {
  // On a path delta = 2(n-1)/n < 2, so interior-interior merges (both
  // degree 2 > delta) are blocked: only the endpoints join a cluster.
  // This degenerate stall is exactly why the driver has the min_shrink
  // guard — and why the paper's Table 4 coarsest levels sit well above
  // the threshold of 100.
  for (const unsigned threads : {1u, 4u}) {
    const auto m = map_level(graph::path_graph(100), threads);
    EXPECT_EQ(m.num_clusters, 98u) << threads << " threads";
  }
}

TEST(MapSequential, HubExclusionRule) {
  // Without the rule the two hubs merge into one cluster; with it they
  // must not.
  const graph::Graph g = two_hubs();
  for (const unsigned threads : {1u, 4u}) {
    const auto m = map_level(g, threads);
    EXPECT_NE(m.map[0], m.map[1])
        << "two hubs merged despite the rule at " << threads << " threads";
  }
}

TEST(MapSequential, LeavesJoinHubs) {
  const auto g = graph::star_graph(20);
  for (const unsigned threads : {1u, 4u}) {
    const auto m = map_level(g, threads);
    for (vid_t v = 1; v < 20; ++v) EXPECT_EQ(m.map[v], m.map[0]);
  }
}

TEST(MapSequential, Deterministic) {
  graph::Graph g = graph::rmat(10, 4000, 9);
  const auto a = map_level(g, 1);
  const auto b = map_level(g, 1);
  const auto c = map_level(g, 4);
  EXPECT_EQ(a.map, b.map);
  EXPECT_EQ(a.num_clusters, b.num_clusters);
  EXPECT_EQ(a.map, c.map);
  EXPECT_EQ(a.num_clusters, c.num_clusters);
}

class MapValidityTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MapValidityTest, SequentialInvariantsOnRmat) {
  graph::Graph g = graph::rmat(11, 8000, GetParam());
  const auto m = map_level(g, 1);
  expect_valid_mapping(g, m);
  expect_clusters_locally_connected(g, m);
}

TEST_P(MapValidityTest, ParallelInvariantsOnRmat) {
  graph::Graph g = graph::rmat(11, 8000, GetParam());
  const auto m = map_level(g, 4);
  expect_valid_mapping(g, m);
  expect_clusters_locally_connected(g, m);
}

TEST_P(MapValidityTest, ParallelShrinkComparableToSequential) {
  graph::Graph g = graph::rmat(11, 8000, GetParam());
  const auto seq = map_level(g, 1);
  const auto par = map_level(g, 4);
  // One map at any thread count, not just one quality class.
  EXPECT_EQ(par.num_clusters, seq.num_clusters);
  EXPECT_EQ(par.map, seq.map);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MapValidityTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(CoarseGraph, CollapsesMultiEdgesAndLoops) {
  // Two triangles bridged: clusters joining a triangle produce multi-edges
  // that must collapse to one, and intra-cluster edges must vanish.
  graph::Graph g = graph::build_csr(
      6, {{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}, {2, 3}});
  LevelMapping m;
  m.map = {0, 0, 0, 1, 1, 1};
  m.num_clusters = 2;
  graph::Graph coarse = build_coarse_graph(g, m, 1);
  EXPECT_EQ(coarse.num_vertices(), 2u);
  EXPECT_EQ(coarse.num_arcs(), 2u);  // one undirected edge
  EXPECT_TRUE(graph::has_arc(coarse, 0, 1));
  for (vid_t v = 0; v < 2; ++v) EXPECT_FALSE(graph::has_arc(coarse, v, v));
}

TEST(CoarseGraph, PreservesInterClusterConnectivity) {
  graph::Graph g = graph::rmat(9, 2000, 12);
  const auto m = map_level(g, 1);
  graph::Graph coarse = build_coarse_graph(g, m, 1);
  // Exhaustive cross-check: coarse arc (a,b) exists iff some fine arc
  // crosses the (a,b) cluster pair.
  std::set<std::pair<vid_t, vid_t>> expected;
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    for (vid_t u : g.neighbors(v)) {
      if (m.map[v] != m.map[u]) expected.insert({m.map[v], m.map[u]});
    }
  }
  std::set<std::pair<vid_t, vid_t>> actual;
  for (vid_t c = 0; c < coarse.num_vertices(); ++c) {
    for (vid_t b : coarse.neighbors(c)) actual.insert({c, b});
  }
  EXPECT_EQ(expected, actual);
}

TEST(CoarseGraph, ParallelMatchesSequentialConstruction) {
  graph::Graph g = graph::rmat(10, 4000, 13);
  const auto m = map_level(g, 1);
  graph::Graph seq = build_coarse_graph(g, m, 1);
  graph::Graph par = build_coarse_graph(g, m, 4);
  EXPECT_EQ(seq, par);  // same mapping => identical CSR
}

TEST(Hierarchy, StopsAtThresholdOnClusteredGraph) {
  // LFR-style graphs coarsen deep, so the threshold (not the stall guard)
  // terminates — the path the paper's Algorithm 4 describes.
  graph::LfrParams params;
  params.average_degree = 12.0;
  params.communities = 64;
  CoarseningConfig config;
  config.threshold = 100;
  const auto h =
      multi_edge_collapse(graph::lfr_like(4096, params, 14), config);
  EXPECT_GT(h.depth(), 2u);
  EXPECT_LE(h.coarsest().num_vertices(), 100u * 4);  // overshoot bounded
  // Every level above the last must be above the threshold.
  for (std::size_t i = 0; i + 1 < h.depth(); ++i) {
    EXPECT_GT(h.graph(i).num_vertices(), 100u);
  }
}

TEST(Hierarchy, StallGuardBoundsCoarsestOnRandomGraph) {
  // Expander-like RMAT cores stop shrinking once all degrees cluster
  // around delta; the guard must stop coarsening with a sane hierarchy —
  // the paper's own Table 4 reports coarsest levels of 414-2411 vertices
  // with threshold 100, i.e. the same stall.
  CoarseningConfig config;
  config.threshold = 50;
  const auto h = multi_edge_collapse(graph::rmat(12, 30000, 14), config);
  EXPECT_GT(h.depth(), 1u);
  // How deep the stall lands is graph-dependent (RMAT cores stall around
  // 40% of |V|); the invariants are: meaningful total shrink and strict
  // per-level shrink.
  EXPECT_LT(h.coarsest().num_vertices(), 4096u * 3 / 4);
  for (std::size_t i = 0; i + 1 < h.depth(); ++i) {
    EXPECT_LT(h.graph(i + 1).num_vertices(), h.graph(i).num_vertices());
  }
}

TEST(Hierarchy, MapsComposeToCoarsest) {
  const auto h = multi_edge_collapse(graph::rmat(10, 5000, 15), {});
  const auto composed = h.composed_map(h.depth() - 1);
  for (vid_t target : composed) {
    EXPECT_LT(target, h.coarsest().num_vertices());
  }
}

TEST(Hierarchy, ShrinksEveryLevel) {
  const auto h = multi_edge_collapse(graph::rmat(11, 10000, 16), {});
  for (std::size_t i = 0; i + 1 < h.depth(); ++i) {
    EXPECT_LT(h.graph(i + 1).num_vertices(), h.graph(i).num_vertices());
    EXPECT_GT(h.shrink_rate(i), 0.0);
  }
}

TEST(Hierarchy, CliqueStallsGracefully) {
  // A clique cannot shrink below 1 + hub-exclusion effects; ensure the
  // min_shrink guard terminates rather than looping.
  CoarseningConfig config;
  config.threshold = 2;
  const auto h = multi_edge_collapse(graph::complete_graph(64), config);
  EXPECT_LT(h.depth(), 64u);
}

TEST(Hierarchy, ParallelDriverProducesValidLevels) {
  CoarseningConfig config;
  config.threads = 4;
  const auto h = multi_edge_collapse(graph::rmat(11, 10000, 17), config);
  EXPECT_GT(h.depth(), 1u);
  for (std::size_t i = 0; i + 1 < h.depth(); ++i) {
    const auto& map = h.map(i);
    for (vid_t target : map) {
      EXPECT_LT(target, h.graph(i + 1).num_vertices());
    }
  }
}

/// The contract inputs, by name: rmat1..rmat8 (seeds 1-8), an LFR graph
/// of 2^14 vertices, a star, a path, a 2^14 cycle (every degree equals
/// delta, so ties fall in id order and the parallel map needs the most
/// rounds), a 128x128 grid, a clique and the two-hub graph.
graph::Graph contract_input(const std::string& name) {
  if (name.rfind("rmat", 0) == 0) {
    return graph::rmat(11, 8000, std::stoull(name.substr(4)));
  }
  if (name == "lfr") return graph::lfr_like(1u << 14, {}, 5);
  if (name == "star") return graph::star_graph(50);
  if (name == "path") return graph::path_graph(100);
  if (name == "cycle") return graph::cycle_graph(1u << 14);
  if (name == "grid") return graph::grid_graph(128, 128);
  if (name == "clique") return graph::complete_graph(64);
  return two_hubs();
}

class Algorithm4Contract : public ::testing::TestWithParam<std::string> {};

TEST_P(Algorithm4Contract, EveryLevelMatchesAtAnyThreadCount) {
  const graph::Graph input = contract_input(GetParam());
  CoarseningConfig config;
  config.threshold = 2;  // the small inputs coarsen too

  // Algorithm 4's hierarchy under multi_edge_collapse's stopping rules,
  // with each coarse graph built from the set of crossing arcs.
  std::vector<graph::Graph> graphs;
  graphs.push_back(input);
  std::vector<std::vector<vid_t>> maps;
  while (graphs.size() < config.max_levels &&
         graphs.back().num_vertices() > config.threshold) {
    const graph::Graph& fine = graphs.back();
    LevelMapping m = algorithm4(fine);
    if (1.0 - static_cast<double>(m.num_clusters) / fine.num_vertices() <
        config.min_shrink) {
      break;
    }
    std::vector<graph::Edge> arcs;
    for (vid_t v = 0; v < fine.num_vertices(); ++v) {
      for (const vid_t u : fine.neighbors(v)) {
        arcs.push_back({m.map[v], m.map[u]});
      }
    }
    graphs.push_back(graph::build_csr(m.num_clusters, std::move(arcs)));
    maps.push_back(std::move(m.map));
  }

  for (const unsigned threads : {1u, 2u, 3u, 4u, 8u}) {
    config.threads = threads;
    const Hierarchy h = multi_edge_collapse(input, config);
    ASSERT_EQ(h.depth(), graphs.size()) << threads << " threads";
    for (std::size_t i = 0; i + 1 < h.depth(); ++i) {
      ASSERT_TRUE(h.map(i) == maps[i])
          << "level " << i << " map at " << threads << " threads";
      ASSERT_TRUE(h.graph(i + 1) == graphs[i + 1])
          << "level " << i + 1 << " graph at " << threads << " threads";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Inputs, Algorithm4Contract,
    ::testing::Values("rmat1", "rmat2", "rmat3", "rmat4", "rmat5", "rmat6",
                      "rmat7", "rmat8", "lfr", "star", "path", "cycle", "grid",
                      "clique", "two_hubs"),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

}  // namespace
}  // namespace gosh::coarsen
