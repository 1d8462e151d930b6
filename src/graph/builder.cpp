#include "gosh/graph/builder.hpp"

#include <algorithm>
#include <cassert>

namespace gosh::graph {

Graph build_csr(vid_t num_vertices, std::vector<Edge> arcs,
                const BuildOptions& options) {
  if (options.remove_self_loops) {
    std::erase_if(arcs, [](const Edge& e) { return e.first == e.second; });
  }

  if (options.symmetrize) {
    const std::size_t original = arcs.size();
    arcs.reserve(original * 2);
    for (std::size_t i = 0; i < original; ++i) {
      arcs.emplace_back(arcs[i].second, arcs[i].first);
    }
  }

  // Counting pass -> offsets -> scatter. O(V + E), no comparison sort of
  // the full arc list needed.
  std::vector<eid_t> xadj(static_cast<std::size_t>(num_vertices) + 1, 0);
  for (const Edge& e : arcs) {
    assert(e.first < num_vertices && e.second < num_vertices);
    xadj[e.first + 1]++;
  }
  for (std::size_t v = 0; v < num_vertices; ++v) xadj[v + 1] += xadj[v];

  std::vector<vid_t> adj(arcs.size());
  {
    std::vector<eid_t> cursor(xadj.begin(), xadj.end() - 1);
    for (const Edge& e : arcs) adj[cursor[e.first]++] = e.second;
  }

  if (options.sort_adjacency || options.dedup) {
    for (vid_t v = 0; v < num_vertices; ++v) {
      std::sort(adj.begin() + static_cast<std::ptrdiff_t>(xadj[v]),
                adj.begin() + static_cast<std::ptrdiff_t>(xadj[v + 1]));
    }
  }

  if (options.dedup) {
    // Compact each sorted slice in place, then rebuild offsets.
    std::vector<eid_t> new_xadj(xadj.size(), 0);
    eid_t write = 0;
    for (vid_t v = 0; v < num_vertices; ++v) {
      const eid_t begin = xadj[v];
      const eid_t end = xadj[v + 1];
      new_xadj[v] = write;
      for (eid_t i = begin; i < end; ++i) {
        if (i == begin || adj[i] != adj[i - 1]) adj[write++] = adj[i];
      }
    }
    new_xadj[num_vertices] = write;
    adj.resize(write);
    xadj = std::move(new_xadj);
  }

  return Graph{std::move(xadj), std::move(adj)};
}

Graph build_csr_auto(std::vector<Edge> arcs, const BuildOptions& options) {
  vid_t n = 0;
  for (const Edge& e : arcs) {
    n = std::max({n, static_cast<vid_t>(e.first + 1),
                  static_cast<vid_t>(e.second + 1)});
  }
  return build_csr(n, std::move(arcs), options);
}

std::vector<Edge> undirected_edges(const Graph& graph) {
  std::vector<Edge> edges;
  edges.reserve(graph.num_arcs() / 2);
  const vid_t n = graph.num_vertices();
  for (vid_t v = 0; v < n; ++v) {
    for (vid_t u : graph.neighbors(v)) {
      if (v < u) edges.emplace_back(v, u);
    }
  }
  return edges;
}

}  // namespace gosh::graph
