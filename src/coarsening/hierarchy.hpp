// The multilevel hierarchy: coarsened graphs G = {G_0 ... G_{D-1}} plus the
// per-level vertex mappings M used to project embeddings back down
// (Figure 1 / Algorithm 2 of the paper).
#pragma once

#include <cstddef>
#include <vector>

#include "gosh/graph/graph.hpp"

namespace gosh::coarsen {

class Hierarchy {
 public:
  /// One level holding an empty graph.
  Hierarchy() = default;
  /// Borrows `original` as G_0: it must outlive the hierarchy. A caller
  /// that already holds the graph keeps the only copy of its CSR.
  explicit Hierarchy(const graph::Graph& original);
  /// Owns `original` as G_0.
  explicit Hierarchy(graph::Graph&& original);

  /// Appends a level: `map` sends each vertex of the current deepest graph
  /// to its super vertex in `coarser` (map.size() == |V_deepest|, entries
  /// < coarser.num_vertices()).
  void push_level(std::vector<vid_t> map, graph::Graph coarser);

  /// D: number of graphs (original included).
  std::size_t depth() const noexcept { return maps_.size() + 1; }

  /// G_level; level 0 is the borrowed or owned original.
  const graph::Graph& graph(std::size_t level) const {
    return level == 0 ? original() : coarser_.at(level - 1);
  }

  /// Mapping V_level -> V_{level+1}; valid for level < depth()-1.
  const std::vector<vid_t>& map(std::size_t level) const {
    return maps_.at(level);
  }

  const graph::Graph& original() const {
    return borrowed_ != nullptr ? *borrowed_ : owned_;
  }
  const graph::Graph& coarsest() const { return graph(depth() - 1); }

  /// Shrink rate (|V_i| - |V_{i+1}|) / |V_i| — the paper's coarsening
  /// efficiency metric.
  double shrink_rate(std::size_t level) const;

  /// Composed mapping V_0 -> V_level (identity for level 0).
  std::vector<vid_t> composed_map(std::size_t level) const;

 private:
  const graph::Graph* borrowed_ = nullptr;  ///< G_0 when borrowed
  graph::Graph owned_;                      ///< G_0 when owned
  std::vector<graph::Graph> coarser_;       ///< G_1 ... G_{D-1}
  std::vector<std::vector<vid_t>> maps_;
};

}  // namespace gosh::coarsen
