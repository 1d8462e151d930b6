#include "gosh/coarsening/hierarchy.hpp"

#include <cassert>
#include <numeric>
#include <utility>

namespace gosh::coarsen {

Hierarchy::Hierarchy(const graph::Graph& original) : borrowed_(&original) {}

Hierarchy::Hierarchy(graph::Graph&& original) : owned_(std::move(original)) {}

void Hierarchy::push_level(std::vector<vid_t> map, graph::Graph coarser) {
  assert(map.size() == coarsest().num_vertices());
#ifndef NDEBUG
  for (vid_t super : map) assert(super < coarser.num_vertices());
#endif
  maps_.push_back(std::move(map));
  coarser_.push_back(std::move(coarser));
}

double Hierarchy::shrink_rate(std::size_t level) const {
  const double from = graph(level).num_vertices();
  const double to = graph(level + 1).num_vertices();
  return from == 0.0 ? 0.0 : (from - to) / from;
}

std::vector<vid_t> Hierarchy::composed_map(std::size_t level) const {
  assert(level < depth());
  std::vector<vid_t> composed(original().num_vertices());
  std::iota(composed.begin(), composed.end(), vid_t{0});
  for (std::size_t i = 0; i < level; ++i) {
    for (auto& target : composed) target = maps_[i][target];
  }
  return composed;
}

}  // namespace gosh::coarsen
