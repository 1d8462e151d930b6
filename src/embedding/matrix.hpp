// The embedding matrix M: |V| x d row-major floats.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "gosh/common/aligned_buffer.hpp"
#include "gosh/common/types.hpp"

namespace gosh::embedding {

class EmbeddingMatrix {
 public:
  EmbeddingMatrix() = default;
  EmbeddingMatrix(vid_t rows, unsigned dim)
      : rows_(rows), dim_(dim), data_(static_cast<std::size_t>(rows) * dim) {}

  vid_t rows() const noexcept { return rows_; }
  unsigned dim() const noexcept { return dim_; }

  std::span<emb_t> row(vid_t v) noexcept {
    return {data_.data() + static_cast<std::size_t>(v) * dim_, dim_};
  }
  std::span<const emb_t> row(vid_t v) const noexcept {
    return {data_.data() + static_cast<std::size_t>(v) * dim_, dim_};
  }

  emb_t* data() noexcept { return data_.data(); }
  const emb_t* data() const noexcept { return data_.data(); }
  std::size_t size() const noexcept { return data_.size(); }
  std::size_t bytes() const noexcept { return data_.size() * sizeof(emb_t); }

  /// Uniform init in [-0.5/d, 0.5/d] — the word2vec-family convention VERSE
  /// and GOSH follow; keeps initial dot products near zero so the sigmoid
  /// starts in its responsive range. Draws slots.size() rows in row order,
  /// row r written at row slots[r] and every other row left as it is; an
  /// empty `slots` draws every row in place.
  void initialize_random(std::uint64_t seed,
                         std::span<const vid_t> slots = {});

  /// Deterministic memory estimate used by the fits-on-device check
  /// (Algorithm 2 line 5).
  static std::size_t bytes_for(vid_t rows, unsigned dim) noexcept {
    return static_cast<std::size_t>(rows) * dim * sizeof(emb_t);
  }

 private:
  vid_t rows_ = 0;
  unsigned dim_ = 0;
  AlignedBuffer<emb_t> data_;
};

/// Projects a coarse embedding down one level (Algorithm 2 line 11):
/// result.row(v) = coarse.row(map[v]) for every fine vertex v. `map` sends
/// fine vertices to super vertices, i.e. hierarchy.map(level).
EmbeddingMatrix expand_embedding(const EmbeddingMatrix& coarse,
                                 std::span<const vid_t> map);

// One host matrix for a whole multilevel run. Level j's row for vertex v
// sits at matrix row slot_j(v): slot_0(v) = v, and a super vertex c of
// level j+1 takes the slot of its lowest-id member,
//   slot_{j+1}(c) = slot_j(min{v : map_j[v] = c}).
// The slots of one level are distinct, and level j+1's are a subset of
// level j's, so a |V_0|-row matrix holds every level and projects each one
// down in place. A level's slots are a span of |V_j| rows; an empty span
// is the identity, level 0's layout.

/// slots[v], or v itself when `slots` is empty.
inline vid_t slot_of(std::span<const vid_t> slots, vid_t v) noexcept {
  return slots.empty() ? v : slots[v];
}

/// slot_{j+1} from map_j (`map`, onto [0, coarse_vertices)) and slot_j
/// (`fine_slots`).
std::vector<vid_t> coarse_slots(std::span<const vid_t> map,
                                std::span<const vid_t> fine_slots,
                                vid_t coarse_vertices);

/// Algorithm 2 line 11 in the one-matrix layout: copies row
/// slot_{j+1}(map[v]) to row slot_j(v) for every fine vertex v that is not
/// its cluster's lowest-id member (whose slot is its super vertex's, so its
/// row is already in place). The rows it writes are exactly level j's slots
/// that hold no level-(j+1) row, and it never writes a row it reads, so no
/// second matrix is needed. Equals expand_embedding read through the slots.
void project_in_place(EmbeddingMatrix& matrix, std::span<const vid_t> map,
                      std::span<const vid_t> coarse_slots,
                      std::span<const vid_t> fine_slots);

}  // namespace gosh::embedding
