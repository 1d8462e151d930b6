#include "gosh/embedding/matrix.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "gosh/common/rng.hpp"

namespace gosh::embedding {

void EmbeddingMatrix::initialize_random(std::uint64_t seed,
                                        std::span<const vid_t> slots) {
  Rng rng(seed);
  const float scale = dim_ > 0 ? 1.0f / static_cast<float>(dim_) : 0.0f;
  const vid_t drawn = slots.empty() ? rows_ : static_cast<vid_t>(slots.size());
  for (vid_t r = 0; r < drawn; ++r) {
    assert(slot_of(slots, r) < rows_);
    for (auto& value : row(slot_of(slots, r))) {
      value = (rng.next_float() - 0.5f) * scale;
    }
  }
}

EmbeddingMatrix expand_embedding(const EmbeddingMatrix& coarse,
                                 std::span<const vid_t> map) {
  EmbeddingMatrix fine(static_cast<vid_t>(map.size()), coarse.dim());
  const std::size_t row_bytes = coarse.dim() * sizeof(emb_t);
  for (std::size_t v = 0; v < map.size(); ++v) {
    assert(map[v] < coarse.rows());
    std::memcpy(fine.row(static_cast<vid_t>(v)).data(),
                coarse.row(map[v]).data(), row_bytes);
  }
  return fine;
}

std::vector<vid_t> coarse_slots(std::span<const vid_t> map,
                                std::span<const vid_t> fine_slots,
                                vid_t coarse_vertices) {
  std::vector<vid_t> slots(coarse_vertices, kInvalidVertex);
  // Ascending v meets each cluster's lowest-id member first.
  for (std::size_t v = 0; v < map.size(); ++v) {
    assert(map[v] < coarse_vertices);
    vid_t& slot = slots[map[v]];
    if (slot == kInvalidVertex) {
      slot = slot_of(fine_slots, static_cast<vid_t>(v));
    }
  }
  assert(std::find(slots.begin(), slots.end(), kInvalidVertex) == slots.end());
  return slots;
}

void project_in_place(EmbeddingMatrix& matrix, std::span<const vid_t> map,
                      std::span<const vid_t> coarse_slots,
                      std::span<const vid_t> fine_slots) {
  const std::size_t row_bytes = matrix.dim() * sizeof(emb_t);
  for (std::size_t v = 0; v < map.size(); ++v) {
    const vid_t from = coarse_slots[map[v]];
    const vid_t to = slot_of(fine_slots, static_cast<vid_t>(v));
    if (from == to) continue;  // the lowest-id member: already in place
    std::memcpy(matrix.row(to).data(), matrix.row(from).data(), row_bytes);
  }
}

}  // namespace gosh::embedding
