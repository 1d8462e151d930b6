// EmbeddingMatrix storage, initialization, expansion and the one-matrix
// layout of a multilevel run.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>
#include <vector>

#include "gosh/common/rng.hpp"
#include "gosh/embedding/matrix.hpp"

namespace gosh::embedding {
namespace {

TEST(Matrix, ShapeAndBytes) {
  EmbeddingMatrix m(100, 32);
  EXPECT_EQ(m.rows(), 100u);
  EXPECT_EQ(m.dim(), 32u);
  EXPECT_EQ(m.size(), 3200u);
  EXPECT_EQ(m.bytes(), 3200u * sizeof(emb_t));
  EXPECT_EQ(EmbeddingMatrix::bytes_for(100, 32), m.bytes());
}

TEST(Matrix, ZeroInitializedByDefault) {
  EmbeddingMatrix m(10, 4);
  for (vid_t v = 0; v < 10; ++v) {
    for (float x : m.row(v)) EXPECT_EQ(x, 0.0f);
  }
}

TEST(Matrix, RandomInitWithinScale) {
  EmbeddingMatrix m(1000, 64);
  m.initialize_random(3);
  const float bound = 0.5f / 64.0f;
  bool any_nonzero = false;
  for (vid_t v = 0; v < 1000; ++v) {
    for (float x : m.row(v)) {
      EXPECT_GE(x, -bound);
      EXPECT_LE(x, bound);
      any_nonzero |= x != 0.0f;
    }
  }
  EXPECT_TRUE(any_nonzero);
}

TEST(Matrix, RandomInitDeterministic) {
  EmbeddingMatrix a(50, 16), b(50, 16);
  a.initialize_random(7);
  b.initialize_random(7);
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a.data()[i], b.data()[i]);
}

TEST(Matrix, RowsAreContiguousSlices) {
  EmbeddingMatrix m(4, 8);
  m.row(2)[3] = 42.0f;
  EXPECT_EQ(m.data()[2 * 8 + 3], 42.0f);
}

TEST(Expand, CopiesSuperRows) {
  EmbeddingMatrix coarse(2, 3);
  coarse.row(0)[0] = 1.0f;
  coarse.row(1)[0] = 2.0f;
  const std::vector<vid_t> map = {0, 1, 1, 0, 1};
  EmbeddingMatrix fine = expand_embedding(coarse, map);
  EXPECT_EQ(fine.rows(), 5u);
  EXPECT_EQ(fine.dim(), 3u);
  EXPECT_EQ(fine.row(0)[0], 1.0f);
  EXPECT_EQ(fine.row(1)[0], 2.0f);
  EXPECT_EQ(fine.row(2)[0], 2.0f);
  EXPECT_EQ(fine.row(3)[0], 1.0f);
  EXPECT_EQ(fine.row(4)[0], 2.0f);
}

TEST(Expand, IdentityMapPreservesMatrix) {
  EmbeddingMatrix coarse(6, 4);
  coarse.initialize_random(9);
  std::vector<vid_t> identity(6);
  for (vid_t v = 0; v < 6; ++v) identity[v] = v;
  EmbeddingMatrix fine = expand_embedding(coarse, identity);
  for (std::size_t i = 0; i < coarse.size(); ++i) {
    EXPECT_EQ(fine.data()[i], coarse.data()[i]);
  }
}

/// A map of `n` vertices onto [0, k), every cluster nonempty, the
/// vertices of a cluster scattered over the id range.
std::vector<vid_t> random_map(vid_t n, vid_t k, Rng& rng) {
  std::vector<vid_t> map(n);
  for (vid_t v = 0; v < n; ++v) {
    map[v] = v < k ? v : static_cast<vid_t>(rng.next_bounded(k));
  }
  for (vid_t i = n; i > 1; --i) {
    std::swap(map[i - 1], map[rng.next_bounded(i)]);
  }
  return map;
}

/// Level j of a one-matrix run, read through its slots into its own matrix.
EmbeddingMatrix read_level(const EmbeddingMatrix& matrix,
                           std::span<const vid_t> slots, vid_t rows) {
  EmbeddingMatrix level(rows, matrix.dim());
  for (vid_t v = 0; v < rows; ++v) {
    std::copy_n(matrix.row(slot_of(slots, v)).data(), matrix.dim(),
                level.row(v).data());
  }
  return level;
}

bool same_bytes(const EmbeddingMatrix& a, const EmbeddingMatrix& b) {
  return a.rows() == b.rows() && a.dim() == b.dim() &&
         std::equal(a.data(), a.data() + a.size(), b.data());
}

TEST(OneMatrix, CoarseSlotsAreTheLowestMembersSlots) {
  // 6 -> 3 -> 2: clusters {0,3} {1,4,5} {2}, then {0,2} {1}.
  const std::vector<vid_t> map0 = {0, 1, 2, 0, 1, 1};
  const std::vector<vid_t> map1 = {0, 1, 0};
  const std::vector<vid_t> slots1 = coarse_slots(map0, {}, 3);
  EXPECT_EQ(slots1, (std::vector<vid_t>{0, 1, 2}));
  const std::vector<vid_t> slots2 = coarse_slots(map1, slots1, 2);
  EXPECT_EQ(slots2, (std::vector<vid_t>{0, 1}));

  const std::vector<vid_t> reversed = {2, 2, 1, 0};  // 4 -> 3
  EXPECT_EQ(coarse_slots(reversed, {}, 3), (std::vector<vid_t>{3, 2, 0}));
  EXPECT_EQ(coarse_slots(std::vector<vid_t>{1, 0, 0},
                         std::vector<vid_t>{3, 2, 0}, 2),
            (std::vector<vid_t>{2, 3}));
}

TEST(OneMatrix, InPlaceProjectionMatchesChainedExpand) {
  // Random hierarchies: the coarsest level drawn at its slots and projected
  // down in place reads, at every level, what per-level matrices chained
  // by expand_embedding hold.
  Rng rng(2024);
  for (int trial = 0; trial < 200; ++trial) {
    const auto n0 = static_cast<vid_t>(1 + rng.next_bounded(300));
    const unsigned dim = 1 + static_cast<unsigned>(rng.next_bounded(9));
    const auto depth = static_cast<std::size_t>(1 + rng.next_bounded(5));
    std::vector<vid_t> sizes = {n0};
    std::vector<std::vector<vid_t>> maps;
    while (sizes.size() < depth) {
      const vid_t k = static_cast<vid_t>(1 + rng.next_bounded(sizes.back()));
      maps.push_back(random_map(sizes.back(), k, rng));
      sizes.push_back(k);
    }
    std::vector<std::vector<vid_t>> slots(depth);
    for (std::size_t j = 1; j < depth; ++j) {
      slots[j] = coarse_slots(maps[j - 1], slots[j - 1], sizes[j]);
      ASSERT_EQ(slots[j].size(), sizes[j]);
      // Distinct, and a subset of the finer level's slots.
      const std::set<vid_t> distinct(slots[j].begin(), slots[j].end());
      ASSERT_EQ(distinct.size(), slots[j].size());
      for (const vid_t slot : slots[j]) {
        ASSERT_LT(slot, n0);
        if (j > 1) {
          ASSERT_NE(std::find(slots[j - 1].begin(), slots[j - 1].end(), slot),
                    slots[j - 1].end());
        }
      }
    }

    const std::uint64_t seed = rng.next();
    std::vector<EmbeddingMatrix> reference(depth);
    reference[depth - 1] = EmbeddingMatrix(sizes[depth - 1], dim);
    reference[depth - 1].initialize_random(seed);
    for (std::size_t j = depth - 1; j > 0; --j) {
      reference[j - 1] = expand_embedding(reference[j], maps[j - 1]);
    }

    EmbeddingMatrix one(n0, dim);
    one.initialize_random(seed, slots[depth - 1]);
    ASSERT_TRUE(same_bytes(read_level(one, slots[depth - 1], sizes[depth - 1]),
                           reference[depth - 1]))
        << "trial " << trial;
    for (std::size_t j = depth - 1; j > 0; --j) {
      project_in_place(one, maps[j - 1], slots[j], slots[j - 1]);
      ASSERT_TRUE(same_bytes(read_level(one, slots[j - 1], sizes[j - 1]),
                             reference[j - 1]))
          << "trial " << trial << " level " << j - 1;
    }
    ASSERT_TRUE(same_bytes(one, reference[0])) << "trial " << trial;
  }
}

TEST(OneMatrix, SlottedInitLeavesOtherRowsAlone) {
  EmbeddingMatrix compact(3, 4);
  compact.initialize_random(5);
  EmbeddingMatrix one(6, 4);
  std::fill(one.data(), one.data() + one.size(), 9.0f);
  const std::vector<vid_t> slots = {4, 0, 2};
  one.initialize_random(5, slots);
  for (vid_t r = 0; r < 3; ++r) {
    EXPECT_TRUE(std::equal(compact.row(r).begin(), compact.row(r).end(),
                           one.row(slots[r]).begin()));
  }
  for (const vid_t untouched : {1u, 3u, 5u}) {
    for (const float x : one.row(untouched)) EXPECT_EQ(x, 9.0f);
  }
}

}  // namespace
}  // namespace gosh::embedding
