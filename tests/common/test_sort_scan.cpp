// Counting sort invariants.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

#include "gosh/common/counting_sort.hpp"
#include "gosh/common/rng.hpp"

namespace gosh {
namespace {

TEST(CountingSort, DescendingOrder) {
  std::vector<unsigned> keys = {3, 1, 4, 1, 5, 9, 2, 6};
  const auto order = counting_sort_descending(
      std::span<const unsigned>(keys), 9);
  for (std::size_t i = 1; i < order.size(); ++i) {
    EXPECT_GE(keys[order[i - 1]], keys[order[i]]);
  }
}

TEST(CountingSort, StableOnTies) {
  std::vector<unsigned> keys = {5, 5, 5, 2, 2, 7};
  const auto order = counting_sort_descending(
      std::span<const unsigned>(keys), 7);
  // Expected: 7 first (index 5), then the 5s in original order, then 2s.
  EXPECT_EQ(order[0], 5u);
  EXPECT_EQ(order[1], 0u);
  EXPECT_EQ(order[2], 1u);
  EXPECT_EQ(order[3], 2u);
  EXPECT_EQ(order[4], 3u);
  EXPECT_EQ(order[5], 4u);
}

TEST(CountingSort, IsAPermutation) {
  Rng rng(1);
  std::vector<unsigned> keys(1000);
  for (auto& k : keys) k = static_cast<unsigned>(rng.next_bounded(50));
  auto order = counting_sort_descending(std::span<const unsigned>(keys), 50);
  std::sort(order.begin(), order.end());
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(CountingSort, EmptyInput) {
  std::vector<unsigned> keys;
  EXPECT_TRUE(
      counting_sort_descending(std::span<const unsigned>(keys), 0).empty());
}

TEST(CountingSort, AllEqualKeys) {
  std::vector<unsigned> keys(100, 7);
  const auto order =
      counting_sort_descending(std::span<const unsigned>(keys), 7);
  for (std::size_t i = 0; i < 100; ++i) EXPECT_EQ(order[i], i);  // stability
}

}  // namespace
}  // namespace gosh
