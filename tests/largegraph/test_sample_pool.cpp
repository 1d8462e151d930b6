// Host-side positive sampling: pool contents and SampleManager pipelining.
#include <gtest/gtest.h>

#include "gosh/graph/generators.hpp"
#include "gosh/graph/ops.hpp"
#include "gosh/largegraph/rotation.hpp"
#include "gosh/largegraph/sample_pool.hpp"

namespace gosh::largegraph {
namespace {

PartitionPlan manual_plan(vid_t n, unsigned parts) {
  PartitionPlan plan;
  plan.part_capacity = (n + parts - 1) / parts;
  for (unsigned p = 0; p <= parts; ++p) {
    plan.offsets.push_back(
        std::min<vid_t>(n, static_cast<vid_t>(p) * plan.part_capacity));
  }
  return plan;
}

TEST(MakePool, SamplesAreNeighborsInPartnerPart) {
  const auto g = graph::rmat(9, 3000, 31);
  const auto plan = manual_plan(g.num_vertices(), 4);
  const unsigned B = 3;
  const auto pool = SampleManager::make_pool(g, plan, 0, 2, 1, B, 7);
  EXPECT_EQ(pool.part_a, 2u);
  EXPECT_EQ(pool.part_b, 1u);
  ASSERT_EQ(pool.a_from_b.size(),
            static_cast<std::size_t>(plan.part_size(2)) * B);
  for (vid_t i = 0; i < plan.part_size(2); ++i) {
    const vid_t v = plan.part_begin(2) + i;
    for (unsigned s = 0; s < B; ++s) {
      const vid_t u = pool.a_from_b[static_cast<std::size_t>(i) * B + s];
      if (u == kInvalidVertex) continue;
      EXPECT_GE(u, plan.part_begin(1));
      EXPECT_LT(u, plan.part_end(1));
      EXPECT_TRUE(graph::has_arc(g, v, u)) << v << " -> " << u;
    }
  }
}

TEST(MakePool, InvalidWhenNoNeighborInPart) {
  // Path graph: vertex 0's only neighbour is 1; pair (part of 0, far part)
  // yields kInvalidVertex for vertex 0.
  const auto g = graph::path_graph(100);
  const auto plan = manual_plan(100, 4);
  const auto pool = SampleManager::make_pool(g, plan, 0, 3, 0, 2, 7);
  // part 3 = vertices 75..99; none is adjacent to part 0 (0..24) except
  // via the chain — no direct edges cross, so ALL entries are invalid.
  for (vid_t id : pool.a_from_b) EXPECT_EQ(id, kInvalidVertex);
}

TEST(MakePool, DiagonalHasOneDirection) {
  const auto g = graph::rmat(8, 1000, 32);
  const auto plan = manual_plan(g.num_vertices(), 3);
  const auto pool = SampleManager::make_pool(g, plan, 0, 1, 1, 2, 7);
  EXPECT_FALSE(pool.a_from_b.empty());
  EXPECT_TRUE(pool.b_from_a.empty());
}

TEST(MakePool, DeterministicInSeed) {
  const auto g = graph::rmat(8, 1000, 33);
  const auto plan = manual_plan(g.num_vertices(), 2);
  const auto a = SampleManager::make_pool(g, plan, 1, 1, 0, 4, 9);
  const auto b = SampleManager::make_pool(g, plan, 1, 1, 0, 4, 9);
  EXPECT_EQ(a.a_from_b, b.a_from_b);
  EXPECT_EQ(a.b_from_a, b.b_from_a);
}

TEST(SampleManager, DeliversAllPoolsInRotationOrder) {
  const auto g = graph::rmat(8, 1000, 34);
  const auto plan = manual_plan(g.num_vertices(), 3);
  const unsigned rotations = 2;
  SampleManager manager(g, plan, 2, rotations, 5, 4);
  const auto expected_pairs = rotation_pairs(3);
  for (unsigned r = 0; r < rotations; ++r) {
    for (const auto& [a, b] : expected_pairs) {
      const auto pool = manager.next_pool();
      ASSERT_NE(pool, nullptr);
      EXPECT_EQ(pool->rotation, r);
      EXPECT_EQ(pool->part_a, a);
      EXPECT_EQ(pool->part_b, b);
    }
  }
  EXPECT_EQ(manager.next_pool(), nullptr);  // exhausted
}

TEST(SampleManager, DestructorSafeWithUnconsumedPools) {
  const auto g = graph::rmat(8, 1000, 35);
  const auto plan = manual_plan(g.num_vertices(), 4);
  {
    SampleManager manager(g, plan, 2, 3, 5, 2);
    // Consume only one pool, then destroy: must not deadlock.
    ASSERT_NE(manager.next_pool(), nullptr);
  }
  SUCCEED();
}

TEST(SampleManager, BoundedQueueBlocksProducer) {
  const auto g = graph::rmat(8, 1000, 36);
  const auto plan = manual_plan(g.num_vertices(), 4);
  SampleManager manager(g, plan, 2, 1, 5, /*queue_capacity=*/1);
  // With capacity 1 the producer can be at most one pool ahead; consuming
  // them all still yields the full ordered sequence.
  std::size_t count = 0;
  while (manager.next_pool() != nullptr) ++count;
  EXPECT_EQ(count, rotation_pairs(4).size());
}

}  // namespace
}  // namespace gosh::largegraph
