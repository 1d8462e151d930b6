#include "gosh/largegraph/sample_pool.hpp"

#include <algorithm>

#include "gosh/common/rng.hpp"
#include "gosh/largegraph/rotation.hpp"

namespace gosh::largegraph {
namespace {

/// Fills `out[0..B)` with uniform picks from Gamma(v) ∩ [lo, hi), using
/// that adjacency is sorted so the intersection is one contiguous span.
void sample_from_part(const graph::Graph& graph, vid_t v, vid_t lo, vid_t hi,
                      unsigned batch_B, Rng& rng, vid_t* out) {
  const auto neighbors = graph.neighbors(v);
  const auto begin = std::lower_bound(neighbors.begin(), neighbors.end(), lo);
  const auto end = std::lower_bound(begin, neighbors.end(), hi);
  const std::size_t span = static_cast<std::size_t>(end - begin);
  if (span == 0) {
    std::fill_n(out, batch_B, kInvalidVertex);
    return;
  }
  for (unsigned i = 0; i < batch_B; ++i) {
    out[i] = begin[rng.next_bounded(span)];
  }
}

}  // namespace

PairSamples SampleManager::make_pool(const graph::Graph& graph,
                                     const PartitionPlan& plan,
                                     unsigned rotation, unsigned part_a,
                                     unsigned part_b, unsigned batch_B,
                                     std::uint64_t seed) {
  PairSamples pool;
  pool.rotation = rotation;
  pool.part_a = part_a;
  pool.part_b = part_b;

  const vid_t a_begin = plan.part_begin(part_a);
  const vid_t a_size = plan.part_size(part_a);
  const vid_t b_begin = plan.part_begin(part_b);
  const vid_t b_size = plan.part_size(part_b);
  const std::uint64_t pool_seed =
      hash_combine(seed, (static_cast<std::uint64_t>(rotation) << 32) |
                             (static_cast<std::uint64_t>(part_a) << 16) |
                             part_b);

  pool.a_from_b.resize(static_cast<std::size_t>(a_size) * batch_B);
  for (std::size_t i = 0; i < a_size; ++i) {
    const vid_t v = a_begin + static_cast<vid_t>(i);
    Rng rng(hash_combine(pool_seed, v));
    sample_from_part(graph, v, b_begin, plan.part_end(part_b), batch_B, rng,
                     pool.a_from_b.data() + i * batch_B);
  }

  if (part_a != part_b) {
    pool.b_from_a.resize(static_cast<std::size_t>(b_size) * batch_B);
    for (std::size_t i = 0; i < b_size; ++i) {
      const vid_t v = b_begin + static_cast<vid_t>(i);
      // Offset the stream id so the two directions are decorrelated.
      Rng rng(hash_combine(pool_seed,
                           static_cast<std::uint64_t>(v) | (1ull << 40)));
      sample_from_part(graph, v, a_begin, plan.part_end(part_a), batch_B, rng,
                       pool.b_from_a.data() + i * batch_B);
    }
  }
  return pool;
}

SampleManager::SampleManager(const graph::Graph& graph,
                             const PartitionPlan& plan, unsigned batch_B,
                             unsigned rotations, std::uint64_t seed,
                             std::size_t queue_capacity)
    : graph_(graph),
      plan_(plan),
      batch_B_(batch_B),
      rotations_(rotations),
      seed_(seed),
      queue_capacity_(std::max<std::size_t>(1, queue_capacity)),
      producer_([this] { producer_loop(); }) {}

SampleManager::~SampleManager() {
  {
    common::MutexLock lock(mutex_);
    stopping_ = true;
  }
  not_full_.notify_all();
  not_empty_.notify_all();
  producer_.join();
}

std::unique_ptr<PairSamples> SampleManager::next_pool() {
  common::UniqueLock lock(mutex_);
  while (queue_.empty() && !finished_) not_empty_.wait(lock);
  if (queue_.empty()) return nullptr;
  auto pool = std::move(queue_.front());
  queue_.pop_front();
  not_full_.notify_one();
  return pool;
}

void SampleManager::producer_loop() {
  const auto pairs = rotation_pairs(plan_.num_parts());
  for (unsigned r = 0; r < rotations_; ++r) {
    for (const auto& [a, b] : pairs) {
      auto pool = std::make_unique<PairSamples>(
          make_pool(graph_, plan_, r, a, b, batch_B_, seed_));
      common::UniqueLock lock(mutex_);
      while (queue_.size() >= queue_capacity_ && !stopping_) {
        not_full_.wait(lock);
      }
      if (stopping_) return;
      queue_.push_back(std::move(pool));
      not_empty_.notify_one();
    }
  }
  common::MutexLock lock(mutex_);
  finished_ = true;
  not_empty_.notify_all();
}

}  // namespace gosh::largegraph
