// Host-side positive sampling into pools (paper Section 3.3 / Figure 2).
//
// The graph never moves to the device in the large-graph path: positive
// samples are drawn on the host by the SampleManager and shipped to the
// device in pools. A pool serves one (a, b) part pair and carries B
// positive sample ids per vertex for both directions — vertex v in part a
// gets B picks from Gamma(v) ∩ V_b, and symmetrically. A missing neighbour
// in the partner part yields kInvalidVertex and the kernel skips that
// positive update ("a vertex may not have a neighbor in V_k ... no
// positive updates are performed", Section 3.3).
//
// SampleManager runs a producer thread ahead of the trainer, filling pools
// for the pair sequence of all rotations in order into a bounded queue
// whose capacity models the host-side staging buffer of Figure 2. The
// producer fills each pool alone: one thread keeps ahead of the pair
// kernels, and every vertex draws from its own seeded stream, so a pool
// does not depend on who fills it.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <thread>
#include <vector>

#include "gosh/common/sync.hpp"
#include "gosh/graph/graph.hpp"
#include "gosh/largegraph/partition.hpp"

namespace gosh::largegraph {

struct PairSamples {
  unsigned rotation = 0;
  unsigned part_a = 0;
  unsigned part_b = 0;
  /// B entries per vertex of part a: global ids in part b, or
  /// kInvalidVertex. Laid out vertex-major: [v0 x B][v1 x B]...
  std::vector<vid_t> a_from_b;
  /// Same for part b sampling from part a; empty on the diagonal (a == b,
  /// where a_from_b already covers the only direction).
  std::vector<vid_t> b_from_a;
};

class SampleManager {
 public:
  /// Starts the producer. It will generate pools for `rotations` full
  /// rotations over the plan's parts, in rotation-pair order.
  SampleManager(const graph::Graph& graph, const PartitionPlan& plan,
                unsigned batch_B, unsigned rotations, std::uint64_t seed,
                std::size_t queue_capacity);

  /// Joins the producer (draining any unconsumed pools).
  ~SampleManager();

  SampleManager(const SampleManager&) = delete;
  SampleManager& operator=(const SampleManager&) = delete;

  /// Blocks until the next pool (in global pair order) is ready; returns
  /// nullptr once all rotations have been produced and consumed.
  std::unique_ptr<PairSamples> next_pool();

  /// Fills one pool on the calling thread — the building block the
  /// producer uses; exposed for tests.
  static PairSamples make_pool(const graph::Graph& graph,
                               const PartitionPlan& plan, unsigned rotation,
                               unsigned part_a, unsigned part_b,
                               unsigned batch_B, std::uint64_t seed);

 private:
  void producer_loop();

  const graph::Graph& graph_;
  const PartitionPlan& plan_;
  unsigned batch_B_;
  unsigned rotations_;
  std::uint64_t seed_;
  std::size_t queue_capacity_;

  common::Mutex mutex_;
  common::CondVar not_empty_;
  common::CondVar not_full_;
  std::deque<std::unique_ptr<PairSamples>> queue_ GOSH_GUARDED_BY(mutex_);
  bool finished_ GOSH_GUARDED_BY(mutex_) = false;
  bool stopping_ GOSH_GUARDED_BY(mutex_) = false;
  std::thread producer_;
};

}  // namespace gosh::largegraph
