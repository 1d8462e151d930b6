// Algorithm 1 — the single positive/negative update of GOSH/VERSE.
//
//   score <- (b - sigmoid(M[v] . M[sample])) * lr
//   M[v]      <- M[v]      + M[sample] * score
//   M[sample] <- M[sample] + M[v]      * score
//
// Two readings of line 3 exist: the paper's pseudocode sequentially uses
// the *updated* M[v], while register-staged GPU implementations (and plain
// SGD on the pair objective) use the *old* M[v]. The difference is a
// second-order term (score^2); both are provided and an ablation bench
// measures the effect. UpdateRule::kSimultaneous is the default as it
// matches the released implementations.
//
// The source row is expected to live in warp shared memory (the trainer
// stages it); the sample row is touched in global memory exactly once per
// element, as the paper prescribes. train_source() is the per-source
// sample loop every device kernel (resident, blocked and pair) runs around
// it; for_each_blocked_source() is the sampling half of the blocked
// resident kernel's pair task, for_each_pair_source() that of the blocked
// Algorithm 5 pair kernel's sub-part task.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>

#include "gosh/common/aligned_buffer.hpp"
#include "gosh/common/rng.hpp"
#include "gosh/common/sigmoid.hpp"
#include "gosh/common/simd.hpp"
#include "gosh/common/types.hpp"

namespace gosh::embedding {

/// Most negatives one positive may carry (the api's negative-samples cap);
/// train_source's draw buffer holds one positive and this many negatives.
inline constexpr unsigned kMaxNegativeSamples = 64;

enum class UpdateRule {
  /// Fused elementwise update using old values of both rows.
  kSimultaneous,
  /// Paper-literal: the sample update sees the already-updated source.
  kPaperSequential,
};

/// Callable wrapper so kernels can be instantiated with the exact sigmoid
/// where reproducibility against a closed form matters (tests, ablation).
struct ExactSigmoid {
  float operator()(float x) const noexcept { return sigmoid_exact(x); }
};

/// Dot product of two d-length rows (float accumulate, like the kernels).
/// Dispatches to the active gosh::simd ISA.
inline float dot(const emb_t* a, const emb_t* b, unsigned d) noexcept {
  return simd::kernels().dot(a, b, d);
}

/// One Algorithm 1 update. `b` is 1 for a positive sample, 0 for negative.
/// `source` may alias shared-memory staging; `sample` is the global row.
/// The dot and the dual axpy run on the active gosh::simd kernel table;
/// only the sigmoid evaluation stays scalar (one call per pair).
template <UpdateRule Rule, typename Sigmoid>
inline void update_embedding(emb_t* source, emb_t* sample, unsigned d,
                             float b, float lr,
                             const Sigmoid& sigmoid) noexcept {
  const simd::KernelTable& kernels = simd::kernels();
  const float score = (b - sigmoid(kernels.dot(source, sample, d))) * lr;
  if constexpr (Rule == UpdateRule::kSimultaneous) {
    kernels.pair_update_simultaneous(source, sample, d, score);
  } else {
    kernels.pair_update_sequential(source, sample, d, score);
  }
}

/// Runtime-dispatched form for callers configured by TrainConfig.
template <typename Sigmoid>
inline void update_embedding(emb_t* source, emb_t* sample, unsigned d,
                             float b, float lr, const Sigmoid& sigmoid,
                             UpdateRule rule) noexcept {
  if (rule == UpdateRule::kSimultaneous) {
    update_embedding<UpdateRule::kSimultaneous>(source, sample, d, b, lr,
                                                sigmoid);
  } else {
    update_embedding<UpdateRule::kPaperSequential>(source, sample, d, b, lr,
                                                   sigmoid);
  }
}

/// Asks the cache for every line of a d-wide row, for writing. Sample rows
/// are scattered over the matrix, beyond what the hardware prefetcher
/// predicts; issuing all of a source's rows before its first update
/// overlaps their misses instead of paying them one by one.
inline void prefetch_row(const emb_t* row, unsigned d) noexcept {
  const char* bytes = reinterpret_cast<const char*>(row);
  for (std::size_t offset = 0; offset < d * sizeof(emb_t);
       offset += kCacheLine) {
    __builtin_prefetch(bytes + offset, 1);
  }
}

/// One source's sample loop (Algorithm 3 lines 4-8), shared by every
/// device kernel: draws `positives` positives, then `ns` negatives,
/// prefetches the rows drawn, then applies the Algorithm 1 updates in draw
/// order. Each draw returns the sample's row, or nullptr for a draw the
/// kernel skips (no neighbour, a self sample). Draws never read the
/// matrix, so drawing ahead leaves the RNG stream and every update exactly
/// as an interleaved loop would; that also lets a source with more draws
/// than the buffer holds apply them in several batches. One positive and
/// up to kMaxNegativeSamples negatives make one batch. Returns the number
/// of updates applied.
template <typename Sigmoid, typename DrawPositive, typename DrawNegative>
inline unsigned train_source(emb_t* source, unsigned d, unsigned positives,
                             unsigned ns, float lr, const Sigmoid& sigmoid,
                             UpdateRule rule, DrawPositive&& draw_positive,
                             DrawNegative&& draw_negative) noexcept {
  constexpr unsigned kCapacity = 1 + kMaxNegativeSamples;
  // Only rows[0, count) is ever read, each slot written just before;
  // zero-filling all 65 slots per source would tax the hottest loop.
  emb_t* rows[kCapacity];
  unsigned count = 0;
  unsigned applied = 0;
  // Positives are drawn first, so rows[0, labeled) carry label 1.
  const auto apply = [&](unsigned labeled) {
    for (unsigned i = 0; i < count; ++i) prefetch_row(rows[i], d);
    for (unsigned i = 0; i < count; ++i) {
      update_embedding(source, rows[i], d, i < labeled ? 1.0f : 0.0f, lr,
                       sigmoid, rule);
    }
    applied += count;
    count = 0;
  };
  for (unsigned p = 0; p < positives; ++p) {
    if (count == kCapacity) apply(count);
    if (emb_t* const positive = draw_positive()) rows[count++] = positive;
  }
  if (count + ns > kCapacity) apply(count);
  unsigned labeled = count;
  for (unsigned k = 0; k < ns; ++k) {
    if (count == kCapacity) {
      apply(labeled);
      labeled = 0;
    }
    if (emb_t* const negative = draw_negative()) rows[count++] = negative;
  }
  apply(labeled);
  return applied;
}

/// One round of a blocked resident level as its pair tasks see it. A
/// blocked level (BlockedSchedule, trainer.hpp) trains in cycles of K
/// rounds over K contiguous parts; in each round every part meets one
/// partner part, and every part meets every part once per cycle.
struct BlockedRound {
  const eid_t* xadj = nullptr;  ///< the level's CSR, neighbour lists sorted
  const vid_t* adj = nullptr;
  /// The binomial chain's state, two counters per vertex: positives left
  /// to draw in this cycle, and neighbours left in parts not yet met.
  std::uint32_t* chain = nullptr;
  std::uint64_t seed = 0;    ///< source v draws from hash_combine(seed, v)
  unsigned cycle_draws = 0;  ///< positives per source per cycle
  unsigned negatives = 0;    ///< ns in a training round, 0 in positive-only
  bool cycle_start = false;  ///< the cycle's first round resets the chain
};

/// The sampling half of a blocked pair task: the sources [begin, end) of
/// one part, in order, against the partner part [partner_begin,
/// partner_end). A source's positives for the round come from a binomial
/// chain over the parts in the order the cycle meets them: in the round
/// that meets a part holding m of its neighbours, with n neighbours in
/// parts not yet met and c positives left to draw, it takes
/// Binomial(c, m / n) of them, each a uniform pick from the m. This is the
/// sequential form of a multinomial, so a cycle's positives have exactly
/// the distribution of cycle_draws independent uniform neighbour picks,
/// Algorithm 3's one per pass. Calls `train(src, positives, draw_positive,
/// draw_negative)` for every source with a draw to make; it must call
/// draw_positive `positives` times, then draw_negative `round.negatives`
/// times. Draws return raw vertex ids, a self sample included: positives
/// uniform over the neighbours in the partner part, negatives uniform over
/// the partner part.
template <typename Train>
inline void for_each_blocked_source(const BlockedRound& round, vid_t begin,
                                    vid_t end, vid_t partner_begin,
                                    vid_t partner_end, Train&& train) {
  const vid_t partner_size = partner_end - partner_begin;
  for (vid_t src = begin; src < end; ++src) {
    const vid_t* const neighbours = round.adj + round.xadj[src];
    const vid_t* const neighbours_end = round.adj + round.xadj[src + 1];
    std::uint32_t* const state = round.chain + 2 * std::size_t{src};
    if (round.cycle_start) {
      state[0] = round.cycle_draws;
      state[1] = static_cast<std::uint32_t>(neighbours_end - neighbours);
    }
    // Sorted adjacency: the neighbours in the partner part are one span.
    const vid_t* const held_begin =
        std::lower_bound(neighbours, neighbours_end, partner_begin);
    const vid_t* const held_end =
        std::lower_bound(held_begin, neighbours_end, partner_end);
    const auto held = static_cast<std::uint32_t>(held_end - held_begin);
    if (held == 0 && round.negatives == 0) continue;

    Rng rng(hash_combine(round.seed, src));
    unsigned positives = 0;
    if (held != 0) {
      if (held == state[1]) {
        positives = state[0];  // the last part met takes every draw left
      } else {
        // Bernoulli trials with integer odds: exactly Binomial(c, m / n).
        for (std::uint32_t i = 0; i < state[0]; ++i) {
          positives += rng.next_bounded(state[1]) < held;
        }
      }
      state[0] -= positives;
      state[1] -= held;
    }
    if (positives + round.negatives == 0) continue;
    train(
        src, positives,
        [&]() -> vid_t { return held_begin[rng.next_bounded(held)]; },
        [&]() -> vid_t {
          return partner_begin +
                 static_cast<vid_t>(rng.next_bounded(partner_size));
        });
  }
}

/// One visit of a blocked Algorithm 5 pair kernel (largegraph/trainer.hpp)
/// as its sampling sees it. A pair kernel above L2 trains the sources of a
/// part against a partner part of P rows cut into S contiguous sub-parts,
/// in S visits per source, one to each sub-part.
struct PairVisit {
  /// The source part's pool: B global ids per source, source-major, each
  /// a neighbour in the partner part or kInvalidVertex.
  const vid_t* pool = nullptr;
  vid_t part_begin = 0;  ///< the source part's first vertex (pool row 0)
  unsigned batch = 0;    ///< B
  vid_t partner_begin = 0, partner_end = 0;  ///< the partner part
  vid_t sub_begin = 0, sub_end = 0;          ///< the sub-part visited
  std::uint64_t seed = 0;  ///< source v draws from hash_combine(seed, v)
  /// B * ns, a source's negatives over its S visits.
  unsigned negatives = 0;
};

/// The sampling half of a blocked pair-kernel task: the sources [begin,
/// end) of one sub-part, in order, visiting the sub-part `visit` names.
/// Over its S visits a source makes exactly the draws of the unblocked
/// pair kernel. Each of its B pool entries is drawn in the visit to the
/// sub-part holding it (kInvalidVertex in none). Its B * ns negatives are
/// split over the sub-parts by systematic sampling: negative k sits at
/// k * P + u on a line of B * ns * P points, u uniform in [0, P) per source,
/// and the visit to a sub-part of rows [lo, hi) takes those in [lo * B * ns,
/// hi * B * ns), within one of its share B * ns * (hi - lo) / P, each a
/// uniform pick from the sub-part; a negative's marginal stays uniform over
/// the partner part. Calls `train(src, positives, negatives,
/// draw_positive, draw_negative)` for every source with a draw to make; it
/// must call draw_positive `positives` times, then draw_negative
/// `negatives` times. Draws return raw vertex ids, a self sample included.
template <typename Train>
inline void for_each_pair_source(const PairVisit& visit, vid_t begin,
                                 vid_t end, Train&& train) {
  const std::uint64_t part_rows = visit.partner_end - visit.partner_begin;
  const std::uint64_t total = visit.negatives;
  const std::uint64_t lo = (visit.sub_begin - visit.partner_begin) * total;
  const std::uint64_t hi = (visit.sub_end - visit.partner_begin) * total;
  const vid_t sub_size = visit.sub_end - visit.sub_begin;
  const auto held = [&visit](vid_t id) {
    return id >= visit.sub_begin && id < visit.sub_end;
  };
  for (vid_t src = begin; src < end; ++src) {
    const vid_t* entry =
        visit.pool + std::size_t{src - visit.part_begin} * visit.batch;
    unsigned positives = 0;
    for (unsigned i = 0; i < visit.batch; ++i) positives += held(entry[i]);
    const std::uint64_t source_seed = hash_combine(visit.seed, src);
    // Negatives at k * P + u below x: the k < ceil((x - u) / P).
    const std::uint64_t u = Rng(source_seed).next_bounded(part_rows);
    const auto below = [&](std::uint64_t x) -> std::uint64_t {
      return x > u ? std::min(total, (x - u + part_rows - 1) / part_rows) : 0;
    };
    const auto negatives = static_cast<unsigned>(below(hi) - below(lo));
    if (positives + negatives == 0) continue;
    Rng rng(hash_combine(source_seed, visit.sub_begin));
    train(
        src, positives, negatives,
        [&]() -> vid_t {
          while (!held(*entry)) ++entry;
          return *entry++;
        },
        [&]() -> vid_t {
          return visit.sub_begin +
                 static_cast<vid_t>(rng.next_bounded(sub_size));
        });
  }
}

}  // namespace gosh::embedding
