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
// sample loop both device kernels (resident and pair) run around it.
#pragma once

#include <cassert>
#include <span>

#include "gosh/common/aligned_buffer.hpp"
#include "gosh/common/sigmoid.hpp"
#include "gosh/common/simd.hpp"
#include "gosh/common/types.hpp"

namespace gosh::embedding {

/// Most negatives one positive may carry (the api's negative-samples cap);
/// it bounds train_source's draw buffer, so the trainers reject more.
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

/// One source's sample loop (Algorithm 3 lines 4-8), shared by the
/// resident and the pair kernel: draws the positive, then `ns` negatives,
/// prefetches the rows drawn, then applies the Algorithm 1 updates in draw
/// order. Each draw returns the sample's row, or nullptr for a draw the
/// kernel skips (no neighbour, a self sample). Draws never read the
/// matrix, so drawing ahead leaves the RNG stream and every update exactly
/// as an interleaved loop would. Returns the number of updates applied.
template <typename Sigmoid, typename DrawPositive, typename DrawNegative>
inline unsigned train_source(emb_t* source, unsigned d, unsigned ns,
                             float lr, const Sigmoid& sigmoid,
                             UpdateRule rule, DrawPositive&& draw_positive,
                             DrawNegative&& draw_negative) noexcept {
  assert(ns <= kMaxNegativeSamples);
  // Only rows[0, count) is ever read, each slot written just before;
  // zero-filling all 65 slots per source would tax the hottest loop.
  emb_t* rows[1 + kMaxNegativeSamples];
  unsigned count = 0;
  emb_t* const positive = draw_positive();
  if (positive != nullptr) rows[count++] = positive;
  for (unsigned k = 0; k < ns; ++k) {
    if (emb_t* const negative = draw_negative()) rows[count++] = negative;
  }
  for (unsigned i = 0; i < count; ++i) prefetch_row(rows[i], d);
  for (unsigned i = 0; i < count; ++i) {
    const float label = i == 0 && positive != nullptr ? 1.0f : 0.0f;
    update_embedding(source, rows[i], d, label, lr, sigmoid, rule);
  }
  return count;
}

}  // namespace gosh::embedding
