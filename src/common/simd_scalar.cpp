// Scalar reference kernels — always compiled, no ISA flags. These are the
// loops the pre-SIMD hot paths ran verbatim; every vector variant is
// parity-tested against this table, and GOSH_SIMD=scalar serves it in
// production as the portable fallback.
#include <cmath>

#include "gosh/common/simd.hpp"

namespace gosh::simd {
namespace {

float dot_scalar(const float* a, const float* b, unsigned d) {
  float acc = 0.0f;
  for (unsigned j = 0; j < d; ++j) acc += a[j] * b[j];
  return acc;
}

float l2_squared_scalar(const float* a, const float* b, unsigned d) {
  float acc = 0.0f;
  for (unsigned j = 0; j < d; ++j) {
    const float diff = a[j] - b[j];
    acc += diff * diff;
  }
  return acc;
}

float inverse_norm_scalar(const float* v, unsigned d) {
  const float sq = dot_scalar(v, v, d);
  return sq > 0.0f ? 1.0f / std::sqrt(sq) : 0.0f;
}

void pair_update_simultaneous_scalar(float* source, float* sample, unsigned d,
                                     float score) {
  for (unsigned j = 0; j < d; ++j) {
    const float vj = source[j];
    const float sj = sample[j];
    source[j] = vj + sj * score;
    sample[j] = sj + vj * score;
  }
}

void pair_update_sequential_scalar(float* source, float* sample, unsigned d,
                                   float score) {
  for (unsigned j = 0; j < d; ++j) {
    const float sj = sample[j];
    source[j] += sj * score;
    sample[j] = sj + source[j] * score;
  }
}

void dot_block_scalar(const float* queries, std::size_t count,
                      const float* rows, std::size_t row_count, unsigned d,
                      float* out) {
  for (std::size_t r = 0; r < row_count; ++r) {
    for (std::size_t i = 0; i < count; ++i) {
      out[r * count + i] = dot_scalar(queries + i * d, rows + r * d, d);
    }
  }
}

void l2_block_scalar(const float* queries, std::size_t count,
                     const float* rows, std::size_t row_count, unsigned d,
                     float* out) {
  for (std::size_t r = 0; r < row_count; ++r) {
    for (std::size_t i = 0; i < count; ++i) {
      out[r * count + i] = l2_squared_scalar(queries + i * d, rows + r * d, d);
    }
  }
}

constexpr KernelTable kScalarTable = {
    dot_scalar,
    l2_squared_scalar,
    inverse_norm_scalar,
    pair_update_simultaneous_scalar,
    pair_update_sequential_scalar,
    dot_block_scalar,
    l2_block_scalar,
};

}  // namespace

namespace detail {
const KernelTable* scalar_table() noexcept { return &kScalarTable; }
}  // namespace detail

}  // namespace gosh::simd
