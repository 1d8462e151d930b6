// aarch64 NEON kernels (4 float lanes). NEON is baseline on aarch64, so
// this unit needs no extra compile flags — it is simply empty elsewhere.
// Same accumulation-order contract as the x86 units: one 4-wide
// accumulator per query, shared horizontal sum, ascending scalar tail.
#include "gosh/common/simd.hpp"

#if defined(__aarch64__)

#include <arm_neon.h>

#include <cmath>

namespace gosh::simd {
namespace {

float dot_neon(const float* a, const float* b, unsigned d) {
  float32x4_t acc = vdupq_n_f32(0.0f);
  unsigned j = 0;
  for (; j + 4 <= d; j += 4) {
    acc = vfmaq_f32(acc, vld1q_f32(a + j), vld1q_f32(b + j));
  }
  float sum = vaddvq_f32(acc);
  // std::fma, not a separate mul+add: pins the tail against the
  // compiler's contraction choices so dot and dot_block stay bitwise
  // interchangeable (and it is a single instruction at this ISA).
  for (; j < d; ++j) sum = std::fma(a[j], b[j], sum);
  return sum;
}

float l2_squared_neon(const float* a, const float* b, unsigned d) {
  float32x4_t acc = vdupq_n_f32(0.0f);
  unsigned j = 0;
  for (; j + 4 <= d; j += 4) {
    const float32x4_t diff = vsubq_f32(vld1q_f32(a + j), vld1q_f32(b + j));
    acc = vfmaq_f32(acc, diff, diff);
  }
  float sum = vaddvq_f32(acc);
  for (; j < d; ++j) {
    const float diff = a[j] - b[j];
    sum = std::fma(diff, diff, sum);
  }
  return sum;
}

float inverse_norm_neon(const float* v, unsigned d) {
  const float sq = dot_neon(v, v, d);
  return sq > 0.0f ? 1.0f / std::sqrt(sq) : 0.0f;
}

void pair_update_simultaneous_neon(float* source, float* sample, unsigned d,
                                   float score) {
  const float32x4_t sc = vdupq_n_f32(score);
  unsigned j = 0;
  for (; j + 4 <= d; j += 4) {
    const float32x4_t v = vld1q_f32(source + j);
    const float32x4_t s = vld1q_f32(sample + j);
    vst1q_f32(source + j, vfmaq_f32(v, s, sc));
    vst1q_f32(sample + j, vfmaq_f32(s, v, sc));
  }
  for (; j < d; ++j) {
    const float vj = source[j];
    const float sj = sample[j];
    source[j] = std::fma(sj, score, vj);
    sample[j] = std::fma(vj, score, sj);
  }
}

void pair_update_sequential_neon(float* source, float* sample, unsigned d,
                                 float score) {
  const float32x4_t sc = vdupq_n_f32(score);
  unsigned j = 0;
  for (; j + 4 <= d; j += 4) {
    const float32x4_t s = vld1q_f32(sample + j);
    const float32x4_t v = vfmaq_f32(vld1q_f32(source + j), s, sc);
    vst1q_f32(source + j, v);
    vst1q_f32(sample + j, vfmaq_f32(s, v, sc));
  }
  for (; j < d; ++j) {
    const float sj = sample[j];
    const float vj = std::fma(sj, score, source[j]);
    source[j] = vj;
    sample[j] = std::fma(vj, score, sj);
  }
}

// One stored row against the query block; the block kernels below loop
// it over the tile.
void dot_row_neon(const float* queries, std::size_t count, const float* row,
                  unsigned d, float* out) {
  std::size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    const float* q0 = queries + (i + 0) * d;
    const float* q1 = queries + (i + 1) * d;
    const float* q2 = queries + (i + 2) * d;
    const float* q3 = queries + (i + 3) * d;
    float32x4_t a0 = vdupq_n_f32(0.0f), a1 = vdupq_n_f32(0.0f);
    float32x4_t a2 = vdupq_n_f32(0.0f), a3 = vdupq_n_f32(0.0f);
    unsigned j = 0;
    for (; j + 4 <= d; j += 4) {
      const float32x4_t r = vld1q_f32(row + j);
      a0 = vfmaq_f32(a0, vld1q_f32(q0 + j), r);
      a1 = vfmaq_f32(a1, vld1q_f32(q1 + j), r);
      a2 = vfmaq_f32(a2, vld1q_f32(q2 + j), r);
      a3 = vfmaq_f32(a3, vld1q_f32(q3 + j), r);
    }
    float s0 = vaddvq_f32(a0), s1 = vaddvq_f32(a1);
    float s2 = vaddvq_f32(a2), s3 = vaddvq_f32(a3);
    for (; j < d; ++j) {
      const float rj = row[j];
      s0 = std::fma(q0[j], rj, s0);
      s1 = std::fma(q1[j], rj, s1);
      s2 = std::fma(q2[j], rj, s2);
      s3 = std::fma(q3[j], rj, s3);
    }
    out[i + 0] = s0;
    out[i + 1] = s1;
    out[i + 2] = s2;
    out[i + 3] = s3;
  }
  for (; i < count; ++i) out[i] = dot_neon(queries + i * d, row, d);
}

void l2_row_neon(const float* queries, std::size_t count, const float* row,
                 unsigned d, float* out) {
  std::size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    const float* q0 = queries + (i + 0) * d;
    const float* q1 = queries + (i + 1) * d;
    const float* q2 = queries + (i + 2) * d;
    const float* q3 = queries + (i + 3) * d;
    float32x4_t a0 = vdupq_n_f32(0.0f), a1 = vdupq_n_f32(0.0f);
    float32x4_t a2 = vdupq_n_f32(0.0f), a3 = vdupq_n_f32(0.0f);
    unsigned j = 0;
    for (; j + 4 <= d; j += 4) {
      const float32x4_t r = vld1q_f32(row + j);
      const float32x4_t d0 = vsubq_f32(vld1q_f32(q0 + j), r);
      const float32x4_t d1 = vsubq_f32(vld1q_f32(q1 + j), r);
      const float32x4_t d2 = vsubq_f32(vld1q_f32(q2 + j), r);
      const float32x4_t d3 = vsubq_f32(vld1q_f32(q3 + j), r);
      a0 = vfmaq_f32(a0, d0, d0);
      a1 = vfmaq_f32(a1, d1, d1);
      a2 = vfmaq_f32(a2, d2, d2);
      a3 = vfmaq_f32(a3, d3, d3);
    }
    float s0 = vaddvq_f32(a0), s1 = vaddvq_f32(a1);
    float s2 = vaddvq_f32(a2), s3 = vaddvq_f32(a3);
    for (; j < d; ++j) {
      const float rj = row[j];
      const float e0 = q0[j] - rj;
      const float e1 = q1[j] - rj;
      const float e2 = q2[j] - rj;
      const float e3 = q3[j] - rj;
      s0 = std::fma(e0, e0, s0);
      s1 = std::fma(e1, e1, s1);
      s2 = std::fma(e2, e2, s2);
      s3 = std::fma(e3, e3, s3);
    }
    out[i + 0] = s0;
    out[i + 1] = s1;
    out[i + 2] = s2;
    out[i + 3] = s3;
  }
  for (; i < count; ++i) out[i] = l2_squared_neon(queries + i * d, row, d);
}

void dot_block_neon(const float* queries, std::size_t count, const float* rows,
                    std::size_t row_count, unsigned d, float* out) {
  for (std::size_t r = 0; r < row_count; ++r) {
    dot_row_neon(queries, count, rows + r * d, d, out + r * count);
  }
}

void l2_block_neon(const float* queries, std::size_t count, const float* rows,
                   std::size_t row_count, unsigned d, float* out) {
  for (std::size_t r = 0; r < row_count; ++r) {
    l2_row_neon(queries, count, rows + r * d, d, out + r * count);
  }
}

constexpr KernelTable kNeonTable = {
    dot_neon,
    l2_squared_neon,
    inverse_norm_neon,
    pair_update_simultaneous_neon,
    pair_update_sequential_neon,
    dot_block_neon,
    l2_block_neon,
};

}  // namespace

namespace detail {
const KernelTable* neon_table() noexcept { return &kNeonTable; }
}  // namespace detail

}  // namespace gosh::simd

#else  // not aarch64: the ISA is not compiled in.

namespace gosh::simd::detail {
const KernelTable* neon_table() noexcept { return nullptr; }
}  // namespace gosh::simd::detail

#endif
