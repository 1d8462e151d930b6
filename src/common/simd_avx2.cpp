// AVX2 + FMA kernels (8 float lanes). This translation unit is the only
// x86 one compiled with -mavx2 -mfma; nothing here may run before the
// dispatcher has checked CPUID, which is why only the table accessor is
// visible outside.
//
// Accumulation order is part of the contract (see simd.hpp): dot and every
// (query, row) pair of dot_block use one 8-wide accumulator advanced in
// ascending j, the identical horizontal sum, and the identical ascending
// scalar tail — so a pair scored through either entry point gets the
// bit-identical float.
#include "gosh/common/simd.hpp"

#if defined(GOSH_SIMD_ENABLE_AVX2)

#include <immintrin.h>

#include <cmath>

namespace gosh::simd {
namespace {

inline float hsum(__m256 v) noexcept {
  __m128 lo = _mm256_castps256_ps128(v);
  const __m128 hi = _mm256_extractf128_ps(v, 1);
  lo = _mm_add_ps(lo, hi);
  lo = _mm_add_ps(lo, _mm_movehl_ps(lo, lo));
  lo = _mm_add_ss(lo, _mm_shuffle_ps(lo, lo, 1));
  return _mm_cvtss_f32(lo);
}

// The two scan metrics as one accumulation step, vector and scalar tail.
// Every kernel below is written once over these, so dot, l2_squared and
// every lane of the block kernels run the same operations in the same
// order. std::fma, not a separate mul+add, in the tail: it pins the tail
// against the compiler's contraction choices (and is one instruction at
// this ISA).
struct DotStep {
  static __m256 step(__m256 acc, __m256 q, __m256 r) noexcept {
    return _mm256_fmadd_ps(q, r, acc);
  }
  static float step(float acc, float q, float r) noexcept {
    return std::fma(q, r, acc);
  }
};

struct L2Step {
  static __m256 step(__m256 acc, __m256 q, __m256 r) noexcept {
    const __m256 diff = _mm256_sub_ps(q, r);
    return _mm256_fmadd_ps(diff, diff, acc);
  }
  static float step(float acc, float q, float r) noexcept {
    const float diff = q - r;
    return std::fma(diff, diff, acc);
  }
};

template <typename Op>
[[gnu::always_inline]] inline float pair(const float* a, const float* b,
                                         unsigned d) noexcept {
  __m256 acc = _mm256_setzero_ps();
  unsigned j = 0;
  for (; j + 8 <= d; j += 8) {
    acc = Op::step(acc, _mm256_loadu_ps(a + j), _mm256_loadu_ps(b + j));
  }
  float sum = hsum(acc);
  for (; j < d; ++j) sum = Op::step(sum, a[j], b[j]);
  return sum;
}

float dot_avx2(const float* a, const float* b, unsigned d) {
  return pair<DotStep>(a, b, d);
}

float l2_squared_avx2(const float* a, const float* b, unsigned d) {
  return pair<L2Step>(a, b, d);
}

float inverse_norm_avx2(const float* v, unsigned d) {
  const float sq = dot_avx2(v, v, d);
  // Exact scalar sqrt, not a reciprocal approximation: cosine scores feed
  // tie-broken rankings, a 12-bit rsqrt would reorder near-ties.
  return sq > 0.0f ? 1.0f / std::sqrt(sq) : 0.0f;
}

void pair_update_simultaneous_avx2(float* source, float* sample, unsigned d,
                                   float score) {
  const __m256 sc = _mm256_set1_ps(score);
  unsigned j = 0;
  for (; j + 8 <= d; j += 8) {
    const __m256 v = _mm256_loadu_ps(source + j);
    const __m256 s = _mm256_loadu_ps(sample + j);
    _mm256_storeu_ps(source + j, _mm256_fmadd_ps(s, sc, v));
    _mm256_storeu_ps(sample + j, _mm256_fmadd_ps(v, sc, s));
  }
  for (; j < d; ++j) {
    const float vj = source[j];
    const float sj = sample[j];
    source[j] = std::fma(sj, score, vj);
    sample[j] = std::fma(vj, score, sj);
  }
}

void pair_update_sequential_avx2(float* source, float* sample, unsigned d,
                                 float score) {
  const __m256 sc = _mm256_set1_ps(score);
  unsigned j = 0;
  for (; j + 8 <= d; j += 8) {
    const __m256 s = _mm256_loadu_ps(sample + j);
    const __m256 v =
        _mm256_fmadd_ps(s, sc, _mm256_loadu_ps(source + j));
    _mm256_storeu_ps(source + j, v);
    _mm256_storeu_ps(sample + j, _mm256_fmadd_ps(v, sc, s));
  }
  for (; j < d; ++j) {
    const float sj = sample[j];
    const float vj = std::fma(sj, score, source[j]);
    source[j] = vj;
    sample[j] = std::fma(vj, score, sj);
  }
}

// Four back-to-back queries against one row: the queries share every row
// load, each keeps its own accumulator (four independent FMA chains also
// hide the FMA latency a single-query dot cannot). out[0..3] get the four
// scores.
template <typename Op>
[[gnu::always_inline]] inline void four_queries(const float* q,
                                                const float* row, unsigned d,
                                                float* out) noexcept {
  const float* q1 = q + d;
  const float* q2 = q + 2 * static_cast<std::size_t>(d);
  const float* q3 = q + 3 * static_cast<std::size_t>(d);
  __m256 a0 = _mm256_setzero_ps();
  __m256 a1 = _mm256_setzero_ps();
  __m256 a2 = _mm256_setzero_ps();
  __m256 a3 = _mm256_setzero_ps();
  unsigned j = 0;
  for (; j + 8 <= d; j += 8) {
    const __m256 r = _mm256_loadu_ps(row + j);
    a0 = Op::step(a0, _mm256_loadu_ps(q + j), r);
    a1 = Op::step(a1, _mm256_loadu_ps(q1 + j), r);
    a2 = Op::step(a2, _mm256_loadu_ps(q2 + j), r);
    a3 = Op::step(a3, _mm256_loadu_ps(q3 + j), r);
  }
  float s0 = hsum(a0), s1 = hsum(a1), s2 = hsum(a2), s3 = hsum(a3);
  for (; j < d; ++j) {
    const float rj = row[j];
    s0 = Op::step(s0, q[j], rj);
    s1 = Op::step(s1, q1[j], rj);
    s2 = Op::step(s2, q2[j], rj);
    s3 = Op::step(s3, q3[j], rj);
  }
  out[0] = s0;
  out[1] = s1;
  out[2] = s2;
  out[3] = s3;
}

// One query against four back-to-back rows: the rows share every query
// load, each keeps its own accumulator. Row r's score goes to
// out[r * stride].
template <typename Op>
[[gnu::always_inline]] inline void four_rows(const float* q, const float* row,
                                             unsigned d, std::size_t stride,
                                             float* out) noexcept {
  const float* r1 = row + d;
  const float* r2 = row + 2 * static_cast<std::size_t>(d);
  const float* r3 = row + 3 * static_cast<std::size_t>(d);
  __m256 a0 = _mm256_setzero_ps();
  __m256 a1 = _mm256_setzero_ps();
  __m256 a2 = _mm256_setzero_ps();
  __m256 a3 = _mm256_setzero_ps();
  unsigned j = 0;
  for (; j + 8 <= d; j += 8) {
    const __m256 qv = _mm256_loadu_ps(q + j);
    a0 = Op::step(a0, qv, _mm256_loadu_ps(row + j));
    a1 = Op::step(a1, qv, _mm256_loadu_ps(r1 + j));
    a2 = Op::step(a2, qv, _mm256_loadu_ps(r2 + j));
    a3 = Op::step(a3, qv, _mm256_loadu_ps(r3 + j));
  }
  float s0 = hsum(a0), s1 = hsum(a1), s2 = hsum(a2), s3 = hsum(a3);
  for (; j < d; ++j) {
    const float qj = q[j];
    s0 = Op::step(s0, qj, row[j]);
    s1 = Op::step(s1, qj, r1[j]);
    s2 = Op::step(s2, qj, r2[j]);
    s3 = Op::step(s3, qj, r3[j]);
  }
  out[0] = s0;
  out[stride] = s1;
  out[2 * stride] = s2;
  out[3 * stride] = s3;
}

// The tile: rows four at a time, each group scored by four-query register
// tiles and then, for the last zero to three queries, by four-row tiles;
// leftover rows fall back to one pair() per leftover query.
template <typename Op>
void tile(const float* queries, std::size_t count, const float* rows,
          std::size_t row_count, unsigned d, float* out) noexcept {
  const std::size_t grouped = count - count % 4;
  std::size_t r = 0;
  for (; r + 4 <= row_count; r += 4) {
    const float* row = rows + r * d;
    float* o = out + r * count;
    for (std::size_t k = 0; k < 4; ++k) {
      for (std::size_t i = 0; i < grouped; i += 4) {
        four_queries<Op>(queries + i * d, row + k * d, d, o + k * count + i);
      }
    }
    for (std::size_t i = grouped; i < count; ++i) {
      four_rows<Op>(queries + i * d, row, d, count, o + i);
    }
  }
  for (; r < row_count; ++r) {
    const float* row = rows + r * d;
    float* o = out + r * count;
    for (std::size_t i = 0; i < grouped; i += 4) {
      four_queries<Op>(queries + i * d, row, d, o + i);
    }
    for (std::size_t i = grouped; i < count; ++i) {
      o[i] = pair<Op>(queries + i * d, row, d);
    }
  }
}

void dot_block_avx2(const float* queries, std::size_t count, const float* rows,
                    std::size_t row_count, unsigned d, float* out) {
  tile<DotStep>(queries, count, rows, row_count, d, out);
}

void l2_block_avx2(const float* queries, std::size_t count, const float* rows,
                   std::size_t row_count, unsigned d, float* out) {
  tile<L2Step>(queries, count, rows, row_count, d, out);
}

constexpr KernelTable kAvx2Table = {
    dot_avx2,
    l2_squared_avx2,
    inverse_norm_avx2,
    pair_update_simultaneous_avx2,
    pair_update_sequential_avx2,
    dot_block_avx2,
    l2_block_avx2,
};

}  // namespace

namespace detail {
const KernelTable* avx2_table() noexcept { return &kAvx2Table; }
}  // namespace detail

}  // namespace gosh::simd

#else  // no -mavx2 -mfma from the build system: the ISA is not compiled in.

namespace gosh::simd::detail {
const KernelTable* avx2_table() noexcept { return nullptr; }
}  // namespace gosh::simd::detail

#endif
