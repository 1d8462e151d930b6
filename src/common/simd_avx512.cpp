// AVX-512F kernels (16 float lanes). Only x86 translation unit compiled
// with -mavx512f; same accumulation-order contract as the AVX2 unit — one
// 16-wide accumulator per (query, row) pair, a shared horizontal sum, an
// ascending scalar tail — so dot and dot_block agree bitwise per pair at
// this ISA.
#include "gosh/common/simd.hpp"

#if defined(GOSH_SIMD_ENABLE_AVX512)

#include <immintrin.h>

#include <cmath>

namespace gosh::simd {
namespace {

inline float hsum(__m512 v) noexcept {
  // extractf64x4 (AVX-512F) rather than extractf32x8 (needs AVX-512DQ):
  // the dispatch only checks the F foundation.
  const __m256 upper =
      _mm256_castpd_ps(_mm512_extractf64x4_pd(_mm512_castps_pd(v), 1));
  __m256 half = _mm256_add_ps(_mm512_castps512_ps256(v), upper);
  __m128 lo = _mm256_castps256_ps128(half);
  const __m128 hi = _mm256_extractf128_ps(half, 1);
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
  static __m512 step(__m512 acc, __m512 q, __m512 r) noexcept {
    return _mm512_fmadd_ps(q, r, acc);
  }
  static float step(float acc, float q, float r) noexcept {
    return std::fma(q, r, acc);
  }
};

struct L2Step {
  static __m512 step(__m512 acc, __m512 q, __m512 r) noexcept {
    const __m512 diff = _mm512_sub_ps(q, r);
    return _mm512_fmadd_ps(diff, diff, acc);
  }
  static float step(float acc, float q, float r) noexcept {
    const float diff = q - r;
    return std::fma(diff, diff, acc);
  }
};

template <typename Op>
[[gnu::always_inline]] inline float pair(const float* a, const float* b,
                                         unsigned d) noexcept {
  __m512 acc = _mm512_setzero_ps();
  unsigned j = 0;
  for (; j + 16 <= d; j += 16) {
    acc = Op::step(acc, _mm512_loadu_ps(a + j), _mm512_loadu_ps(b + j));
  }
  float sum = hsum(acc);
  for (; j < d; ++j) sum = Op::step(sum, a[j], b[j]);
  return sum;
}

float dot_avx512(const float* a, const float* b, unsigned d) {
  return pair<DotStep>(a, b, d);
}

float l2_squared_avx512(const float* a, const float* b, unsigned d) {
  return pair<L2Step>(a, b, d);
}

float inverse_norm_avx512(const float* v, unsigned d) {
  const float sq = dot_avx512(v, v, d);
  return sq > 0.0f ? 1.0f / std::sqrt(sq) : 0.0f;
}

void pair_update_simultaneous_avx512(float* source, float* sample, unsigned d,
                                     float score) {
  const __m512 sc = _mm512_set1_ps(score);
  unsigned j = 0;
  for (; j + 16 <= d; j += 16) {
    const __m512 v = _mm512_loadu_ps(source + j);
    const __m512 s = _mm512_loadu_ps(sample + j);
    _mm512_storeu_ps(source + j, _mm512_fmadd_ps(s, sc, v));
    _mm512_storeu_ps(sample + j, _mm512_fmadd_ps(v, sc, s));
  }
  if (j < d) {
    const __mmask16 tail = static_cast<__mmask16>((1u << (d - j)) - 1u);
    const __m512 v = _mm512_maskz_loadu_ps(tail, source + j);
    const __m512 s = _mm512_maskz_loadu_ps(tail, sample + j);
    _mm512_mask_storeu_ps(source + j, tail, _mm512_fmadd_ps(s, sc, v));
    _mm512_mask_storeu_ps(sample + j, tail, _mm512_fmadd_ps(v, sc, s));
  }
}

void pair_update_sequential_avx512(float* source, float* sample, unsigned d,
                                   float score) {
  const __m512 sc = _mm512_set1_ps(score);
  unsigned j = 0;
  for (; j + 16 <= d; j += 16) {
    const __m512 s = _mm512_loadu_ps(sample + j);
    const __m512 v = _mm512_fmadd_ps(s, sc, _mm512_loadu_ps(source + j));
    _mm512_storeu_ps(source + j, v);
    _mm512_storeu_ps(sample + j, _mm512_fmadd_ps(v, sc, s));
  }
  if (j < d) {
    const __mmask16 tail = static_cast<__mmask16>((1u << (d - j)) - 1u);
    const __m512 s = _mm512_maskz_loadu_ps(tail, sample + j);
    const __m512 v =
        _mm512_fmadd_ps(s, sc, _mm512_maskz_loadu_ps(tail, source + j));
    _mm512_mask_storeu_ps(source + j, tail, v);
    _mm512_mask_storeu_ps(sample + j, tail, _mm512_fmadd_ps(v, sc, s));
  }
}

// Four back-to-back queries against one row: the queries share every row
// load, each keeps its own accumulator. out[0..3] get the four scores.
template <typename Op>
[[gnu::always_inline]] inline void four_queries(const float* q,
                                                const float* row, unsigned d,
                                                float* out) noexcept {
  const float* q1 = q + d;
  const float* q2 = q + 2 * static_cast<std::size_t>(d);
  const float* q3 = q + 3 * static_cast<std::size_t>(d);
  __m512 a0 = _mm512_setzero_ps();
  __m512 a1 = _mm512_setzero_ps();
  __m512 a2 = _mm512_setzero_ps();
  __m512 a3 = _mm512_setzero_ps();
  unsigned j = 0;
  for (; j + 16 <= d; j += 16) {
    const __m512 r = _mm512_loadu_ps(row + j);
    a0 = Op::step(a0, _mm512_loadu_ps(q + j), r);
    a1 = Op::step(a1, _mm512_loadu_ps(q1 + j), r);
    a2 = Op::step(a2, _mm512_loadu_ps(q2 + j), r);
    a3 = Op::step(a3, _mm512_loadu_ps(q3 + j), r);
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
  __m512 a0 = _mm512_setzero_ps();
  __m512 a1 = _mm512_setzero_ps();
  __m512 a2 = _mm512_setzero_ps();
  __m512 a3 = _mm512_setzero_ps();
  unsigned j = 0;
  for (; j + 16 <= d; j += 16) {
    const __m512 qv = _mm512_loadu_ps(q + j);
    a0 = Op::step(a0, qv, _mm512_loadu_ps(row + j));
    a1 = Op::step(a1, qv, _mm512_loadu_ps(r1 + j));
    a2 = Op::step(a2, qv, _mm512_loadu_ps(r2 + j));
    a3 = Op::step(a3, qv, _mm512_loadu_ps(r3 + j));
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

void dot_block_avx512(const float* queries, std::size_t count,
                      const float* rows, std::size_t row_count, unsigned d,
                      float* out) {
  tile<DotStep>(queries, count, rows, row_count, d, out);
}

void l2_block_avx512(const float* queries, std::size_t count,
                     const float* rows, std::size_t row_count, unsigned d,
                     float* out) {
  tile<L2Step>(queries, count, rows, row_count, d, out);
}

constexpr KernelTable kAvx512Table = {
    dot_avx512,
    l2_squared_avx512,
    inverse_norm_avx512,
    pair_update_simultaneous_avx512,
    pair_update_sequential_avx512,
    dot_block_avx512,
    l2_block_avx512,
};

}  // namespace

namespace detail {
const KernelTable* avx512_table() noexcept { return &kAvx512Table; }
}  // namespace detail

}  // namespace gosh::simd

#else  // no -mavx512f from the build system: the ISA is not compiled in.

namespace gosh::simd::detail {
const KernelTable* avx512_table() noexcept { return nullptr; }
}  // namespace gosh::simd::detail

#endif
