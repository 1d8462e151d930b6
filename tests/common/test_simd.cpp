// gosh::simd — SIMD-vs-scalar parity across every dim 1..130 (odd tails
// and non-multiples of every vector width included), block-kernel
// consistency with the single-pair kernels over query blocks and row
// tiles, dispatch resolution, and the force/restore switch.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "gosh/common/rng.hpp"
#include "gosh/common/sigmoid.hpp"
#include "gosh/common/simd.hpp"
#include "gosh/embedding/update.hpp"

namespace gosh::simd {
namespace {

constexpr unsigned kMaxDim = 130;

// |simd - scalar| must stay within 1e-5 relative to the magnitude of the
// scalar reference: the ISAs accumulate in different orders (and contract
// with FMA), so bit equality across tables is not expected — closeness is.
void expect_close(float got, float ref, const char* what, unsigned d,
                  std::string_view isa) {
  EXPECT_NEAR(got, ref, 1e-5f * (1.0f + std::fabs(ref)))
      << what << " d=" << d << " isa=" << isa;
}

std::vector<Isa> available_isas() {
  std::vector<Isa> isas;
  for (const Isa isa :
       {Isa::kScalar, Isa::kAvx2, Isa::kAvx512, Isa::kNeon}) {
    if (kernel_table(isa) != nullptr) isas.push_back(isa);
  }
  return isas;
}

std::vector<float> random_vector(std::size_t n, Rng& rng) {
  std::vector<float> v(n);
  for (float& x : v) x = rng.next_float() - 0.5f;
  return v;
}

TEST(Simd, ScalarTableIsAlwaysAvailable) {
  ASSERT_NE(kernel_table(Isa::kScalar), nullptr);
  EXPECT_NE(kernel_table(best_supported_isa()), nullptr);
  // The active table is one of the available ones.
  EXPECT_NE(kernel_table(active_isa()), nullptr);
}

TEST(Simd, NamesRoundTrip) {
  for (const Isa isa :
       {Isa::kScalar, Isa::kAvx2, Isa::kAvx512, Isa::kNeon}) {
    const auto parsed = parse_isa(isa_name(isa));
    ASSERT_TRUE(parsed.has_value()) << isa_name(isa);
    EXPECT_EQ(*parsed, isa);
  }
  EXPECT_FALSE(parse_isa("avx1024").has_value());
  EXPECT_FALSE(parse_isa("").has_value());
}

TEST(Simd, DotAndL2AndNormMatchScalarAcrossAllDims) {
  const KernelTable& scalar = *kernel_table(Isa::kScalar);
  Rng rng(11);
  for (const Isa isa : available_isas()) {
    const KernelTable& table = *kernel_table(isa);
    for (unsigned d = 1; d <= kMaxDim; ++d) {
      const auto a = random_vector(d, rng);
      const auto b = random_vector(d, rng);
      expect_close(table.dot(a.data(), b.data(), d),
                   scalar.dot(a.data(), b.data(), d), "dot", d,
                   isa_name(isa));
      expect_close(table.l2_squared(a.data(), b.data(), d),
                   scalar.l2_squared(a.data(), b.data(), d), "l2_squared", d,
                   isa_name(isa));
      expect_close(table.inverse_norm(a.data(), d),
                   scalar.inverse_norm(a.data(), d), "inverse_norm", d,
                   isa_name(isa));
    }
    // Zero vector: inverse_norm degrades to 0, never NaN/inf.
    const std::vector<float> zero(kMaxDim, 0.0f);
    for (const unsigned d : {1u, 7u, 32u, kMaxDim}) {
      EXPECT_EQ(table.inverse_norm(zero.data(), d), 0.0f) << isa_name(isa);
    }
  }
}

TEST(Simd, FusedPairUpdateMatchesScalarAcrossAllDims) {
  const KernelTable& scalar = *kernel_table(Isa::kScalar);
  Rng rng(13);
  for (const Isa isa : available_isas()) {
    const KernelTable& table = *kernel_table(isa);
    for (unsigned d = 1; d <= kMaxDim; ++d) {
      const auto source = random_vector(d, rng);
      const auto sample = random_vector(d, rng);
      const float score = 0.07f;
      for (const bool simultaneous : {true, false}) {
        auto src_simd = source, smp_simd = sample;
        auto src_ref = source, smp_ref = sample;
        if (simultaneous) {
          table.pair_update_simultaneous(src_simd.data(), smp_simd.data(), d,
                                         score);
          scalar.pair_update_simultaneous(src_ref.data(), smp_ref.data(), d,
                                          score);
        } else {
          table.pair_update_sequential(src_simd.data(), smp_simd.data(), d,
                                       score);
          scalar.pair_update_sequential(src_ref.data(), smp_ref.data(), d,
                                        score);
        }
        for (unsigned j = 0; j < d; ++j) {
          expect_close(src_simd[j], src_ref[j], "pair_update source", d,
                       isa_name(isa));
          expect_close(smp_simd[j], smp_ref[j], "pair_update sample", d,
                       isa_name(isa));
        }
      }
    }
  }
}

// Full Algorithm 1 through the public entry point: SIMD dot feeding the
// sigmoid feeding the SIMD dual-axpy, vs the same arithmetic done by hand
// on the scalar table.
TEST(Simd, UpdateEmbeddingMatchesScalarReference) {
  const KernelTable& scalar = *kernel_table(Isa::kScalar);
  ScopedIsa guard;
  Rng rng(17);
  for (const Isa isa : available_isas()) {
    ASSERT_TRUE(force_isa(isa));
    for (const unsigned d : {1u, 3u, 16u, 33u, 128u, kMaxDim}) {
      const auto source = random_vector(d, rng);
      const auto sample = random_vector(d, rng);
      auto src_simd = source, smp_simd = sample;
      embedding::update_embedding<embedding::UpdateRule::kSimultaneous>(
          src_simd.data(), smp_simd.data(), d, 1.0f, 0.05f,
          embedding::ExactSigmoid{});

      auto src_ref = source, smp_ref = sample;
      const float score =
          (1.0f - sigmoid_exact(scalar.dot(src_ref.data(), smp_ref.data(), d))) *
          0.05f;
      scalar.pair_update_simultaneous(src_ref.data(), smp_ref.data(), d, score);
      for (unsigned j = 0; j < d; ++j) {
        expect_close(src_simd[j], src_ref[j], "update_embedding source", d,
                     isa_name(isa));
        expect_close(smp_simd[j], smp_ref[j], "update_embedding sample", d,
                     isa_name(isa));
      }
    }
  }
}

// Tile heights around the four-row step and the scan's 64-row tile.
constexpr std::size_t kRowCounts[] = {1, 2, 3, 4, 5, 7, 8, 63, 64, 65};

// dot_block/l2_block must agree BITWISE with their single-pair kernels at
// the same ISA (the determinism contract of the exact scan), for every
// (query, row) pair of every block size around the register-tile width,
// every tile height and every awkward dim.
TEST(Simd, BlockKernelsAgreeBitwiseWithSinglePairKernels) {
  Rng rng(19);
  for (const Isa isa : available_isas()) {
    const KernelTable& table = *kernel_table(isa);
    for (const unsigned d : {1u, 5u, 8u, 17u, 64u, 130u}) {
      for (const std::size_t count : {1u, 2u, 3u, 4u, 5u, 9u, 16u}) {
        for (const std::size_t rows : kRowCounts) {
          const auto queries = random_vector(count * d, rng);
          const auto tile = random_vector(rows * d, rng);
          std::vector<float> dots(rows * count), l2s(rows * count);
          table.dot_block(queries.data(), count, tile.data(), rows, d,
                          dots.data());
          table.l2_block(queries.data(), count, tile.data(), rows, d,
                         l2s.data());
          for (std::size_t r = 0; r < rows; ++r) {
            const float* row = tile.data() + r * d;
            for (std::size_t i = 0; i < count; ++i) {
              const float* query = queries.data() + i * d;
              EXPECT_EQ(dots[r * count + i], table.dot(query, row, d))
                  << "dot_block " << isa_name(isa) << " d=" << d
                  << " count=" << count << " rows=" << rows << " r=" << r
                  << " i=" << i;
              EXPECT_EQ(l2s[r * count + i], table.l2_squared(query, row, d))
                  << "l2_block " << isa_name(isa) << " d=" << d
                  << " count=" << count << " rows=" << rows << " r=" << r
                  << " i=" << i;
            }
          }
        }
      }
    }
  }
}

TEST(Simd, BlockKernelsMatchScalarAcrossAllDims) {
  const KernelTable& scalar = *kernel_table(Isa::kScalar);
  Rng rng(23);
  constexpr std::size_t kCount = 6;
  for (const Isa isa : available_isas()) {
    const KernelTable& table = *kernel_table(isa);
    for (unsigned d = 1; d <= kMaxDim; ++d) {
      for (const std::size_t rows : kRowCounts) {
        const auto queries = random_vector(kCount * d, rng);
        const auto tile = random_vector(rows * d, rng);
        std::vector<float> got(rows * kCount), ref(rows * kCount);
        table.dot_block(queries.data(), kCount, tile.data(), rows, d,
                        got.data());
        scalar.dot_block(queries.data(), kCount, tile.data(), rows, d,
                         ref.data());
        for (std::size_t i = 0; i < got.size(); ++i) {
          expect_close(got[i], ref[i], "dot_block", d, isa_name(isa));
        }
        table.l2_block(queries.data(), kCount, tile.data(), rows, d,
                       got.data());
        scalar.l2_block(queries.data(), kCount, tile.data(), rows, d,
                        ref.data());
        for (std::size_t i = 0; i < got.size(); ++i) {
          expect_close(got[i], ref[i], "l2_block", d, isa_name(isa));
        }
      }
    }
  }
}

// Aliased rows (source == sample, the HOGWILD self-negative case) must
// match the scalar loop's read-before-write semantics.
TEST(Simd, PairUpdateToleratesFullAliasing) {
  const KernelTable& scalar = *kernel_table(Isa::kScalar);
  Rng rng(29);
  for (const Isa isa : available_isas()) {
    const KernelTable& table = *kernel_table(isa);
    for (const unsigned d : {3u, 8u, 29u, 128u}) {
      const auto original = random_vector(d, rng);
      auto row_simd = original;
      auto row_ref = original;
      table.pair_update_simultaneous(row_simd.data(), row_simd.data(), d,
                                     0.03f);
      scalar.pair_update_simultaneous(row_ref.data(), row_ref.data(), d,
                                      0.03f);
      for (unsigned j = 0; j < d; ++j) {
        expect_close(row_simd[j], row_ref[j], "aliased pair_update", d,
                     isa_name(isa));
      }
    }
  }
}

TEST(Simd, ForceIsaSwitchesAndRestores) {
  ScopedIsa guard;
  for (const Isa isa : available_isas()) {
    EXPECT_TRUE(force_isa(isa));
    EXPECT_EQ(active_isa(), isa);
    // kernels() serves the forced table.
    EXPECT_EQ(&kernels(), kernel_table(isa));
  }
#if !defined(__aarch64__)
  EXPECT_FALSE(force_isa(Isa::kNeon));
#else
  EXPECT_FALSE(force_isa(Isa::kAvx2));
#endif
}

}  // namespace
}  // namespace gosh::simd
