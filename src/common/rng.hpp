// Deterministic, splittable pseudo-random number generation.
//
// Every stochastic component in the library (graph generators, samplers,
// embedding initialization, train/test splits) takes an explicit 64-bit seed
// and derives independent streams with SplitMix64. This gives three
// properties the reproduction depends on:
//   1. single-threaded runs are bitwise reproducible,
//   2. parallel workers get decorrelated streams without synchronization,
//   3. benches can pin seeds so table rows are stable across runs.
//
// Xoshiro256** is used as the bulk generator: it is a small, fast,
// well-tested generator whose state can be seeded from SplitMix64 exactly as
// its authors recommend.
#pragma once

#include <cstdint>

#include "gosh/common/types.hpp"

namespace gosh {

/// The SplitMix64 finalizer: a stateless bijection on 64-bit words.
inline std::uint64_t mix64(std::uint64_t z) noexcept {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// The SplitMix64 output from state `x`, without keeping the state: a
/// cheap, full-period, deterministic hash. Counter-driven draws
/// (`splitmix64_hash(seed ^ n)`) need no state beyond the counter.
inline std::uint64_t splitmix64_hash(std::uint64_t x) noexcept {
  return mix64(x + 0x9e3779b97f4a7c15ULL);
}

/// SplitMix64 step: advances `state` and returns a 64-bit output.
inline std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  const std::uint64_t out = splitmix64_hash(state);
  state += 0x9e3779b97f4a7c15ULL;
  return out;
}

/// The top 53 bits of `bits` as a uniform double in [0, 1).
inline double uniform01(std::uint64_t bits) noexcept {
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

/// Stateless mix of a seed with a stream id; used to derive per-thread /
/// per-epoch / per-level seeds that are decorrelated from one another.
inline std::uint64_t hash_combine(std::uint64_t seed,
                                  std::uint64_t stream) noexcept {
  // Finalize each word independently before combining: mix64 is a
  // bijection, so small (seed, stream) grids map to decorrelated values
  // with no structural collisions of the (seed<<6 ^ stream) kind.
  const std::uint64_t a = splitmix64_hash(seed);
  const std::uint64_t b = mix64(stream + 0x632be59bd9b4e019ULL);
  return mix64(a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2)));
}

/// Xoshiro256** generator.  Satisfies UniformRandomBitGenerator so it can be
/// plugged into <random> distributions, but the hot paths use the inline
/// helpers below to avoid distribution overhead.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four state words from SplitMix64(seed), the construction
  /// the xoshiro authors recommend: it guarantees a nonzero state and
  /// decorrelates nearby seeds.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept {
    for (auto& word : s_) word = splitmix64(seed);
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  result_type operator()() noexcept { return next(); }

  /// Core xoshiro256** step.
  std::uint64_t next() noexcept {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound). `bound` must be nonzero. Uses the
  /// widening-multiply trick (Lemire) — no division on the hot path.
  std::uint64_t next_bounded(std::uint64_t bound) noexcept {
    const unsigned __int128 m =
        static_cast<unsigned __int128>(next()) * bound;
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform vertex id in [0, n).
  vid_t next_vertex(vid_t n) noexcept {
    return static_cast<vid_t>(next_bounded(n));
  }

  /// Uniform float in [0, 1).
  float next_float() noexcept {
    return static_cast<float>(next() >> 40) * 0x1.0p-24f;
  }

  /// Uniform double in [0, 1).
  double next_double() noexcept { return uniform01(next()); }

  /// Derives an independent generator for logical stream `stream`.
  /// Equal (seed, stream) pairs always produce identical child generators.
  Rng split(std::uint64_t stream) const noexcept;

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t s_[4];
};

}  // namespace gosh
