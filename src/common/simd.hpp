// gosh::simd — runtime-dispatched vector kernels for the training update
// and the serving scan.
//
// Every float kernel the hot paths need (dot, squared L2, inverse norm,
// Algorithm 1's fused dual-axpy pair update, and the query-block scorers
// used by the exact scan) exists once per ISA: a scalar reference that is
// always compiled, AVX2+FMA and AVX-512F variants compiled into their own
// translation units with the matching -m flags (x86-64 only), and a NEON
// variant on aarch64. The running CPU picks the widest supported table
// once, via CPUID, the first time any kernel is used; the GOSH_SIMD
// environment variable (scalar|avx2|avx512|neon) overrides the choice, and
// the resolution is logged.
//
// Determinism contract: within one table every kernel uses a fixed
// accumulation order, and dot_block/l2_block accumulate each (query, row)
// pair exactly like dot/l2_squared — so at a fixed ISA the scan scores are
// bit-for-bit reproducible no matter how rows are distributed over
// threads, blocks or tiles. Across ISAs only near-equality holds
// (different accumulation orders); the parity test suite bounds the
// difference.
//
// Tiling: the block kernels score a tile of contiguous stored rows against
// a block of queries in one call. Queries in groups of four share each
// row load (one accumulator per query); the last zero to three queries
// are scored four rows at a time instead (one accumulator per row), so a
// single query still runs four independent FMA chains. At d = 128 the
// scan is bound by memory and per-row bookkeeping, not FLOPs: the tile's
// gain is one indirect call and one row lookup per tile instead of per
// row.
#pragma once

#include <atomic>
#include <cstddef>
#include <optional>
#include <string_view>

namespace gosh::simd {

enum class Isa {
  kScalar = 0,
  kAvx2 = 1,    ///< AVX2 + FMA, 8 float lanes
  kAvx512 = 2,  ///< AVX-512F, 16 float lanes
  kNeon = 3,    ///< aarch64 NEON, 4 float lanes
};

/// Stable lowercase name ("scalar", "avx2", "avx512", "neon").
std::string_view isa_name(Isa isa) noexcept;

/// "scalar" | "avx2" | "avx512" | "neon"; anything else is nullopt.
std::optional<Isa> parse_isa(std::string_view name) noexcept;

/// One ISA's kernel set. All pointers are always non-null in a table
/// returned by kernel_table()/kernels().
struct KernelTable {
  /// sum_j a[j] * b[j]
  float (*dot)(const float* a, const float* b, unsigned d);
  /// sum_j (a[j] - b[j])^2
  float (*l2_squared)(const float* a, const float* b, unsigned d);
  /// 1 / |v|, or 0 for the zero vector.
  float (*inverse_norm)(const float* v, unsigned d);
  /// Algorithm 1's dual axpy with both rows read before either is
  /// written:  source += sample * score;  sample += source_old * score.
  /// `source` and `sample` may alias the same row.
  void (*pair_update_simultaneous)(float* source, float* sample, unsigned d,
                                   float score);
  /// Paper-literal ordering: the sample update sees the updated source,
  /// sample += source_new * score.
  void (*pair_update_sequential)(float* source, float* sample, unsigned d,
                                 float score);
  /// out[r * count + i] = dot(queries + i * d, rows + r * d) for every
  /// query i in [0, count) and row r in [0, row_count): scores a tile of
  /// back-to-back stored rows against a block of query vectors. Per pair
  /// the accumulation order is identical to dot().
  void (*dot_block)(const float* queries, std::size_t count, const float* rows,
                    std::size_t row_count, unsigned d, float* out);
  /// out[r * count + i] = l2_squared(queries + i * d, rows + r * d); same
  /// contract as dot_block.
  void (*l2_block)(const float* queries, std::size_t count, const float* rows,
                   std::size_t row_count, unsigned d, float* out);
};

/// Table for a specific ISA, or nullptr when that ISA is not compiled into
/// this binary or not supported by the running CPU. kScalar never fails.
const KernelTable* kernel_table(Isa isa) noexcept;

/// Widest ISA both this binary and the running CPU support.
Isa best_supported_isa() noexcept;

/// The ISA behind kernels(): best_supported_isa() unless GOSH_SIMD (or a
/// force_isa() call) picked another. Resolved once, logged on resolution.
Isa active_isa() noexcept;

/// Redirect kernels() to `isa` (benches sweep ISAs; tests pin the scalar
/// path). Returns false — leaving the dispatch untouched — when the ISA is
/// unavailable. Not thread-safe against in-flight kernels: switch only
/// between, not during, parallel sections.
bool force_isa(Isa isa) noexcept;

/// RAII for force_isa sweeps: restores the dispatch that was active at
/// construction, so a bench or test cannot leak a narrower table into
/// whatever runs after it.
class ScopedIsa {
 public:
  ScopedIsa() = default;
  ~ScopedIsa() { force_isa(entry_); }
  ScopedIsa(const ScopedIsa&) = delete;
  ScopedIsa& operator=(const ScopedIsa&) = delete;
  Isa entry() const noexcept { return entry_; }

 private:
  Isa entry_ = active_isa();
};

namespace detail {
extern std::atomic<const KernelTable*> g_active_table;
const KernelTable* resolve_active() noexcept;
}  // namespace detail

/// The active kernel set (one atomic load on the fast path).
inline const KernelTable& kernels() noexcept {
  const KernelTable* table =
      detail::g_active_table.load(std::memory_order_acquire);
  if (table == nullptr) table = detail::resolve_active();
  return *table;
}

namespace detail {
// Per-ISA table accessors, defined one per translation unit so the vector
// code is only ever compiled with its own -m flags. Return nullptr when
// the ISA is not compiled in (wrong architecture).
const KernelTable* scalar_table() noexcept;
const KernelTable* avx2_table() noexcept;
const KernelTable* avx512_table() noexcept;
const KernelTable* neon_table() noexcept;
}  // namespace detail

}  // namespace gosh::simd
