// EmbeddingStore — the serving-side persistence layer: a versioned,
// checksummed, shard-capable binary layout opened with mmap for zero-copy
// random row access.
//
// GOSH's niche is big graphs on small hardware, and that constraint does
// not end when training does: an embedding matrix of a few hundred million
// vertices at d=128 is tens of GiB — bigger than the RAM of the machines
// the paper targets. The store therefore never loads the matrix: each
// shard file is mapped read-only and rows are served straight from the
// page cache, so the OS keeps only the hot working set resident and an
// SSD-backed store can serve a matrix larger than memory.
//
// ## GSHS shard layout (little-endian, header padded to 4096 bytes)
//
//   offset  size  field
//   0       4     magic "GSHS"
//   4       4     header_bytes (u32, = 4096 so the payload is page-aligned)
//   8       8     version (u64, = 1)
//   16      8     total_rows (u64, rows across ALL shards)
//   24      8     dim (u64)
//   32      8     row_begin (u64, global index of this shard's first row)
//   40      8     shard_rows (u64, rows stored in THIS shard)
//   48      4     shard_index (u32)
//   52      4     shard_count (u32)
//   56      8     payload_checksum (u64, FNV-1a over the float payload)
//   64      8     header_checksum (u64, FNV-1a over bytes [0, 64))
//   72..4096      zero padding
//   4096    shard_rows * dim * 4   row-major float payload
//
// ## Shard naming
//
// Shard 0 of n lives at `path` itself (so a store is always openable by
// the name it was written under); shard i >= 1 lives at
// `path + ".s<i:04>-of-<n:04>"`, e.g. "emb.store.s0002-of-0004". All
// shards except the last hold the same number of rows, which makes the
// row -> shard lookup a single division.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "gosh/api/status.hpp"
#include "gosh/common/types.hpp"
#include "gosh/embedding/matrix.hpp"

namespace gosh::store {

struct StoreOptions {
  /// Rows per shard file; 0 (or >= rows) writes a single shard.
  std::uint64_t rows_per_shard = 0;
};

struct OpenOptions {
  /// Stream every shard once at open to verify the payload checksums.
  /// Costs one sequential read of the store; disable for very large
  /// stores where open latency matters more than corruption detection.
  bool verify_checksums = true;
};

/// Header-only facts about a store, readable without mapping any payload
/// (one 4 KiB read of shard 0). The dist-router uses it to discover the
/// shard layout before mapping each shard on its own.
struct StoreInfo {
  std::uint64_t rows = 0;
  unsigned dim = 0;
  std::uint32_t shard_count = 1;
};

class EmbeddingStore {
 public:
  EmbeddingStore() = default;
  EmbeddingStore(EmbeddingStore&& other) noexcept;
  EmbeddingStore& operator=(EmbeddingStore&& other) noexcept;
  EmbeddingStore(const EmbeddingStore&) = delete;
  EmbeddingStore& operator=(const EmbeddingStore&) = delete;
  ~EmbeddingStore();

  /// Writes `matrix` as a GSHS store rooted at `path` (plus sibling shard
  /// files when options.rows_per_shard splits it). Overwrites existing
  /// files; stale shards from a previous wider layout are not removed.
  static api::Status write(const embedding::EmbeddingMatrix& matrix,
                           const std::string& path,
                           const StoreOptions& options = {});

  /// Maps every shard of the store rooted at `path`. Fails with a clear
  /// Status on missing/truncated/corrupt shards or inconsistent headers.
  static api::Result<EmbeddingStore> open(const std::string& path,
                                          const OpenOptions& options = {});

  /// Reads shard 0's header without mapping any payload: total rows, dim
  /// and the shard count of the store rooted at `path`.
  static api::Result<StoreInfo> probe(const std::string& path);

  /// Maps ONE shard (`index` of `count`, as probe() reported) of the store
  /// rooted at `base` as its own single-shard store: rows() is that
  /// shard's row count, row(0) is global row row_begin(). This is the
  /// sharded serving unit: a `--shard I/N` child serves it as an engine
  /// in local ids, which the dist-router maps back by adding row_begin().
  static api::Result<EmbeddingStore> open_shard(const std::string& base,
                                                std::uint32_t index,
                                                std::uint32_t count,
                                                const OpenOptions& options = {});

  /// File name of shard `index` of `count` for a store rooted at `base`.
  static std::string shard_path(const std::string& base, std::uint32_t index,
                                std::uint32_t count);

  vid_t rows() const noexcept { return static_cast<vid_t>(rows_); }
  unsigned dim() const noexcept { return dim_; }
  std::size_t num_shards() const noexcept { return shards_.size(); }
  /// Global index of row 0 — nonzero only for open_shard() views.
  std::uint64_t row_begin() const noexcept { return row_begin_; }
  const std::string& path() const noexcept { return path_; }

  /// Zero-copy view of row `v` straight out of the mapping. Valid while
  /// the store is alive; `v` must be < rows().
  std::span<const emb_t> row(vid_t v) const noexcept {
    const Shard& shard = shard_of(v);
    const auto offset = static_cast<std::size_t>(v - shard.row_begin) * dim_;
    return {shard.payload + offset, dim_};
  }

  /// How many rows, starting at `v`, lie back to back after row(v).data():
  /// the rest of v's shard, at least 1. The exact scan reads that many
  /// rows through one pointer. `v` must be < rows().
  std::uint64_t contiguous_rows(vid_t v) const noexcept {
    const Shard& shard = shard_of(v);
    return shard.row_begin + shard.rows - v;
  }

  /// Materializes the whole store into an in-memory matrix (the bridge to
  /// the training-side code paths; defeats the out-of-core purpose, so
  /// tools only use it for small stores and tests).
  embedding::EmbeddingMatrix to_matrix() const;

 private:
  struct Shard {
    const emb_t* payload = nullptr;   ///< first row of this shard
    void* map_base = nullptr;         ///< mmap base (or heap fallback)
    std::size_t map_bytes = 0;        ///< 0 = heap-owned, not mapped
    std::uint64_t row_begin = 0;
    std::uint64_t rows = 0;
  };

  const Shard& shard_of(vid_t v) const noexcept {
    std::size_t s = static_cast<std::size_t>(v / rows_per_shard_);
    if (s >= shards_.size()) s = shards_.size() - 1;  // defensive clamp
    return shards_[s];
  }

  void release() noexcept;

  std::vector<Shard> shards_;
  std::uint64_t rows_ = 0;
  std::uint64_t rows_per_shard_ = 1;  ///< shard 0's row count
  std::uint64_t row_begin_ = 0;       ///< global offset (open_shard views)
  unsigned dim_ = 0;
  std::string path_;
};

/// FNV-1a 64-bit running checksum (seed with kFnvOffsetBasis; feed chunks
/// by passing the previous result back in). Shared by the store and the
/// HNSW index persistence.
inline constexpr std::uint64_t kFnvOffsetBasis = 1469598103934665603ULL;
std::uint64_t fnv1a64(const void* data, std::size_t bytes,
                      std::uint64_t state = kFnvOffsetBasis) noexcept;

}  // namespace gosh::store
