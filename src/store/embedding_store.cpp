#include "gosh/store/embedding_store.hpp"

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <utility>

#if defined(_WIN32)
// No mmap on Windows builds of the test matrix; shards fall back to a heap
// read. Serving still works, just without the out-of-core property.
#else
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#define GOSH_STORE_HAS_MMAP 1
#endif

namespace gosh::store {
namespace {

constexpr std::array<char, 4> kMagic = {'G', 'S', 'H', 'S'};
constexpr std::uint32_t kHeaderBytes = 4096;
constexpr std::uint64_t kVersion = 1;
constexpr std::uint32_t kMaxShards = 9999;  // 4-digit shard naming
constexpr std::uint64_t kMaxDim = 1u << 20;

// The fixed 72-byte prefix of the 4096-byte header; the rest is zero
// padding so the payload starts page-aligned.
struct Header {
  char magic[4];
  std::uint32_t header_bytes;
  std::uint64_t version;
  std::uint64_t total_rows;
  std::uint64_t dim;
  std::uint64_t row_begin;
  std::uint64_t shard_rows;
  std::uint32_t shard_index;
  std::uint32_t shard_count;
  std::uint64_t payload_checksum;
  std::uint64_t header_checksum;
};
static_assert(sizeof(Header) == 72, "GSHS header prefix layout drifted");

api::Status io_fail(const std::string& path, const std::string& what) {
  return api::Status::io_error(path + ": " + what);
}

}  // namespace

std::uint64_t fnv1a64(const void* data, std::size_t bytes,
                      std::uint64_t state) noexcept {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    state ^= p[i];
    state *= 1099511628211ULL;
  }
  return state;
}

std::string EmbeddingStore::shard_path(const std::string& base,
                                       std::uint32_t index,
                                       std::uint32_t count) {
  if (index == 0) return base;
  char suffix[32];
  std::snprintf(suffix, sizeof(suffix), ".s%04u-of-%04u", index, count);
  return base + suffix;
}

EmbeddingStore::EmbeddingStore(EmbeddingStore&& other) noexcept
    : shards_(std::move(other.shards_)),
      rows_(other.rows_),
      rows_per_shard_(other.rows_per_shard_),
      row_begin_(other.row_begin_),
      dim_(other.dim_),
      path_(std::move(other.path_)) {
  other.shards_.clear();
  other.rows_ = 0;
  other.row_begin_ = 0;
  other.dim_ = 0;
}

EmbeddingStore& EmbeddingStore::operator=(EmbeddingStore&& other) noexcept {
  if (this != &other) {
    release();
    shards_ = std::move(other.shards_);
    rows_ = other.rows_;
    rows_per_shard_ = other.rows_per_shard_;
    row_begin_ = other.row_begin_;
    dim_ = other.dim_;
    path_ = std::move(other.path_);
    other.shards_.clear();
    other.rows_ = 0;
    other.row_begin_ = 0;
    other.dim_ = 0;
  }
  return *this;
}

EmbeddingStore::~EmbeddingStore() { release(); }

void EmbeddingStore::release() noexcept {
  for (Shard& shard : shards_) {
    if (shard.map_base == nullptr) continue;
#ifdef GOSH_STORE_HAS_MMAP
    if (shard.map_bytes > 0) {
      ::munmap(shard.map_base, shard.map_bytes);
      continue;
    }
#endif
    ::operator delete(shard.map_base);
  }
  shards_.clear();
}

api::Status EmbeddingStore::write(const embedding::EmbeddingMatrix& matrix,
                                  const std::string& path,
                                  const StoreOptions& options) {
  if (matrix.dim() == 0)
    return api::Status::invalid_argument(
        "store: refusing to write a 0-dimensional embedding");
  const std::uint64_t rows = matrix.rows();
  std::uint64_t per_shard = options.rows_per_shard;
  if (per_shard == 0 || per_shard >= rows) per_shard = rows > 0 ? rows : 1;
  const std::uint64_t count64 = rows == 0 ? 1 : (rows + per_shard - 1) / per_shard;
  if (count64 > kMaxShards)
    return api::Status::invalid_argument(
        "store: rows_per_shard would produce " + std::to_string(count64) +
        " shards (max " + std::to_string(kMaxShards) + ")");
  const auto count = static_cast<std::uint32_t>(count64);

  for (std::uint32_t s = 0; s < count; ++s) {
    const std::uint64_t begin = s * per_shard;
    const std::uint64_t shard_rows = std::min(per_shard, rows - begin);
    const emb_t* payload =
        matrix.data() + static_cast<std::size_t>(begin) * matrix.dim();
    const std::size_t payload_bytes =
        static_cast<std::size_t>(shard_rows) * matrix.dim() * sizeof(emb_t);

    Header header = {};
    std::memcpy(header.magic, kMagic.data(), kMagic.size());
    header.header_bytes = kHeaderBytes;
    header.version = kVersion;
    header.total_rows = rows;
    header.dim = matrix.dim();
    header.row_begin = begin;
    header.shard_rows = shard_rows;
    header.shard_index = s;
    header.shard_count = count;
    header.payload_checksum = fnv1a64(payload, payload_bytes);
    header.header_checksum =
        fnv1a64(&header, offsetof(Header, header_checksum));

    const std::string shard_file = shard_path(path, s, count);
    std::ofstream out(shard_file, std::ios::binary | std::ios::trunc);
    if (!out) return io_fail(shard_file, "cannot write store shard");
    std::array<char, kHeaderBytes> padded = {};
    std::memcpy(padded.data(), &header, sizeof(header));
    out.write(padded.data(), padded.size());
    out.write(reinterpret_cast<const char*>(payload),
              static_cast<std::streamsize>(payload_bytes));
    out.flush();
    if (!out) return io_fail(shard_file, "short write to store shard");
  }
  return api::Status::ok();
}

namespace {

// Reads + validates one shard header (the fixed prefix only).
api::Status read_header(std::ifstream& in, const std::string& file,
                        Header& header) {
  std::array<char, kHeaderBytes> raw = {};
  in.read(raw.data(), raw.size());
  if (!in) return io_fail(file, "truncated store header");
  std::memcpy(&header, raw.data(), sizeof(header));
  if (std::memcmp(header.magic, kMagic.data(), kMagic.size()) != 0)
    return io_fail(file, "not a GSHS embedding store (bad magic)");
  if (header.header_bytes != kHeaderBytes)
    return io_fail(file, "unsupported GSHS header size " +
                             std::to_string(header.header_bytes));
  if (header.version != kVersion)
    return io_fail(file, "unsupported GSHS version " +
                             std::to_string(header.version));
  Header copy = header;
  copy.header_checksum = 0;
  const std::uint64_t expected =
      fnv1a64(&copy, offsetof(Header, header_checksum));
  if (expected != header.header_checksum)
    return io_fail(file, "corrupt store header (checksum mismatch)");
  if (header.dim == 0 || header.dim > kMaxDim)
    return io_fail(file, "implausible embedding dim " +
                             std::to_string(header.dim));
  if (header.total_rows > std::numeric_limits<vid_t>::max())
    return io_fail(file, "implausible row count " +
                             std::to_string(header.total_rows));
  if (header.shard_count == 0 || header.shard_count > kMaxShards ||
      header.shard_index >= header.shard_count)
    return io_fail(file, "implausible shard indices");
  // Overflow-safe form of row_begin + shard_rows > total_rows.
  if (header.shard_rows > header.total_rows ||
      header.row_begin > header.total_rows - header.shard_rows)
    return io_fail(file, "shard rows exceed the store's total_rows");
  return api::Status::ok();
}

// One shard file's payload, mapped (or heap-read) and checksum-verified —
// the unit shared by open() and open_shard().
struct MappedPayload {
  void* base = nullptr;
  std::size_t map_bytes = 0;  ///< 0 = heap-owned, not mapped
  const emb_t* payload = nullptr;
};

api::Status map_payload(const std::string& file, std::size_t payload_bytes,
                        std::uint64_t expected_checksum, bool verify,
                        MappedPayload& out) {
  const std::size_t expected_file = kHeaderBytes + payload_bytes;
#ifdef GOSH_STORE_HAS_MMAP
  const int fd = ::open(file.c_str(), O_RDONLY);
  if (fd < 0) return io_fail(file, "cannot reopen store shard");
  struct stat st = {};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return io_fail(file, "cannot stat store shard");
  }
  if (static_cast<std::uint64_t>(st.st_size) != expected_file) {
    ::close(fd);
    return io_fail(file, "store shard is " + std::to_string(st.st_size) +
                             " bytes, header promises " +
                             std::to_string(expected_file));
  }
  void* base = ::mmap(nullptr, expected_file, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);
  if (base == MAP_FAILED) return io_fail(file, "mmap failed");
  out.base = base;
  out.map_bytes = expected_file;
  out.payload = reinterpret_cast<const emb_t*>(static_cast<const char*>(base) +
                                               kHeaderBytes);
#else
  std::ifstream again(file, std::ios::binary);
  again.seekg(0, std::ios::end);
  if (static_cast<std::uint64_t>(again.tellg()) != expected_file)
    return io_fail(file, "store shard size mismatch");
  again.seekg(kHeaderBytes);
  void* heap = ::operator new(payload_bytes > 0 ? payload_bytes : 1);
  again.read(static_cast<char*>(heap),
             static_cast<std::streamsize>(payload_bytes));
  if (!again) {
    ::operator delete(heap);
    return io_fail(file, "truncated store payload");
  }
  out.base = heap;
  out.map_bytes = 0;
  out.payload = static_cast<const emb_t*>(heap);
#endif

  if (verify && fnv1a64(out.payload, payload_bytes) != expected_checksum) {
#ifdef GOSH_STORE_HAS_MMAP
    if (out.map_bytes > 0) {
      ::munmap(out.base, out.map_bytes);
    } else {
      ::operator delete(out.base);
    }
#else
    ::operator delete(out.base);
#endif
    out = {};
    return io_fail(file, "corrupt store payload (checksum mismatch)");
  }
  return api::Status::ok();
}

}  // namespace

api::Result<EmbeddingStore> EmbeddingStore::open(const std::string& path,
                                                 const OpenOptions& options) {
  EmbeddingStore store;
  store.path_ = path;

  std::uint32_t shard_count = 1;
  for (std::uint32_t s = 0; s < shard_count; ++s) {
    const std::string file = shard_path(path, s, shard_count);
    std::ifstream in(file, std::ios::binary);
    if (!in) {
      return io_fail(file, s == 0 ? "cannot open store"
                                  : "missing store shard");
    }
    Header header = {};
    if (api::Status status = read_header(in, file, header); !status.is_ok())
      return status;
    in.close();

    if (s == 0) {
      shard_count = header.shard_count;
      store.rows_ = header.total_rows;
      store.dim_ = static_cast<unsigned>(header.dim);
      store.rows_per_shard_ = header.shard_rows > 0 ? header.shard_rows : 1;
      if (header.shard_index != 0)
        return io_fail(file, "store root is not shard 0 of its set");
      if (header.row_begin != 0)
        return io_fail(file, "shard 0 must start at row 0");
    } else {
      if (header.dim != store.dim_ || header.total_rows != store.rows_ ||
          header.shard_count != shard_count || header.shard_index != s)
        return io_fail(file, "shard header disagrees with shard 0");
      if (header.row_begin != s * store.rows_per_shard_)
        return io_fail(file, "shard row_begin breaks the equal-split layout");
    }
    // row() finds a row's shard by one division, and contiguous_rows()
    // trusts the shard it lands in to hold the rows up to the next shard's
    // start: a short middle shard would turn both into over-reads.
    if (s + 1 < shard_count && header.shard_rows != store.rows_per_shard_)
      return io_fail(file, "shard row count breaks the equal-split layout");

    const std::size_t payload_bytes =
        static_cast<std::size_t>(header.shard_rows) * store.dim_ *
        sizeof(emb_t);

    MappedPayload mapped;
    if (api::Status status =
            map_payload(file, payload_bytes, header.payload_checksum,
                        options.verify_checksums, mapped);
        !status.is_ok()) {
      return status;
    }
    Shard shard;
    shard.row_begin = header.row_begin;
    shard.rows = header.shard_rows;
    shard.map_base = mapped.base;
    shard.map_bytes = mapped.map_bytes;
    shard.payload = mapped.payload;
    store.shards_.push_back(shard);
  }

  std::uint64_t covered = 0;
  for (const Shard& shard : store.shards_) covered += shard.rows;
  if (covered != store.rows_)
    return io_fail(path, "shards cover " + std::to_string(covered) +
                             " rows, header promises " +
                             std::to_string(store.rows_));
  return store;
}

api::Result<StoreInfo> EmbeddingStore::probe(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return io_fail(path, "cannot open store");
  Header header = {};
  if (api::Status status = read_header(in, path, header); !status.is_ok())
    return status;
  if (header.shard_index != 0)
    return io_fail(path, "store root is not shard 0 of its set");
  StoreInfo info;
  info.rows = header.total_rows;
  info.dim = static_cast<unsigned>(header.dim);
  info.shard_count = header.shard_count;
  return info;
}

api::Result<EmbeddingStore> EmbeddingStore::open_shard(
    const std::string& base, std::uint32_t index, std::uint32_t count,
    const OpenOptions& options) {
  const std::string file = shard_path(base, index, count);
  std::ifstream in(file, std::ios::binary);
  if (!in) {
    return io_fail(file, index == 0 ? "cannot open store"
                                    : "missing store shard");
  }
  Header header = {};
  if (api::Status status = read_header(in, file, header); !status.is_ok())
    return status;
  in.close();
  if (header.shard_index != index || header.shard_count != count) {
    return io_fail(file, "shard claims to be " +
                             std::to_string(header.shard_index) + " of " +
                             std::to_string(header.shard_count) +
                             ", expected " + std::to_string(index) + " of " +
                             std::to_string(count));
  }

  EmbeddingStore store;
  store.path_ = file;
  store.dim_ = static_cast<unsigned>(header.dim);
  // The view covers exactly this shard's rows, re-based at 0.
  store.rows_ = header.shard_rows;
  store.rows_per_shard_ = header.shard_rows > 0 ? header.shard_rows : 1;
  store.row_begin_ = header.row_begin;

  const std::size_t payload_bytes =
      static_cast<std::size_t>(header.shard_rows) * store.dim_ * sizeof(emb_t);
  MappedPayload mapped;
  if (api::Status status =
          map_payload(file, payload_bytes, header.payload_checksum,
                      options.verify_checksums, mapped);
      !status.is_ok()) {
    return status;
  }
  Shard shard;
  shard.row_begin = 0;  // local addressing: row(0) is global row row_begin()
  shard.rows = header.shard_rows;
  shard.map_base = mapped.base;
  shard.map_bytes = mapped.map_bytes;
  shard.payload = mapped.payload;
  store.shards_.push_back(shard);
  return store;
}

embedding::EmbeddingMatrix EmbeddingStore::to_matrix() const {
  embedding::EmbeddingMatrix matrix(rows(), dim_);
  for (const Shard& shard : shards_) {
    std::memcpy(matrix.data() +
                    static_cast<std::size_t>(shard.row_begin) * dim_,
                shard.payload,
                static_cast<std::size_t>(shard.rows) * dim_ * sizeof(emb_t));
  }
  return matrix;
}

}  // namespace gosh::store
