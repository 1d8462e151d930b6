// Store and index files under torture: seeded mutations of GSHS shard sets
// (header fields re-sealed with a valid checksum, raw header flips, shard
// counts, truncated and extended payloads, missing and stale shards) and
// of GSHH index files (header fields, level bytes, adjacency, the norm
// table, truncation), each followed by EmbeddingStore::open or
// HnswIndex::load. Every mutated file must either be refused with a Status
// or open into something that reads in bounds: a store whose every row is
// the bytes its shard file holds at that row's offset, an index whose
// searches return ids inside the store. A crash or over-read fails the
// test; the ASan/UBSan CI leg turns the silent ones into hard failures.
// Everything is seeded, so a failure reproduces.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "gosh/query/hnsw.hpp"
#include "gosh/store/embedding_store.hpp"

namespace gosh::store {
namespace {

constexpr int kStoreCases = 1500;
constexpr int kIndexCases = 2000;
constexpr std::size_t kHeaderBytes = 4096;

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

bool exists(const std::string& path) {
  return std::ifstream(path, std::ios::binary).good();
}

template <typename T>
void put(std::string& bytes, std::size_t offset, T value) {
  if (offset + sizeof(T) <= bytes.size()) {
    std::memcpy(bytes.data() + offset, &value, sizeof(T));
  }
}

template <typename T>
T get(const std::string& bytes, std::size_t offset) {
  T value{};
  if (offset + sizeof(T) <= bytes.size()) {
    std::memcpy(&value, bytes.data() + offset, sizeof(T));
  }
  return value;
}

/// A value a parser is likely to mishandle, near `current`.
std::uint64_t interesting(std::mt19937_64& rng, std::uint64_t current) {
  switch (rng() % 9) {
    case 0: return 0;
    case 1: return 1;
    case 2: return current + 1;
    case 3: return current - 1;
    case 4: return current * 2;
    case 5: return ~std::uint64_t{0};
    case 6: return std::uint64_t{1} << 32;
    case 7: return rng() % 200;
    default: return rng();
  }
}

// ---- GSHS ---------------------------------------------------------------

/// Header-prefix fields of a GSHS shard (embedding_store.hpp): offset and
/// width. header_checksum at 64 covers bytes [0, 64).
struct Field {
  std::size_t offset;
  std::size_t bytes;
};
constexpr Field kShardFields[] = {{4, 4},  {8, 8},  {16, 8}, {24, 8}, {32, 8},
                                  {40, 8}, {48, 4}, {52, 4}, {56, 8}};

void reseal_shard(std::string& shard) {
  if (shard.size() >= 72) put(shard, 64, fnv1a64(shard.data(), 64));
}

void rewrite_field(std::string& bytes, const Field& field,
                   std::mt19937_64& rng) {
  if (field.bytes == 4) {
    put(bytes, field.offset,
        static_cast<std::uint32_t>(
            interesting(rng, get<std::uint32_t>(bytes, field.offset))));
  } else {
    put(bytes, field.offset,
        interesting(rng, get<std::uint64_t>(bytes, field.offset)));
  }
}

/// Every shard file either layout below may leave behind.
std::vector<std::string> shard_files(const std::string& path) {
  return {path,
          EmbeddingStore::shard_path(path, 1, 3),
          EmbeddingStore::shard_path(path, 2, 3),
          EmbeddingStore::shard_path(path, 1, 2)};
}

/// An opened store must be exactly what its files hold: walking it run by
/// run (one run per shard), every row is the bytes of its shard file at
/// the offset the layout implies, and each file holds nothing more.
void expect_rows_in_bounds(const EmbeddingStore& store,
                           const std::string& path, int seed) {
  const std::uint32_t count =
      get<std::uint32_t>(read_file(path), /*shard_count=*/52);
  const std::size_t row_bytes = std::size_t{store.dim()} * sizeof(float);
  std::uint64_t v = 0;
  for (std::uint32_t shard = 0; v < store.rows(); ++shard) {
    ASSERT_LT(shard, count) << "seed " << seed;
    const auto first = static_cast<vid_t>(v);
    const std::uint64_t run = store.contiguous_rows(first);
    ASSERT_GE(run, 1u) << "seed " << seed;
    ASSERT_LE(run, store.rows() - v) << "seed " << seed;
    const std::string file =
        read_file(EmbeddingStore::shard_path(path, shard, count));
    ASSERT_EQ(file.size(), kHeaderBytes + run * row_bytes) << "seed " << seed;
    const float* base = store.row(first).data();
    for (std::uint64_t i = 0; i < run; ++i) {
      const std::span<const float> row = store.row(static_cast<vid_t>(v + i));
      ASSERT_EQ(row.data(), base + i * store.dim()) << "seed " << seed;
      ASSERT_EQ(std::memcmp(row.data(),
                            file.data() + kHeaderBytes + i * row_bytes,
                            row_bytes),
                0)
          << "seed " << seed << " row " << v + i;
    }
    v += run;
  }
}

TEST(FileMutation, StoreShardSetsOpenCleanlyOrReadInBounds) {
  const std::string path = testing::TempDir() + "mutated_" +
                           std::to_string(::getpid()) + ".gshs";
  embedding::EmbeddingMatrix matrix(100, 16);
  matrix.initialize_random(3);
  int opened_cases = 0;
  for (int seed = 0; seed < kStoreCases; ++seed) {
    std::mt19937_64 rng(0x6f5e11 + seed);
    for (const std::string& file : shard_files(path)) std::remove(file.c_str());
    // Three shards of 40/40/20 rows; sometimes a two-shard layout of the
    // same rows written over it, leaving the old layout's stale shards.
    ASSERT_TRUE(EmbeddingStore::write(matrix, path, {.rows_per_shard = 40})
                    .is_ok());
    if (rng() % 4 == 0) {
      ASSERT_TRUE(EmbeddingStore::write(matrix, path, {.rows_per_shard = 50})
                      .is_ok());
    }
    std::map<std::string, std::string> files;
    for (const std::string& file : shard_files(path)) {
      if (exists(file)) files[file] = read_file(file);
    }

    const int mutations = 1 + static_cast<int>(rng() % 3);
    for (int m = 0; m < mutations && !files.empty(); ++m) {
      auto it = std::next(files.begin(),
                          static_cast<std::ptrdiff_t>(rng() % files.size()));
      std::string& bytes = it->second;
      switch (rng() % 6) {
        case 0:  // a header field, re-sealed so the parser must judge it
          rewrite_field(bytes, kShardFields[rng() % std::size(kShardFields)],
                        rng);
          reseal_shard(bytes);
          break;
        case 1:  // raw header bytes, re-sealed or not
          if (!bytes.empty()) {
            bytes[rng() % std::min<std::size_t>(72, bytes.size())] =
                static_cast<char>(rng());
          }
          if (rng() % 2 == 0) reseal_shard(bytes);
          break;
        case 2:  // a short shard
          bytes.resize(rng() % 2 == 0 && bytes.size() > 8
                           ? bytes.size() - 1 - rng() % 8
                           : rng() % (bytes.size() + 1));
          break;
        case 3:  // a long shard
          bytes.append(1 + rng() % 64, static_cast<char>(rng()));
          break;
        case 4:  // payload bytes, caught only by the payload checksum
          if (bytes.size() > kHeaderBytes) {
            bytes[kHeaderBytes + rng() % (bytes.size() - kHeaderBytes)] ^=
                static_cast<char>(1 + rng() % 255);
          }
          break;
        default:  // a missing shard
          files.erase(it);
          break;
      }
    }
    for (const std::string& file : shard_files(path)) std::remove(file.c_str());
    for (const auto& [file, bytes] : files) write_file(file, bytes);

    OpenOptions options;
    options.verify_checksums = rng() % 2 == 0;
    auto store = EmbeddingStore::open(path, options);
    if (!store.ok()) continue;
    ++opened_cases;
    expect_rows_in_bounds(store.value(), path, seed);
    if (testing::Test::HasFatalFailure()) break;
  }
  for (const std::string& file : shard_files(path)) std::remove(file.c_str());
  // Some mutations leave a valid store (a payload flip with verification
  // off, a rewrite to the same value): the in-bounds walk must have run.
  EXPECT_GT(opened_cases, 0);
}

// ---- GSHH ---------------------------------------------------------------

// GSHH layout (hnsw.cpp): magic | version u32 @4 | metric u32 @8 | M u32
// @12 | ef_construction u32 @16 | rows u64 @20 | dim u64 @28 | entry u32
// @36 | max_level i32 @40 | has_norms u32 @44 | levels[rows] @48 |
// adjacency | norms[rows] (has_norms) | checksum u64 over [4, size - 8).
constexpr Field kIndexFields[] = {{4, 4},  {8, 4},  {12, 4}, {16, 4}, {20, 8},
                                  {28, 8}, {36, 4}, {40, 4}, {44, 4}};
constexpr std::size_t kLevelsAt = 48;

void reseal_index(std::string& index) {
  if (index.size() >= 16) {
    put(index, index.size() - 8,
        fnv1a64(index.data() + 4, index.size() - 12));
  }
}

TEST(FileMutation, IndexFilesLoadCleanlyOrSearchInBounds) {
  const std::string store_path = testing::TempDir() + "mutated_index_" +
                                 std::to_string(::getpid()) + ".gshs";
  const std::string index_path = store_path + ".hnsw";
  constexpr vid_t kRows = 60;
  constexpr unsigned kDim = 8;
  {
    embedding::EmbeddingMatrix matrix(kRows, kDim);
    matrix.initialize_random(9);
    ASSERT_TRUE(EmbeddingStore::write(matrix, store_path).is_ok());
  }
  auto opened = EmbeddingStore::open(store_path);
  ASSERT_TRUE(opened.ok()) << opened.status().to_string();
  const EmbeddingStore& store = opened.value();
  // Pristine images: a cosine index (with its norm table) and an L2 one.
  std::vector<std::string> pristine;
  for (const query::Metric metric :
       {query::Metric::kCosine, query::Metric::kL2}) {
    const query::HnswIndex index = query::HnswIndex::build(
        store, {.M = 4, .ef_construction = 32, .metric = metric});
    ASSERT_TRUE(index.save(index_path).is_ok());
    pristine.push_back(read_file(index_path));
  }

  int searched_cases = 0;
  for (int seed = 0; seed < kIndexCases; ++seed) {
    std::mt19937_64 rng(0x6a5b1d + seed);
    std::string bytes = pristine[rng() % pristine.size()];
    const int mutations = 1 + static_cast<int>(rng() % 3);
    for (int m = 0; m < mutations; ++m) {
      switch (rng() % 6) {
        case 0:
          rewrite_field(bytes, kIndexFields[rng() % std::size(kIndexFields)],
                        rng);
          break;
        case 1:  // a level byte
          put(bytes, kLevelsAt + rng() % kRows,
              static_cast<std::uint8_t>(rng() % 4 == 0 ? rng() : rng() % 3));
          break;
        case 2: {  // the norm table dropped, or one added
          const bool had = get<std::uint32_t>(bytes, 44) != 0;
          const std::size_t table = std::size_t{kRows} * sizeof(float);
          if (bytes.size() < 8 + table + kLevelsAt) break;
          put(bytes, 44, static_cast<std::uint32_t>(had ? 0 : 1));
          if (had) {
            bytes.erase(bytes.size() - 8 - table, table);
          } else {
            bytes.insert(bytes.size() - 8, table, static_cast<char>(rng()));
          }
          break;
        }
        case 3:  // a degree or neighbor id inside the adjacency lists
          if (bytes.size() > kLevelsAt + kRows + 12) {
            const std::size_t span = bytes.size() - kLevelsAt - kRows - 12;
            put(bytes, kLevelsAt + kRows + rng() % span,
                static_cast<std::uint32_t>(rng() % 2 == 0 ? rng() % 80
                                                          : rng()));
          }
          break;
        case 4:  // truncated or extended
          if (rng() % 2 == 0) {
            bytes.resize(rng() % (bytes.size() + 1));
          } else {
            bytes.append(1 + rng() % 32, static_cast<char>(rng()));
          }
          break;
        default:  // any byte
          if (!bytes.empty()) {
            bytes[rng() % bytes.size()] = static_cast<char>(rng());
          }
          break;
      }
    }
    // Mostly re-sealed, so the structure behind the checksum gets judged.
    if (rng() % 8 != 0) reseal_index(bytes);
    write_file(index_path, bytes);

    auto loaded = query::HnswIndex::load(index_path);
    if (!loaded.ok()) continue;
    const auto metric_field = get<std::uint32_t>(bytes, 8);
    ASSERT_LE(metric_field, 2u) << "seed " << seed;
    // Searched as a service would: only once it fits the store and the
    // metric it was built for.
    const query::HnswIndex& index = loaded.value();
    if (!index.fits(store, static_cast<query::Metric>(metric_field)).is_ok())
      continue;
    ++searched_cases;
    for (const vid_t probe : {0u, 17u, 59u}) {
      for (const query::Neighbor& n :
           index.search(store, store.row(probe), 5)) {
        ASSERT_LT(n.id, kRows) << "seed " << seed;
      }
    }
  }
  std::remove(index_path.c_str());
  std::remove(store_path.c_str());
  EXPECT_GT(searched_cases, 0);
}

// A cosine index whose norm table was dropped (re-sealed, so only the
// structure can tell) must be refused: its first search would read an
// empty norm table. The mutations above found this case.
TEST(FileMutation, CosineIndexWithoutNormTableIsRefused) {
  const std::string store_path = testing::TempDir() + "normless_" +
                                 std::to_string(::getpid()) + ".gshs";
  const std::string index_path = store_path + ".hnsw";
  constexpr vid_t kRows = 20;
  embedding::EmbeddingMatrix matrix(kRows, 4);
  matrix.initialize_random(2);
  ASSERT_TRUE(EmbeddingStore::write(matrix, store_path).is_ok());
  auto opened = EmbeddingStore::open(store_path);
  ASSERT_TRUE(opened.ok()) << opened.status().to_string();
  const query::HnswIndex index = query::HnswIndex::build(
      opened.value(), {.M = 4, .metric = query::Metric::kCosine});
  ASSERT_TRUE(index.save(index_path).is_ok());
  std::string bytes = read_file(index_path);
  ASSERT_TRUE(query::HnswIndex::load(index_path).ok());

  put(bytes, 44, std::uint32_t{0});
  bytes.erase(bytes.size() - 8 - kRows * sizeof(float), kRows * sizeof(float));
  reseal_index(bytes);
  write_file(index_path, bytes);
  auto loaded = query::HnswIndex::load(index_path);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), api::StatusCode::kIoError);
  std::remove(index_path.c_str());
  std::remove(store_path.c_str());
}

}  // namespace
}  // namespace gosh::store
