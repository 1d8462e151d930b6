// gosh::store — GSHS write/open round trips, shard naming, mmap row
// access, and the corruption / truncation error paths.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>

#include "gosh/store/embedding_store.hpp"

namespace gosh::store {
namespace {

embedding::EmbeddingMatrix sample_matrix(vid_t rows, unsigned dim,
                                         std::uint64_t seed = 9) {
  embedding::EmbeddingMatrix matrix(rows, dim);
  matrix.initialize_random(seed);
  return matrix;
}

// Process-unique so `ctest -j` siblings cannot collide on store files.
std::string temp_path(const std::string& name) {
  return testing::TempDir() + std::to_string(::getpid()) + "_" + name;
}

void remove_store(const std::string& path, std::uint32_t count) {
  for (std::uint32_t s = 0; s < count; ++s) {
    std::remove(EmbeddingStore::shard_path(path, s, count).c_str());
  }
}

void expect_rows_match(const embedding::EmbeddingMatrix& matrix,
                       const EmbeddingStore& store) {
  ASSERT_EQ(matrix.rows(), store.rows());
  ASSERT_EQ(matrix.dim(), store.dim());
  for (vid_t v = 0; v < matrix.rows(); ++v) {
    const auto expected = matrix.row(v);
    const auto got = store.row(v);
    ASSERT_EQ(expected.size(), got.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(expected[i], got[i]) << "row " << v << " element " << i;
    }
  }
}

TEST(EmbeddingStore, SingleShardRoundTrip) {
  const std::string path = temp_path("store_single.gshs");
  const auto matrix = sample_matrix(33, 7);
  ASSERT_TRUE(EmbeddingStore::write(matrix, path).is_ok());

  auto opened = EmbeddingStore::open(path);
  ASSERT_TRUE(opened.ok()) << opened.status().to_string();
  EXPECT_EQ(opened.value().num_shards(), 1u);
  expect_rows_match(matrix, opened.value());

  const auto copy = opened.value().to_matrix();
  for (std::size_t i = 0; i < matrix.size(); ++i) {
    EXPECT_EQ(matrix.data()[i], copy.data()[i]);
  }
  remove_store(path, 1);
}

TEST(EmbeddingStore, ShardedRoundTripCrossesShardBoundaries) {
  const std::string path = temp_path("store_sharded.gshs");
  const auto matrix = sample_matrix(33, 5);
  ASSERT_TRUE(
      EmbeddingStore::write(matrix, path, {.rows_per_shard = 8}).is_ok());

  // 33 rows at 8 per shard = 5 shards, last one holding a single row.
  auto opened = EmbeddingStore::open(path);
  ASSERT_TRUE(opened.ok()) << opened.status().to_string();
  EXPECT_EQ(opened.value().num_shards(), 5u);
  expect_rows_match(matrix, opened.value());
  // contiguous_rows: the rest of the row's shard, read through row(v).
  for (vid_t v = 0; v < 33; ++v) {
    const std::uint64_t next_shard = std::min<std::uint64_t>(v / 8 * 8 + 8, 33);
    EXPECT_EQ(opened.value().contiguous_rows(v), next_shard - v) << v;
    EXPECT_EQ(opened.value().row(v).data() + (next_shard - v - 1) * 5,
              opened.value().row(static_cast<vid_t>(next_shard - 1)).data());
  }

  // Shard naming: root is shard 0, siblings carry the 4-digit suffix.
  EXPECT_EQ(EmbeddingStore::shard_path(path, 0, 5), path);
  std::ifstream sibling(EmbeddingStore::shard_path(path, 3, 5));
  EXPECT_TRUE(sibling.good());
  remove_store(path, 5);
}

TEST(EmbeddingStore, EmptyMatrixRoundTrips) {
  const std::string path = temp_path("store_empty.gshs");
  ASSERT_TRUE(
      EmbeddingStore::write(embedding::EmbeddingMatrix(0, 4), path).is_ok());
  auto opened = EmbeddingStore::open(path);
  ASSERT_TRUE(opened.ok()) << opened.status().to_string();
  EXPECT_EQ(opened.value().rows(), 0u);
  EXPECT_EQ(opened.value().dim(), 4u);
  remove_store(path, 1);
}

TEST(EmbeddingStore, ZeroDimRejected) {
  EXPECT_EQ(EmbeddingStore::write(embedding::EmbeddingMatrix(), "/tmp/x")
                .code(),
            api::StatusCode::kInvalidArgument);
}

TEST(EmbeddingStore, MissingFileIsIoError) {
  auto opened = EmbeddingStore::open(temp_path("store_does_not_exist.gshs"));
  EXPECT_EQ(opened.status().code(), api::StatusCode::kIoError);
}

TEST(EmbeddingStore, WrongMagicRejected) {
  const std::string path = temp_path("store_not_a_store.gshs");
  {
    // Big enough to pass the header read, wrong magic ("GSHE" is the
    // in-memory matrix format, not a store).
    std::ofstream out(path, std::ios::binary);
    out << "GSHE" << std::string(8192, 'x');
  }
  auto opened = EmbeddingStore::open(path);
  EXPECT_EQ(opened.status().code(), api::StatusCode::kIoError);
  EXPECT_NE(opened.status().message().find("magic"), std::string::npos);
  std::remove(path.c_str());
}

TEST(EmbeddingStore, TruncatedPayloadRejected) {
  const std::string path = temp_path("store_truncated.gshs");
  ASSERT_TRUE(EmbeddingStore::write(sample_matrix(16, 8), path).is_ok());
  // Chop the last row off the payload; the size check must catch it.
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  bytes.resize(bytes.size() - 8 * sizeof(float));
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;

  auto opened = EmbeddingStore::open(path);
  EXPECT_EQ(opened.status().code(), api::StatusCode::kIoError);
  std::remove(path.c_str());
}

TEST(EmbeddingStore, CorruptPayloadCaughtByChecksum) {
  const std::string path = temp_path("store_corrupt.gshs");
  ASSERT_TRUE(EmbeddingStore::write(sample_matrix(16, 8), path).is_ok());
  {
    // Flip one payload byte without changing the file size.
    std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
    file.seekp(4096 + 100);
    char byte = 0;
    file.read(&byte, 1);
    file.seekp(4096 + 100);
    byte = static_cast<char>(byte ^ 0x40);
    file.write(&byte, 1);
  }
  auto verified = EmbeddingStore::open(path);
  EXPECT_EQ(verified.status().code(), api::StatusCode::kIoError);
  EXPECT_NE(verified.status().message().find("checksum"), std::string::npos);

  // Opting out of verification maps the shard anyway (the out-of-core
  // fast path for very large stores).
  auto unverified = EmbeddingStore::open(path, {.verify_checksums = false});
  EXPECT_TRUE(unverified.ok()) << unverified.status().to_string();
  std::remove(path.c_str());
}

TEST(EmbeddingStore, MissingShardRejected) {
  const std::string path = temp_path("store_missing_shard.gshs");
  ASSERT_TRUE(
      EmbeddingStore::write(sample_matrix(30, 4), path, {.rows_per_shard = 10})
          .is_ok());
  std::remove(EmbeddingStore::shard_path(path, 1, 3).c_str());
  auto opened = EmbeddingStore::open(path);
  EXPECT_EQ(opened.status().code(), api::StatusCode::kIoError);
  EXPECT_NE(opened.status().message().find("missing"), std::string::npos);
  remove_store(path, 3);
}

TEST(EmbeddingStore, CorruptHeaderRejected) {
  const std::string path = temp_path("store_bad_header.gshs");
  ASSERT_TRUE(EmbeddingStore::write(sample_matrix(8, 4), path).is_ok());
  {
    // Inflate total_rows (offset 16) without fixing the header checksum.
    std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
    file.seekp(16);
    const std::uint64_t huge = 1ull << 40;
    file.write(reinterpret_cast<const char*>(&huge), sizeof(huge));
  }
  auto opened = EmbeddingStore::open(path);
  EXPECT_EQ(opened.status().code(), api::StatusCode::kIoError);
  EXPECT_NE(opened.status().message().find("checksum"), std::string::npos);
  std::remove(path.c_str());
}

// Rewrites one shard file as holding `rows` rows (payload cut or
// zero-padded to match) with both checksums recomputed, so only the
// layout checks can object to it.
void rewrite_shard_rows(const std::string& file, std::uint64_t rows) {
  std::ifstream in(file, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  ASSERT_GE(bytes.size(), 4096u);
  std::uint64_t dim = 0;
  std::memcpy(&dim, bytes.data() + 24, sizeof(dim));
  std::memcpy(bytes.data() + 40, &rows, sizeof(rows));
  bytes.resize(4096 + rows * dim * sizeof(float), '\0');
  const std::uint64_t payload =
      fnv1a64(bytes.data() + 4096, bytes.size() - 4096);
  std::memcpy(bytes.data() + 56, &payload, sizeof(payload));
  const std::uint64_t header = fnv1a64(bytes.data(), 64);
  std::memcpy(bytes.data() + 64, &header, sizeof(header));
  std::ofstream out(file, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// Every shard but the last holds rows_per_shard rows: a short middle
// shard whose rows a longer neighbour makes up still adds up to
// total_rows, but row() would read past its payload.
TEST(EmbeddingStore, ShortMiddleShardRejected) {
  const std::string path = temp_path("store_short_middle.gshs");
  ASSERT_TRUE(
      EmbeddingStore::write(sample_matrix(40, 4), path, {.rows_per_shard = 10})
          .is_ok());
  rewrite_shard_rows(EmbeddingStore::shard_path(path, 1, 4), 5);
  rewrite_shard_rows(EmbeddingStore::shard_path(path, 2, 4), 15);
  auto opened = EmbeddingStore::open(path);
  EXPECT_EQ(opened.status().code(), api::StatusCode::kIoError);
  EXPECT_NE(opened.status().message().find("row count"), std::string::npos)
      << opened.status().to_string();
  remove_store(path, 4);
}

TEST(EmbeddingStore, ProbeReadsTheLayoutWithoutMapping) {
  const std::string path = temp_path("store_probe.gshs");
  const auto matrix = sample_matrix(33, 5);
  ASSERT_TRUE(
      EmbeddingStore::write(matrix, path, {.rows_per_shard = 8}).is_ok());

  auto info = EmbeddingStore::probe(path);
  ASSERT_TRUE(info.ok()) << info.status().to_string();
  EXPECT_EQ(info.value().rows, 33u);
  EXPECT_EQ(info.value().dim, 5u);
  EXPECT_EQ(info.value().shard_count, 5u);

  EXPECT_FALSE(EmbeddingStore::probe(temp_path("no_such.gshs")).ok());
  // Probing a non-root shard is rejected: the root carries the layout.
  EXPECT_FALSE(
      EmbeddingStore::probe(EmbeddingStore::shard_path(path, 1, 5)).ok());
  remove_store(path, 5);
}

TEST(EmbeddingStore, OpenShardServesOneRebasedGroup) {
  const std::string path = temp_path("store_open_shard.gshs");
  const auto matrix = sample_matrix(33, 5);
  ASSERT_TRUE(
      EmbeddingStore::write(matrix, path, {.rows_per_shard = 8}).is_ok());

  // Middle shard: rows [16, 24) of the matrix, re-based to local [0, 8).
  auto shard = EmbeddingStore::open_shard(path, 2, 5);
  ASSERT_TRUE(shard.ok()) << shard.status().to_string();
  EXPECT_EQ(shard.value().rows(), 8u);
  EXPECT_EQ(shard.value().row_begin(), 16u);
  EXPECT_EQ(shard.value().num_shards(), 1u);
  for (vid_t local = 0; local < 8; ++local) {
    const auto expected = matrix.row(16 + local);
    const auto got = shard.value().row(local);
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(expected[i], got[i]) << "local row " << local;
    }
  }

  // The last, short shard.
  auto tail = EmbeddingStore::open_shard(path, 4, 5);
  ASSERT_TRUE(tail.ok());
  EXPECT_EQ(tail.value().rows(), 1u);
  EXPECT_EQ(tail.value().row_begin(), 32u);

  // Wrong count in the name/header pairing is rejected.
  EXPECT_FALSE(EmbeddingStore::open_shard(path, 2, 4).ok());
  EXPECT_FALSE(EmbeddingStore::open_shard(path, 9, 5).ok());
  remove_store(path, 5);
}

}  // namespace
}  // namespace gosh::store
