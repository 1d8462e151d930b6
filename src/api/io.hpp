// Facade forwarding header: embedding persistence (word2vec-style text,
// the GSHE binary format, and the mmap-served GSHS store) plus
// Status-returning wrappers so tools need no try/catch of their own.
#pragma once

#include <cstdint>
#include <string>

#include "gosh/api/status.hpp"
#include "gosh/embedding/io.hpp"
#include "gosh/embedding/matrix.hpp"

namespace gosh::api {

/// Writes `matrix` to `path` in "text", "binary" or "store" `format`
/// ("store" = the shard-capable GSHS layout gosh::store serves via mmap);
/// io and unknown-format failures come back as a Status instead of an
/// exception. `rows_per_shard` (store format only) splits the store into
/// `<path>.sNNNN-of-NNNN` shard files — the layout one exact engine scans
/// whole and `gosh_serve --shard I/N` children serve one shard of; 0
/// writes a single shard.
Status write_embedding(const embedding::EmbeddingMatrix& matrix,
                       const std::string& path, const std::string& format,
                       std::uint64_t rows_per_shard = 0);

/// Reads an embedding written by write_embedding (format auto-detected by
/// the GSHE/GSHS magic). A store is materialized into memory — open it
/// with store::EmbeddingStore::open instead to serve it out-of-core.
Result<embedding::EmbeddingMatrix> read_embedding(const std::string& path);

}  // namespace gosh::api
