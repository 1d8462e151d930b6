#include "gosh/query/hnsw.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <limits>
#include <queue>

#include "gosh/common/rng.hpp"

namespace gosh::query {
namespace {

constexpr char kMagic[4] = {'G', 'S', 'H', 'H'};
constexpr std::uint32_t kVersion = 1;
constexpr int kMaxLevelCap = 63;

// (similarity, node) heaps: `Best` pops the most similar first (the search
// frontier), `Worst` pops the least similar first (the bounded result set).
using Scored = std::pair<float, vid_t>;
using BestFirst = std::priority_queue<Scored>;
using WorstFirst =
    std::priority_queue<Scored, std::vector<Scored>, std::greater<>>;

}  // namespace

float HnswIndex::node_similarity(const store::EmbeddingStore& store,
                                 const float* query, float query_inv,
                                 vid_t node) const noexcept {
  return similarity(metric_, query, store.row(node).data(),
                    static_cast<unsigned>(dim_), query_inv,
                    metric_ == Metric::kCosine ? inv_norms_[node] : 0.0f);
}

std::vector<Neighbor> HnswIndex::search_layer(
    const store::EmbeddingStore& store, const float* query, float query_inv,
    vid_t entry, unsigned ef, unsigned layer,
    std::vector<std::uint32_t>& visited, std::uint32_t mark,
    const RowFilter* filter) const {
  const auto admits = [filter](vid_t node) {
    return filter == nullptr || (*filter)(node);
  };
  BestFirst frontier;
  WorstFirst results;
  const float entry_sim = node_similarity(store, query, query_inv, entry);
  frontier.emplace(entry_sim, entry);
  if (admits(entry)) results.emplace(entry_sim, entry);
  visited[entry] = mark;

  while (!frontier.empty()) {
    const auto [sim, node] = frontier.top();
    if (results.size() >= ef && sim < results.top().first) break;
    frontier.pop();
    for (const vid_t next : links_[layer][node]) {
      if (visited[next] == mark) continue;
      visited[next] = mark;
      const float next_sim = node_similarity(store, query, query_inv, next);
      if (results.size() < ef || next_sim > results.top().first) {
        // Filtered-out nodes stay in the frontier — they still route the
        // beam toward their neighborhoods — but never enter the results.
        frontier.emplace(next_sim, next);
        if (admits(next)) {
          results.emplace(next_sim, next);
          if (results.size() > ef) results.pop();
        }
      }
    }
  }

  std::vector<Neighbor> out;
  out.reserve(results.size());
  while (!results.empty()) {
    out.push_back({results.top().second, results.top().first});
    results.pop();
  }
  return out;
}

HnswIndex HnswIndex::build(const store::EmbeddingStore& store,
                           const HnswOptions& options,
                           std::span<const float> precomputed_inv_norms) {
  HnswIndex index;
  index.metric_ = options.metric;
  index.M_ = std::max(2u, options.M);
  index.ef_construction_ = std::max(index.M_, options.ef_construction);
  index.rows_ = store.rows();
  index.dim_ = store.dim();
  index.levels_.assign(store.rows(), 0);
  if (options.metric == Metric::kCosine &&
      precomputed_inv_norms.size() == store.rows()) {
    index.inv_norms_.assign(precomputed_inv_norms.begin(),
                            precomputed_inv_norms.end());
  } else {
    index.inv_norms_ = row_inverse_norms(store, options.metric);
  }
  if (store.rows() == 0) return index;

  const double level_mult = 1.0 / std::log(static_cast<double>(index.M_));
  Rng rng(options.seed);
  std::vector<std::uint32_t> visited(store.rows(), 0);
  std::uint32_t mark = 0;

  const auto ensure_layers = [&index, &store](int level) {
    while (static_cast<int>(index.links_.size()) <= level) {
      index.links_.emplace_back(store.rows());
    }
  };

  for (vid_t v = 0; v < store.rows(); ++v) {
    // Geometric level: floor(-ln(u) * mult), u uniform in (0, 1].
    const double u =
        (static_cast<double>(rng.next() >> 11) + 1.0) * 0x1.0p-53;
    int level = static_cast<int>(-std::log(u) * level_mult);
    level = std::min(level, kMaxLevelCap);
    index.levels_[v] = static_cast<std::uint8_t>(level);
    ensure_layers(level);

    if (index.max_level_ < 0) {  // first node seeds the graph
      index.entry_ = v;
      index.max_level_ = level;
      continue;
    }

    const float* query = store.row(v).data();
    const float query_inv =
        index.metric_ == Metric::kCosine ? index.inv_norms_[v] : 0.0f;

    // Greedy descent through the layers above this node's level.
    vid_t cur = index.entry_;
    float cur_sim = index.node_similarity(store, query, query_inv, cur);
    for (int layer = index.max_level_; layer > level; --layer) {
      bool improved = true;
      while (improved) {
        improved = false;
        for (const vid_t next : index.links_[layer][cur]) {
          const float next_sim =
              index.node_similarity(store, query, query_inv, next);
          if (next_sim > cur_sim) {
            cur = next;
            cur_sim = next_sim;
            improved = true;
          }
        }
      }
    }

    // Beam search + bidirectional linking on each layer from
    // min(level, max_level_) down to 0.
    for (int layer = std::min(level, index.max_level_); layer >= 0; --layer) {
      auto candidates =
          index.search_layer(store, query, query_inv, cur,
                             index.ef_construction_, layer, visited, ++mark);
      std::sort(candidates.begin(), candidates.end(), better);
      const unsigned max_links = layer == 0 ? 2 * index.M_ : index.M_;
      const std::size_t keep =
          std::min<std::size_t>(index.M_, candidates.size());

      std::vector<vid_t>& own = index.links_[layer][v];
      own.clear();
      for (std::size_t i = 0; i < keep; ++i) own.push_back(candidates[i].id);

      for (std::size_t i = 0; i < keep; ++i) {
        const vid_t peer = candidates[i].id;
        std::vector<vid_t>& back = index.links_[layer][peer];
        back.push_back(v);
        if (back.size() > max_links) {
          // Shrink to the max_links closest neighbors of `peer`.
          const float* peer_vec = store.row(peer).data();
          const float peer_inv = index.metric_ == Metric::kCosine
                                     ? index.inv_norms_[peer]
                                     : 0.0f;
          std::vector<Neighbor> ranked;
          ranked.reserve(back.size());
          for (const vid_t b : back) {
            ranked.push_back(
                {b, index.node_similarity(store, peer_vec, peer_inv, b)});
          }
          std::sort(ranked.begin(), ranked.end(), better);
          ranked.resize(max_links);
          back.clear();
          for (const Neighbor& r : ranked) back.push_back(r.id);
        }
      }
      if (!candidates.empty()) cur = candidates.front().id;
    }

    if (level > index.max_level_) {
      index.max_level_ = level;
      index.entry_ = v;
    }
  }
  return index;
}

std::vector<Neighbor> HnswIndex::search(const store::EmbeddingStore& store,
                                        std::span<const float> query,
                                        unsigned k, unsigned ef,
                                        const RowFilter& filter) const {
  std::vector<Neighbor> out;
  if (rows_ == 0 || k == 0) return out;
  const float query_inv = metric_ == Metric::kCosine
                              ? inverse_norm(query.data(),
                                             static_cast<unsigned>(dim_))
                              : 0.0f;

  vid_t cur = entry_;
  float cur_sim = node_similarity(store, query.data(), query_inv, cur);
  for (int layer = max_level_; layer > 0; --layer) {
    bool improved = true;
    while (improved) {
      improved = false;
      for (const vid_t next : links_[layer][cur]) {
        const float next_sim =
            node_similarity(store, query.data(), query_inv, next);
        if (next_sim > cur_sim) {
          cur = next;
          cur_sim = next_sim;
          improved = true;
        }
      }
    }
  }

  // Reusable epoch-stamped scratch: zeroing an O(rows) array per query
  // would make search cost linear in store size, defeating the index.
  // Bumping the mark invalidates every stale entry at once (including
  // entries left by other indexes sharing this thread), and the array is
  // re-zeroed only on the ~never wraparound.
  thread_local std::vector<std::uint32_t> visited;
  thread_local std::uint32_t mark = 0;
  if (visited.size() < rows_) visited.resize(rows_, 0);
  if (++mark == 0) {
    std::fill(visited.begin(), visited.end(), 0);
    mark = 1;
  }
  out = search_layer(store, query.data(), query_inv, cur, std::max(ef, k), 0,
                     visited, mark, filter ? &filter : nullptr);
  std::sort(out.begin(), out.end(), better);
  if (out.size() > k) out.resize(k);
  return out;
}

// ---- Persistence ("GSHH" v1, FNV-checksummed trailer). --------------------

namespace {

void append_raw(std::string& buffer, const void* data, std::size_t bytes) {
  // data is null for empty vectors (zero-degree adjacency); append(null, 0)
  // is undefined, so skip the call entirely.
  if (bytes > 0) buffer.append(static_cast<const char*>(data), bytes);
}
template <typename T>
void append_pod(std::string& buffer, const T& value) {
  append_raw(buffer, &value, sizeof(value));
}

struct Cursor {
  const char* data;
  std::size_t size;
  std::size_t at = 0;
  bool read(void* out, std::size_t bytes) {
    if (at + bytes > size) return false;
    // bytes == 0 happens for zero-degree adjacency lists, whose vector
    // data() is null — memcpy must not see a null pointer even then.
    if (bytes > 0) std::memcpy(out, data + at, bytes);
    at += bytes;
    return true;
  }
  template <typename T>
  bool pod(T& out) {
    return read(&out, sizeof(out));
  }
};

}  // namespace

api::Status HnswIndex::fits(const store::EmbeddingStore& store,
                            Metric metric) const {
  if (rows_ != store.rows() || dim_ != store.dim()) {
    return api::Status::invalid_argument(
        "hnsw index shape (" + std::to_string(rows_) + " x " +
        std::to_string(dim_) + ") does not match the store (" +
        std::to_string(store.rows()) + " x " + std::to_string(store.dim()) +
        ")");
  }
  if (metric_ != metric) {
    return api::Status::invalid_argument(
        std::string("hnsw index was built for metric '") +
        std::string(metric_name(metric_)) + "', engine serves '" +
        std::string(metric_name(metric)) + "'");
  }
  return api::Status::ok();
}

api::Status HnswIndex::save(const std::string& path) const {
  std::string buffer;
  append_raw(buffer, kMagic, sizeof(kMagic));
  append_pod(buffer, kVersion);
  append_pod(buffer, static_cast<std::uint32_t>(metric_));
  append_pod(buffer, M_);
  append_pod(buffer, ef_construction_);
  append_pod(buffer, rows_);
  append_pod(buffer, dim_);
  append_pod(buffer, entry_);
  append_pod(buffer, static_cast<std::int32_t>(max_level_));
  append_pod(buffer,
             static_cast<std::uint32_t>(inv_norms_.empty() ? 0 : 1));
  append_raw(buffer, levels_.data(), levels_.size());
  for (int layer = 0; layer <= max_level_; ++layer) {
    for (std::uint64_t v = 0; v < rows_; ++v) {
      if (levels_[v] < layer) continue;
      const std::vector<vid_t>& adj = links_[layer][v];
      append_pod(buffer, static_cast<std::uint32_t>(adj.size()));
      append_raw(buffer, adj.data(), adj.size() * sizeof(vid_t));
    }
  }
  if (!inv_norms_.empty()) {
    append_raw(buffer, inv_norms_.data(), inv_norms_.size() * sizeof(float));
  }
  const std::uint64_t checksum =
      store::fnv1a64(buffer.data() + sizeof(kMagic),
                     buffer.size() - sizeof(kMagic));
  append_pod(buffer, checksum);

  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return api::Status::io_error(path + ": cannot write HNSW index");
  out.write(buffer.data(), static_cast<std::streamsize>(buffer.size()));
  out.flush();
  if (!out) return api::Status::io_error(path + ": short write");
  return api::Status::ok();
}

api::Result<HnswIndex> HnswIndex::load(const std::string& path) {
  const auto fail = [&path](const std::string& what) {
    return api::Status::io_error(path + ": " + what);
  };
  std::ifstream in(path, std::ios::binary);
  if (!in) return fail("cannot open HNSW index");
  std::string buffer((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
  if (buffer.size() < sizeof(kMagic) + sizeof(std::uint64_t))
    return fail("truncated HNSW index");
  if (std::memcmp(buffer.data(), kMagic, sizeof(kMagic)) != 0)
    return fail("not a GSHH index (bad magic)");

  std::uint64_t stored_checksum = 0;
  std::memcpy(&stored_checksum,
              buffer.data() + buffer.size() - sizeof(stored_checksum),
              sizeof(stored_checksum));
  const std::uint64_t computed = store::fnv1a64(
      buffer.data() + sizeof(kMagic),
      buffer.size() - sizeof(kMagic) - sizeof(stored_checksum));
  if (computed != stored_checksum)
    return fail("corrupt HNSW index (checksum mismatch)");

  Cursor cursor{buffer.data(), buffer.size() - sizeof(stored_checksum),
                sizeof(kMagic)};
  HnswIndex index;
  std::uint32_t version = 0, metric = 0, has_norms = 0;
  std::int32_t max_level = -1;
  if (!cursor.pod(version) || version != kVersion)
    return fail("unsupported GSHH version");
  if (!cursor.pod(metric) || metric > 2) return fail("bad metric field");
  index.metric_ = static_cast<Metric>(metric);
  if (!cursor.pod(index.M_) || !cursor.pod(index.ef_construction_) ||
      !cursor.pod(index.rows_) || !cursor.pod(index.dim_) ||
      !cursor.pod(index.entry_) || !cursor.pod(max_level) ||
      !cursor.pod(has_norms))
    return fail("truncated GSHH header");
  if (max_level < -1 || max_level > kMaxLevelCap)
    return fail("implausible max_level");
  // A cosine search reads one inverse norm per node it scores.
  if (index.metric_ == Metric::kCosine && index.rows_ > 0 && has_norms == 0)
    return fail("cosine index without its norm table");
  index.max_level_ = max_level;
  if (index.rows_ > 0 && max_level < 0)
    return fail("non-empty index without layers");
  if (index.rows_ > 0 && index.entry_ >= index.rows_)
    return fail("entry point out of range");
  // The level table alone needs rows_ bytes of the buffer; size links_ and
  // levels_ only after that bound holds, so a crafted row count is a clean
  // error, not a bad_alloc.
  if (index.rows_ > std::numeric_limits<vid_t>::max() ||
      index.rows_ > cursor.size - cursor.at)
    return fail("implausible row count " + std::to_string(index.rows_));

  index.levels_.resize(index.rows_);
  if (!cursor.read(index.levels_.data(), index.levels_.size()))
    return fail("truncated level table");
  index.links_.assign(static_cast<std::size_t>(max_level + 1),
                      std::vector<std::vector<vid_t>>(index.rows_));
  for (int layer = 0; layer <= max_level; ++layer) {
    for (std::uint64_t v = 0; v < index.rows_; ++v) {
      if (index.levels_[v] < layer) continue;
      std::uint32_t degree = 0;
      if (!cursor.pod(degree) || degree > index.rows_)
        return fail("truncated adjacency");
      std::vector<vid_t>& adj = index.links_[layer][v];
      adj.resize(degree);
      if (!cursor.read(adj.data(), degree * sizeof(vid_t)))
        return fail("truncated adjacency payload");
      for (const vid_t n : adj) {
        if (n >= index.rows_) return fail("neighbor id out of range");
      }
    }
  }
  if (has_norms) {
    index.inv_norms_.resize(index.rows_);
    if (!cursor.read(index.inv_norms_.data(),
                     index.inv_norms_.size() * sizeof(float)))
      return fail("truncated norm table");
  }
  if (cursor.at != cursor.size) return fail("trailing bytes in GSHH index");
  return index;
}

}  // namespace gosh::query
