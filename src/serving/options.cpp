#include "gosh/serving/options.hpp"

#include <cctype>
#include <utility>
#include <vector>

#include "gosh/api/options.hpp"

namespace gosh::serving {
namespace {

std::string quoted(std::string_view text) {
  std::string out = "'";
  out += text;
  out += "'";
  return out;
}

std::string_view trim(std::string_view text) {
  while (!text.empty() &&
         std::isspace(static_cast<unsigned char>(text.front())))
    text.remove_prefix(1);
  while (!text.empty() && std::isspace(static_cast<unsigned char>(text.back())))
    text.remove_suffix(1);
  return text;
}

template <typename T>
api::Status set_unsigned(T& field, std::string_view key,
                         std::string_view value) {
  auto parsed = api::parse_unsigned(value);
  if (!parsed.ok()) {
    return api::Status::invalid_argument(std::string(key) + ": " +
                                         parsed.status().message());
  }
  if (!std::in_range<T>(parsed.value())) {
    return api::Status::invalid_argument(std::string(key) +
                                         ": value out of range " +
                                         quoted(value));
  }
  field = static_cast<T>(parsed.value());
  return api::Status::ok();
}

}  // namespace

std::string ServeOptions::resolved_index_path() const {
  return index_path.empty() ? query::HnswIndex::default_path(store_path)
                            : index_path;
}

query::QueryEngineOptions ServeOptions::engine_options() const {
  query::QueryEngineOptions options;
  options.metric = metric;
  options.threads = threads;
  options.block_rows = static_cast<std::size_t>(block_rows);
  options.ef_search = ef_search;
  return options;
}

query::HnswOptions ServeOptions::hnsw_options() const {
  query::HnswOptions options;
  options.M = hnsw_m;
  options.ef_construction = ef_construction;
  options.seed = seed;
  options.metric = metric;
  return options;
}

store::OpenOptions ServeOptions::open_options() const {
  store::OpenOptions options;
  options.verify_checksums = verify_checksums;
  return options;
}

query::Aggregate ServeOptions::aggregate_mode() const {
  auto parsed = query::parse_aggregate(aggregate);
  return parsed.ok() ? parsed.value() : query::Aggregate::kMax;
}

query::RowFilter ServeOptions::row_filter() const {
  if (filter_begin == 0 && filter_end == 0) return {};
  const vid_t begin = filter_begin, end = filter_end;
  return [begin, end](vid_t v) { return v >= begin && v < end; };
}

api::Status ServeOptions::set(std::string_view key, std::string_view value) {
  if (key == "strategy") {
    strategy = std::string(trim(value));
    return strategy.empty()
               ? api::Status::invalid_argument("strategy: empty name")
               : api::Status::ok();
  }
  if (key == "store") {
    store_path = std::string(trim(value));
    return api::Status::ok();
  }
  if (key == "index") {
    index_path = std::string(trim(value));
    return api::Status::ok();
  }
  if (key == "metric") {
    auto parsed = query::parse_metric(trim(value));
    if (!parsed.ok()) return parsed.status();
    metric = parsed.value();
    return api::Status::ok();
  }
  if (key == "k") return set_unsigned(k, key, value);
  if (key == "aggregate") {
    auto parsed = query::parse_aggregate(trim(value));
    if (!parsed.ok()) return parsed.status();
    aggregate = std::string(query::aggregate_name(parsed.value()));
    return api::Status::ok();
  }
  if (key == "filter") {
    const std::string_view range = trim(value);
    const std::size_t colon = range.find(':');
    if (colon == std::string_view::npos)
      return api::Status::invalid_argument(
          "filter: expected LO:HI (ids in [LO, HI)), got " + quoted(range));
    vid_t begin = 0, end = 0;
    if (api::Status s = set_unsigned(begin, key, range.substr(0, colon));
        !s.is_ok())
      return s;
    if (api::Status s = set_unsigned(end, key, range.substr(colon + 1));
        !s.is_ok())
      return s;
    filter_begin = begin;
    filter_end = end;
    return api::Status::ok();
  }
  if (key == "threads") return set_unsigned(threads, key, value);
  if (key == "block-rows") return set_unsigned(block_rows, key, value);
  if (key == "ef") return set_unsigned(ef_search, key, value);
  if (key == "M") return set_unsigned(hnsw_m, key, value);
  if (key == "ef-construction")
    return set_unsigned(ef_construction, key, value);
  if (key == "seed") return set_unsigned(seed, key, value);
  if (key == "batch") return set_unsigned(max_batch, key, value);
  if (key == "cache") {
    auto parsed = api::parse_bool(value);
    if (!parsed.ok())
      return api::Status::invalid_argument("cache: " +
                                           parsed.status().message());
    cache_enabled = parsed.value();
    return api::Status::ok();
  }
  if (key == "cache-threshold") {
    auto parsed = api::parse_real(value);
    if (!parsed.ok())
      return api::Status::invalid_argument("cache-threshold: " +
                                           parsed.status().message());
    cache_threshold = parsed.value();
    return api::Status::ok();
  }
  if (key == "cache-capacity")
    return set_unsigned(cache_capacity, key, value);
  if (key == "cache-ttl-ms") return set_unsigned(cache_ttl_ms, key, value);
  if (key == "shard") {
    // "I/N" (also accepts "I:N"): this process serves shard I of N.
    const std::string_view spec = trim(value);
    std::size_t sep = spec.find('/');
    if (sep == std::string_view::npos) sep = spec.find(':');
    if (sep == std::string_view::npos)
      return api::Status::invalid_argument(
          "shard: expected I/N (serve shard I of N), got " + quoted(spec));
    unsigned index = 0, count = 0;
    if (api::Status s = set_unsigned(index, key, spec.substr(0, sep));
        !s.is_ok())
      return s;
    if (api::Status s = set_unsigned(count, key, spec.substr(sep + 1));
        !s.is_ok())
      return s;
    shard_index = index;
    shard_count = count;
    return api::Status::ok();
  }
  if (key == "backends") {
    backends = std::string(trim(value));
    return api::Status::ok();
  }
  if (key == "remote-deadline-ms")
    return set_unsigned(remote_deadline_ms, key, value);
  if (key == "retries") return set_unsigned(remote_retries, key, value);
  if (key == "hedge-after-ms") return set_unsigned(hedge_after_ms, key, value);
  if (key == "breaker-failures")
    return set_unsigned(breaker_failures, key, value);
  if (key == "breaker-cooldown-ms")
    return set_unsigned(breaker_cooldown_ms, key, value);
  if (key == "probe-interval-ms")
    return set_unsigned(probe_interval_ms, key, value);
  if (key == "require-all-shards") {
    auto parsed = api::parse_bool(value);
    if (!parsed.ok())
      return api::Status::invalid_argument("require-all-shards: " +
                                           parsed.status().message());
    require_all_shards = parsed.value();
    return api::Status::ok();
  }
  if (key == "verify") {
    auto parsed = api::parse_bool(value);
    if (!parsed.ok())
      return api::Status::invalid_argument("verify: " +
                                           parsed.status().message());
    verify_checksums = parsed.value();
    return api::Status::ok();
  }
  if (key == "build-index") {
    auto parsed = api::parse_bool(value);
    if (!parsed.ok())
      return api::Status::invalid_argument("build-index: " +
                                           parsed.status().message());
    build_index = parsed.value();
    return api::Status::ok();
  }
  if (key == "queries") {
    queries_path = std::string(trim(value));
    return api::Status::ok();
  }
  if (key == "eval") return set_unsigned(eval_samples, key, value);
  if (key == "recall-floor") {
    auto parsed = api::parse_real(value);
    if (!parsed.ok())
      return api::Status::invalid_argument("recall-floor: " +
                                           parsed.status().message());
    recall_floor = parsed.value();
    return api::Status::ok();
  }
  if (key == "metrics") {
    auto parsed = api::parse_bool(value);
    if (!parsed.ok())
      return api::Status::invalid_argument("metrics: " +
                                           parsed.status().message());
    dump_metrics = parsed.value();
    return api::Status::ok();
  }
  return api::Status::invalid_argument("unknown serving option " +
                                       quoted(key));
}

api::Status ServeOptions::validate() const {
  const auto bad = [](std::string message) {
    return api::Status::invalid_argument(std::move(message));
  };
  if (strategy.empty()) return bad("strategy: empty name");
  if (store_path.empty()) return bad("store: a store path is required");
  if (k < 1 || k > 1000000) return bad("k: must be in [1, 1000000]");
  if (auto parsed = query::parse_aggregate(aggregate); !parsed.ok())
    return parsed.status();
  if (filter_begin != 0 || filter_end != 0) {
    if (filter_end <= filter_begin)
      return bad("filter: needs LO < HI, got [" +
                 std::to_string(filter_begin) + ", " +
                 std::to_string(filter_end) + ")");
  }
  // The engine-shape checks live with QueryEngineOptions so programmatic
  // engine users hit the identical rules.
  if (api::Status status = engine_options().validate(); !status.is_ok())
    return status;
  if (hnsw_m < 2 || hnsw_m > 512) return bad("M: must be in [2, 512]");
  if (ef_construction < 1) return bad("ef-construction: must be >= 1");
  if (max_batch < 1) return bad("batch: must be >= 1");
  if (cache_threshold < 0.0 || cache_threshold > 1.0)
    return bad("cache-threshold: must be in [0, 1]");
  if (cache_capacity < 1) return bad("cache-capacity: must be >= 1");
  if (shard_count > 0 && shard_index >= shard_count)
    return bad("shard: needs I < N, got " + std::to_string(shard_index) +
               "/" + std::to_string(shard_count));
  if (remote_deadline_ms < 1 || remote_deadline_ms > 600000)
    return bad("remote-deadline-ms: must be in [1, 600000]");
  if (remote_retries > 16) return bad("retries: must be in [0, 16]");
  if (breaker_failures < 1 || breaker_failures > 1000)
    return bad("breaker-failures: must be in [1, 1000]");
  if (breaker_cooldown_ms < 1 || breaker_cooldown_ms > 600000)
    return bad("breaker-cooldown-ms: must be in [1, 600000]");
  if (probe_interval_ms > 60000)
    return bad("probe-interval-ms: must be in [0, 60000]");
  if (recall_floor < 0.0 || recall_floor > 1.0)
    return bad("recall-floor: must be in [0, 1]");
  return api::Status::ok();
}

api::Result<ServeOptions> ServeOptions::from_args(int argc, char** argv) {
  ServeOptions options;
  api::KeyValuePairs pairs;
  std::string options_file;

  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      options.show_help = true;
      return options;  // caller prints usage; nothing else matters
    }
    if (!arg.starts_with("--"))
      return api::Status::invalid_argument("stray argument " + quoted(arg) +
                                           " (flags start with --)");
    const std::string_view key = arg.substr(2);
    if (key == "build-index" || key == "metrics" || key == "cache" ||
        key == "require-all-shards") {
      pairs.emplace_back(std::string(key), "true");
      continue;
    }
    if (key == "no-verify") {
      pairs.emplace_back("verify", "false");
      continue;
    }
    if (i + 1 >= argc)
      return api::Status::invalid_argument("flag " + quoted(arg) +
                                           " expects a value");
    const std::string_view value = argv[++i];
    if (key == "options") {
      options_file = std::string(value);
      continue;
    }
    pairs.emplace_back(std::string(key), std::string(value));
  }

  // File pairs apply before the CLI pairs: flags override the file.
  if (!options_file.empty()) {
    api::KeyValuePairs merged;
    if (api::Status status = api::read_options_file(options_file, merged);
        !status.is_ok())
      return status;
    merged.insert(merged.end(), pairs.begin(), pairs.end());
    pairs = std::move(merged);
  }
  for (const auto& [key, value] : pairs) {
    if (api::Status status = options.set(key, value); !status.is_ok())
      return status;
  }
  if (api::Status status = options.validate(); !status.is_ok()) return status;
  return options;
}

api::Result<ServeOptions> ServeOptions::from_file(const std::string& path) {
  return from_file(path, ServeOptions{});
}

api::Result<ServeOptions> ServeOptions::from_file(const std::string& path,
                                                  const ServeOptions& base) {
  api::KeyValuePairs pairs;
  if (api::Status status = api::read_options_file(path, pairs); !status.is_ok())
    return status;
  ServeOptions options = base;
  for (const auto& [key, value] : pairs) {
    if (api::Status status = options.set(key, value); !status.is_ok())
      return status;
  }
  if (api::Status status = options.validate(); !status.is_ok()) return status;
  return options;
}

}  // namespace gosh::serving
