// ServeOptions — the serving twin of api::Options.
//
// Holds every serving knob: the scan shape (threads, block rows, HNSW
// beam), the HNSW build parameters, OpenOptions, the service-level
// selection (strategy key, default k, multi-vector aggregate, id-range
// filter) and the gosh_query tool modes. Like api::Options it is filled
// programmatically, from_args (strict) or from_file (key=value lines),
// and every key is one row of ServeOptions::table(), parsed by the shared
// engine in api/option_table.hpp — which is also how gosh_serve's
// NetOptions takes every one of these keys unchanged.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "gosh/api/option_table.hpp"
#include "gosh/api/status.hpp"
#include "gosh/common/types.hpp"
#include "gosh/query/hnsw.hpp"
#include "gosh/query/metric.hpp"
#include "gosh/store/embedding_store.hpp"

namespace gosh::serving {

struct ServeOptions {
  // ---- Service selection. ----------------------------------------------
  /// ServiceRegistry key ("exact", "hnsw", "dist-router", ...) or "auto" =
  /// the index-present policy (hnsw when the index file exists beside the
  /// store, exact otherwise; "batched" is an alias of "auto", "router" of
  /// "exact").
  std::string strategy = "auto";
  /// Store root path ("--store"); every service opens it (the dist-router
  /// maps each shard of it separately to resolve vertex queries).
  std::string store_path;
  /// HNSW index path; empty = "<store>.hnsw" beside the store.
  std::string index_path;

  // ---- Query defaults (overridable per QueryRequest). -------------------
  query::Metric metric = query::Metric::kCosine;
  unsigned k = 10;
  /// Multi-vector combine rule: "max" | "mean".
  std::string aggregate = "max";
  /// Restrict answers to global ids in [filter_begin, filter_end);
  /// both 0 = no filter ("--filter LO:HI").
  vid_t filter_begin = 0;
  vid_t filter_end = 0;

  // ---- Scan shape (EngineService). -------------------------------------
  unsigned threads = 0;         ///< scan parallelism; 0 = every worker
  std::uint64_t block_rows = 2048;
  unsigned ef_search = 64;      ///< "--ef"

  // ---- HNSW build shape (subsumes HnswOptions). -------------------------
  unsigned hnsw_m = 16;         ///< "--M"
  unsigned ef_construction = 200;
  std::uint64_t seed = 42;

  // ---- Exact-scan sharing. -----------------------------------------------
  /// Most queries one shared exact pass answers ("--batch").
  std::uint64_t max_batch = 64;

  // ---- Semantic result cache (the "cached:<inner>" wrapper). ------------
  /// "--cache": wrap the selected strategy behind the SemanticCache
  /// (equivalent to prefixing the strategy with "cached:").
  bool cache_enabled = false;
  /// Cosine floor for proximity hits ("--cache-threshold", in [0, 1]);
  /// 1.0 = exact-byte matches only (bit-identical to the uncached path).
  double cache_threshold = 0.99;
  std::uint64_t cache_capacity = 1024;  ///< "--cache-capacity" entries
  std::uint64_t cache_ttl_ms = 0;       ///< "--cache-ttl-ms"; 0 = no expiry

  // ---- Store opening. ---------------------------------------------------
  bool verify_checksums = true;  ///< CLI "--no-verify" clears it
  /// Serve ONE shard of a sharded store ("--shard I/N"): the service opens
  /// `store_path`'s shard I of N and answers in LOCAL ids — how a
  /// dist-router child process holds just its slice. shard_count 0 =
  /// whole store (the default).
  unsigned shard_index = 0;
  unsigned shard_count = 0;

  // ---- Distributed serving (the "remote:"/"dist-router" strategies). ----
  /// Backend list ("--backends"): either inline "host:port,host:port,..."
  /// (for dist-router: one entry per shard, '|' separating replicas of
  /// the same shard) or the path of a file with one entry per line.
  std::string backends;
  /// Per-request budget in ms for one remote call — propagated to the
  /// child as X-Deadline-Ms and enforced on both ends.
  unsigned remote_deadline_ms = 250;
  /// Extra attempts on idempotent queries after a failed one
  /// ("--retries"), exponential backoff + jitter between them.
  unsigned remote_retries = 2;
  /// Launch a hedged second request on another replica when the first has
  /// not answered after this many ms (clipped down to the backend's
  /// observed p99 once enough samples exist); 0 = hedging off.
  unsigned hedge_after_ms = 0;
  /// Circuit breaker: consecutive failures that open it, and how long it
  /// stays open before one half-open probe is let through.
  unsigned breaker_failures = 5;
  unsigned breaker_cooldown_ms = 1000;
  /// Background /healthz probe cadence per backend; 0 = no probe loop.
  unsigned probe_interval_ms = 200;
  /// Strict mode ("--require-all-shards"): a degraded partial merge
  /// becomes kUnavailable (HTTP 503) instead of an annotated answer.
  bool require_all_shards = false;

  // ---- Tool-facing modes (gosh_query), api::Options precedent. ----------
  bool build_index = false;     ///< offline index build + save
  std::string queries_path;     ///< query file, or "-" for stdin
  std::uint64_t eval_samples = 0;
  double recall_floor = 0.0;
  bool dump_metrics = false;    ///< print the metrics text exposition
  bool show_help = false;       ///< --help seen; caller prints usage

  /// The resolved index file ("<store>.hnsw" when index_path is empty).
  std::string resolved_index_path() const;
  /// The subsumed structs, for code layering onto the query internals.
  query::HnswOptions hnsw_options() const;
  store::OpenOptions open_options() const;
  /// Parsed aggregate field; call only after validate().
  query::Aggregate aggregate_mode() const;
  /// The [filter_begin, filter_end) predicate, or an empty filter when the
  /// range is unset.
  query::RowFilter row_filter() const;

  /// Every key's row: parser, range rule and help line.
  static const api::OptionTable<ServeOptions>& table();

  /// Range/consistency checks over every field; first violation wins.
  api::Status validate() const;

  /// Applies one key=value knob (the CLI flag name without "--").
  /// Unknown keys, unparsable and out-of-range values return
  /// kInvalidArgument.
  api::Status set(std::string_view key, std::string_view value);

  /// Parses a full command line (the dialect in api/option_table.hpp).
  /// The result has already passed validate().
  static api::Result<ServeOptions> from_args(int argc, char** argv);

  /// Parses a key=value file ('#' comments, blank lines ignored) on top of
  /// `base` (defaults when omitted). The result has already passed
  /// validate().
  static api::Result<ServeOptions> from_file(const std::string& path);
  static api::Result<ServeOptions> from_file(const std::string& path,
                                             const ServeOptions& base);
};

}  // namespace gosh::serving
