// CLI conveniences for drivers that keep bespoke flags alongside (or
// instead of) Options::from_args — the bench harnesses. Exit-on-error
// lookups over the strict parsers, so a typo'd or negative flag value is a
// diagnosed failure rather than a silent wrap, plus the shared
// synthetic-analog banner the table/figure harnesses print and the
// store/strategy usage block + service banner gosh_query and gosh_serve
// share (the two tools speak the same serving flags; one text, one voice).
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>

#include "gosh/api/options.hpp"
#include "gosh/query/metric.hpp"
#include "gosh/serving/options.hpp"
#include "gosh/serving/service.hpp"

namespace gosh::api {

/// Integer "--name value" lookup; prints the Status and exits(1) on a
/// malformed value. Absent flags yield `fallback`.
inline long long require_flag_integer(int argc, char** argv,
                                      std::string_view name,
                                      long long fallback) {
  auto parsed = flag_integer(argc, argv, name, fallback);
  if (!parsed.ok()) {
    std::fprintf(stderr, "error: %s\n", parsed.status().to_string().c_str());
    std::exit(1);
  }
  return parsed.value();
}

/// Like require_flag_integer but additionally rejects negative values
/// (scales, dimensions, budgets — nothing a bench flag wants to wrap).
inline unsigned long long require_flag_unsigned(int argc, char** argv,
                                                std::string_view name,
                                                unsigned long long fallback) {
  const long long value = require_flag_integer(
      argc, argv, name, static_cast<long long>(fallback));
  if (value < 0) {
    std::fprintf(stderr,
                 "error: invalid_argument: %.*s: expected a non-negative "
                 "value, got %lld\n",
                 static_cast<int>(name.size()), name.data(), value);
    std::exit(1);
  }
  return static_cast<unsigned long long>(value);
}

/// The ServeOptions flag block shared verbatim between gosh_query and
/// gosh_serve usage text — one source so the two tools cannot drift.
/// (Each tool keeps its own header line and tool-only flags around it;
/// scan parallelism is "--threads" in gosh_query and "--scan-threads" in
/// gosh_serve, whose "--threads" is the connection worker pool.)
inline const char* serve_flags_usage() {
  return
      "  --store PATH           GSHS embedding store (required)\n"
      "  --index PATH           HNSW index file (default: STORE.hnsw)\n"
      "  --strategy S           exact|hnsw|batched|router|auto|remote|\n"
      "                         dist-router (default auto = hnsw when the\n"
      "                         index exists, else exact)\n"
      "  --shard I/N            serve only shard I of the N-sharded store,\n"
      "                         in LOCAL ids (a dist-router child)\n"
      "  --backends LIST        remote/dist-router backends: host:port\n"
      "                         entries, ',' between shards, '|' between\n"
      "                         replicas — or a file with one entry per line\n"
      "  --remote-deadline-ms MS  whole budget per remote call (default 250)\n"
      "  --retries N            extra attempts per remote call (default 2)\n"
      "  --hedge-after-ms MS    hedge a quiet remote call after MS (clipped\n"
      "                         to observed p99); 0 = off (default)\n"
      "  --breaker-failures N   consecutive failures opening the circuit\n"
      "                         breaker (default 5)\n"
      "  --breaker-cooldown-ms MS  open duration before one half-open probe\n"
      "                         (default 1000)\n"
      "  --probe-interval-ms MS background /healthz probe cadence; 0 = off\n"
      "                         (default 200)\n"
      "  --require-all-shards   refuse partial merges: degraded answers\n"
      "                         become 503 instead of degraded: true\n"
      "  --k K                  neighbors per query (default 10)\n"
      "  --metric M             cosine|dot|l2 (default cosine)\n"
      "  --aggregate A          multi-vector combine rule: max|mean\n"
      "  --filter LO:HI         only ids in [LO, HI) may appear in answers\n"
      "  --batch B              most queries one shared exact pass answers\n"
      "  --cache                wrap the strategy behind the semantic result\n"
      "                         cache (same as a cached:<strategy> name)\n"
      "  --cache-threshold T    cosine floor for proximity hits in [0, 1];\n"
      "                         1.0 = exact-byte matches only (default 0.99)\n"
      "  --cache-capacity N     max cached entries, LRU beyond (default 1024)\n"
      "  --cache-ttl-ms MS      entry lifetime; 0 = no expiry (default)\n"
      "  --ef EF                HNSW search beam width (default 64)\n"
      "  --block-rows N         rows per scan block (default 2048)\n"
      "  --no-verify            skip the store checksum pass at open\n"
      "  --options FILE         key=value options file; flags override it\n";
}

/// The "store ... rows x dim, strategy, metric" banner both serving tools
/// print right after make_service().
inline void print_service_banner(const serving::ServeOptions& options,
                                 const serving::QueryService& service) {
  std::printf("store %s: %u rows x %u dim, strategy %s, metric %s\n",
              options.store_path.c_str(), service.rows(), service.dim(),
              std::string(service.strategy_name()).c_str(),
              std::string(query::metric_name(service.default_metric()))
                  .c_str());
}

/// Header banner shared by the table/figure harnesses.
inline void print_bench_banner(const char* title) {
  std::printf("==========================================================\n");
  std::printf("%s\n", title);
  std::printf("(synthetic analogs; shapes comparable to the paper, absolute\n");
  std::printf(" numbers are not — see EXPERIMENTS.md)\n");
  std::printf("==========================================================\n");
}

}  // namespace gosh::api
