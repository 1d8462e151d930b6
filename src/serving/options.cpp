#include "gosh/serving/options.hpp"

#include <string>
#include <tuple>
#include <utility>

namespace gosh::serving {
namespace {

using api::option;

/// A row for a pair of unsigned fields written "A<sep>B", with any of
/// `separators` between them: --filter LO:HI and --shard I/N. It shows as
/// "" while both are 0 (no filter; the whole store).
template <typename V>
api::OptionRow<ServeOptions> pair_row(std::string_view key,
                                      std::string_view value_name,
                                      std::string_view help,
                                      std::string_view separators,
                                      V ServeOptions::*first,
                                      V ServeOptions::*second) {
  return {
      .key = key,
      .value_name = value_name,
      .help = help,
      .parse = [=](ServeOptions& o, std::string_view text) {
        const std::string_view spec = api::detail::trim(text);
        const std::size_t sep = spec.find_first_of(separators);
        if (sep == std::string_view::npos)
          return api::Status::invalid_argument(
              "expected " + std::string(value_name) + ", got " +
              api::detail::quoted(spec));
        V a = 0, b = 0;
        api::Status status = api::detail::parse_value(spec.substr(0, sep), a);
        if (status.is_ok())
          status = api::detail::parse_value(spec.substr(sep + 1), b);
        if (status.is_ok()) std::tie(o.*first, o.*second) = std::pair(a, b);
        return status;
      },
      .show = [=](const ServeOptions& o) {
        if (o.*first == 0 && o.*second == 0) return std::string();
        return std::to_string(o.*first) + separators.front() +
               std::to_string(o.*second);
      }};
}

}  // namespace

std::string ServeOptions::resolved_index_path() const {
  return index_path.empty() ? query::HnswIndex::default_path(store_path)
                            : index_path;
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

const api::OptionTable<ServeOptions>& ServeOptions::table() {
  using api::at_least;
  using api::flag;
  using api::within;
  using S = ServeOptions;
  static const api::OptionTable<S> table{
      "usage: gosh_query --store PATH (--build-index | --queries F | "
      "--eval N) [flags]\n",
      "serving option",
      {{"store and strategy",
        {option<S>("store", "PATH", "GSHS embedding store (required)",
                   &S::store_path, api::nonempty("a store path is required")),
         option<S>("index", "PATH", "HNSW index file; empty = STORE.hnsw",
                   &S::index_path),
         option<S>("strategy", "S",
                   "exact, hnsw, dist-router, remote:LIST, cached:S or auto; "
                   "auto = hnsw when the index exists, else exact "
                   "(batched = auto)",
                   &S::strategy, api::nonempty("empty name")),
         pair_row("shard", "I/N",
                  "serve shard I of N in local ids (a dist-router child)",
                  "/:", &S::shard_index, &S::shard_count),
         option<S>("verify", "BOOL", "checksum the store when opening it",
                   &S::verify_checksums),
         {.key = "no-verify",
          .help = "skip the store checksum pass (= --verify false)",
          .parse = [](S& o, std::string_view) {  // only ever bare: "true"
            o.verify_checksums = false;
            return api::Status::ok();
          },
          .cli_only = true}}},
       {"queries",
        {option<S>("k", "K", "neighbors per query", &S::k,
                   within(1, 1000000)),
         {.key = "metric",
          .value_name = "M",
          .help = "cosine|dot|l2",
          .parse = [](S& o, std::string_view value) {
            auto parsed = query::parse_metric(api::detail::trim(value));
            if (parsed.ok()) o.metric = parsed.value();
            return parsed.ok() ? api::Status::ok() : parsed.status();
          },
          .show = [](const S& o) {
            return std::string(query::metric_name(o.metric));
          }},
         option<S>("aggregate", "A", "multi-vector combine rule: max|mean",
                   &S::aggregate, [](const std::string& name) {
                     auto parsed = query::parse_aggregate(name);
                     return parsed.ok() ? api::Status::ok() : parsed.status();
                   }),
         pair_row("filter", "LO:HI",
                  "only ids in [LO, HI) may appear in answers", ":",
                  &S::filter_begin, &S::filter_end),
         option<S>("ef", "EF", "HNSW search beam width", &S::ef_search,
                   at_least(1)),
         option<S>("batch", "B", "most queries one shared exact pass answers",
                   &S::max_batch, at_least(1)),
         option<S>("block-rows", "N", "rows per scan block", &S::block_rows,
                   at_least(1)),
         option<S>("threads", "T", "scan parallelism; 0 = every worker",
                   &S::threads, within(0, 1024))}},
       {"semantic cache",
        {flag<S>("cache",
                 "serve through the semantic result cache (= cached:S)",
                 &S::cache_enabled),
         option<S>("cache-threshold", "T",
                   "cosine floor of a proximity hit; 1 = exact bytes only",
                   &S::cache_threshold, within(0, 1)),
         option<S>("cache-capacity", "N", "most cached entries, LRU beyond",
                   &S::cache_capacity, at_least(1)),
         option<S>("cache-ttl-ms", "MS", "entry lifetime; 0 = no expiry",
                   &S::cache_ttl_ms)}},
       {"distributed serving",
        {option<S>("backends", "LIST",
                   "remote/dist-router backends: host:port, ',' between "
                   "shards, '|' between replicas; or a file of such lines",
                   &S::backends),
         option<S>("remote-deadline-ms", "MS",
                   "budget per remote call, sent as X-Deadline-Ms",
                   &S::remote_deadline_ms, within(1, 600000)),
         option<S>("retries", "N", "extra attempts per remote call",
                   &S::remote_retries, within(0, 16)),
         option<S>("hedge-after-ms", "MS",
                   "send a hedged call to another replica after MS (clipped "
                   "to the observed p99); 0 = off",
                   &S::hedge_after_ms),
         option<S>("breaker-failures", "N",
                   "consecutive failures that open a breaker",
                   &S::breaker_failures, within(1, 1000)),
         option<S>("breaker-cooldown-ms", "MS",
                   "open time before one half-open probe",
                   &S::breaker_cooldown_ms, within(1, 600000)),
         option<S>("probe-interval-ms", "MS",
                   "/healthz probe cadence per backend; 0 = off",
                   &S::probe_interval_ms, within(0, 60000)),
         flag<S>("require-all-shards",
                 "answer 503 instead of a degraded partial merge",
                 &S::require_all_shards)}},
       {"index build",
        {option<S>("M", "M", "HNSW links per node", &S::hnsw_m, within(2, 512)),
         option<S>("ef-construction", "EC", "HNSW build beam width",
                   &S::ef_construction, at_least(1)),
         option<S>("seed", "S", "build and --eval sampling seed", &S::seed)}},
       // One-shot modes (build, answer a file, evaluate, dump metrics):
       // gosh_serve has no use for them, so its table refuses them.
       {.title = "gosh_query modes",
        .rows = {flag<S>("build-index",
                         "build the HNSW index beside the store",
                         &S::build_index),
                 option<S>("queries", "FILE",
                           "answer each line of FILE ('-' = stdin)",
                           &S::queries_path),
                 option<S>("eval", "N",
                           "recall@k against the exact scan on N rows",
                           &S::eval_samples),
                 option<S>("recall-floor", "F",
                           "exit nonzero when --eval recall is below F",
                           &S::recall_floor, within(0, 1)),
                 flag<S>("metrics", "print the metrics exposition at exit",
                         &S::dump_metrics)},
        .tool_only = true}}};
  return table;
}

api::Status ServeOptions::set(std::string_view key, std::string_view value) {
  return table().set(*this, key, value);
}

api::Status ServeOptions::validate() const {
  if (api::Status status = table().check(*this); !status.is_ok())
    return status;
  if ((filter_begin != 0 || filter_end != 0) && filter_end <= filter_begin)
    return api::Status::invalid_argument(
        "filter: needs LO < HI, got [" + std::to_string(filter_begin) + ", " +
        std::to_string(filter_end) + ")");
  if (shard_count > 0 && shard_index >= shard_count)
    return api::Status::invalid_argument(
        "shard: needs I < N, got " + std::to_string(shard_index) + "/" +
        std::to_string(shard_count));
  return api::Status::ok();
}

api::Result<ServeOptions> ServeOptions::from_args(int argc, char** argv) {
  return table().from_args(argc, argv);
}

api::Result<ServeOptions> ServeOptions::from_file(const std::string& path) {
  return from_file(path, ServeOptions{});
}

api::Result<ServeOptions> ServeOptions::from_file(const std::string& path,
                                                  const ServeOptions& base) {
  return table().from_file(path, base);
}

}  // namespace gosh::serving
