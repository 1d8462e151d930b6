// gosh_embed — the command-line interface of the library, built entirely on
// the `gosh::api` facade.
//
//   gosh_embed --input edges.txt --output emb.bin [options]
//
// Reads a whitespace edge list (SNAP format, '#' comments), embeds it with
// the selected backend (default: the fits-in-device-memory auto policy),
// and writes the embedding. With --eval, ONE pipeline runs on the 80/20
// train split and is reused for both the link-prediction metric and the
// written output (the output then covers the train split's compacted ids).
//
// `gosh_embed --help` lists every flag, grouped, with its default; each
// is also a key=value line of an --options file.
#include <sys/resource.h>

#include <cstdio>
#include <exception>
#include <string>

#include "gosh/api/api.hpp"
#include "gosh/trace/trace.hpp"

namespace {

/// Forwards every progress event to the wrapped observer (may be null)
/// and records one "level-N" span per coarsening level into the current
/// trace — the pipeline-shape view gosh_embed --trace-out dumps, on top
/// of the rotation/pool-wait/pair-kernel spans the trainer emits itself.
class TracingProgressObserver : public gosh::api::ProgressObserver {
 public:
  explicit TracingProgressObserver(gosh::api::ProgressObserver* inner)
      : inner_(inner) {}

  void on_pipeline_begin(std::string_view backend,
                         std::size_t num_levels) override {
    if (inner_ != nullptr) inner_->on_pipeline_begin(backend, num_levels);
  }
  void on_level_begin(const gosh::api::LevelInfo& level) override {
    level_begin_ns_ = gosh::trace::now_ns();
    if (inner_ != nullptr) inner_->on_level_begin(level);
  }
  void on_epoch(std::size_t level, unsigned epoch, unsigned total) override {
    if (inner_ != nullptr) inner_->on_epoch(level, epoch, total);
  }
  void on_pair(std::size_t level, unsigned rotation, std::size_t pair,
               std::size_t num_pairs) override {
    if (inner_ != nullptr) inner_->on_pair(level, rotation, pair, num_pairs);
  }
  void on_level_end(const gosh::api::LevelInfo& level,
                    double seconds) override {
    if (gosh::trace::Trace* trace = gosh::trace::current()) {
      trace->record("level-" + std::to_string(level.level), level_begin_ns_,
                    gosh::trace::now_ns(), /*depth=*/1,
                    gosh::trace::thread_ordinal());
    }
    if (inner_ != nullptr) inner_->on_level_end(level, seconds);
  }
  void on_pipeline_end(double total_seconds) override {
    if (inner_ != nullptr) inner_->on_pipeline_end(total_seconds);
  }

 private:
  gosh::api::ProgressObserver* inner_;
  std::uint64_t level_begin_ns_ = 0;
};

int fail(const gosh::api::Status& status) {
  std::fprintf(stderr, "error: %s\n", status.to_string().c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gosh;

  const api::OptionTable<api::Options>& table = api::Options::table();
  auto parsed = api::Options::from_args(argc, argv);
  if (!parsed.ok()) return api::usage_error(parsed.status(), table);
  api::Options options = std::move(parsed).value();
  if (options.show_help) {
    std::fputs(table.help().c_str(), stdout);
    return 0;
  }
  if (options.input_path.empty() && !options.demo) {
    return api::usage_error(
        api::Status::invalid_argument("--input or --demo is required"),
        table);
  }
  if (options.verbose) set_log_level(LogLevel::Info);

  graph::Graph g;
  if (options.demo) {
    graph::LfrParams params;
    params.average_degree = 12.0;
    params.communities = 64;
    g = graph::lfr_like(1 << 13, params, 7);
    std::printf("demo graph: LFR |V|=%u |E|=%llu\n", g.num_vertices(),
                static_cast<unsigned long long>(g.num_edges_undirected()));
  } else {
    try {
      g = graph::read_edge_list(options.input_path);
    } catch (const std::exception& error) {
      return fail(api::Status::io_error(options.input_path + ": " +
                                        error.what()));
    }
    std::printf("loaded %s: |V|=%u |E|=%llu\n", options.input_path.c_str(),
                g.num_vertices(),
                static_cast<unsigned long long>(g.num_edges_undirected()));
  }

  api::LoggingProgressObserver logger;
  api::ProgressObserver* observer = options.verbose ? &logger : nullptr;

  // --trace-out: profile the whole run as ONE trace (sample rate 1) and
  // install it for the pipeline — the trainer's TRACE_SPANs and the
  // observer's level spans all land in it.
  trace::Tracer& tracer = trace::Tracer::global();
  std::shared_ptr<trace::Trace> profile;
  TracingProgressObserver tracing_observer(observer);
  if (!options.trace_out.empty()) {
    trace::TraceOptions knobs;
    knobs.sample_rate = 1.0;
    tracer.configure(knobs);
    profile = tracer.begin(trace::mint_request_id());
    if (profile != nullptr) profile->set_label("gosh_embed");
    observer = &tracing_observer;
  }
  trace::ScopedTrace profile_scope(profile);

  // One pipeline run, whatever the mode: with --eval it embeds the train
  // split and that same embedding is evaluated AND written (the seed tool
  // used to train twice — once for the metric, once for the output).
  api::EmbedResult result;
  if (options.run_eval) {
    const auto split = graph::split_for_link_prediction(g, {.seed = 1});
    auto embedded = api::embed(split.train, options, observer);
    if (!embedded.ok()) return fail(embedded.status());
    result = std::move(embedded).value();
    const auto report =
        eval::evaluate_link_prediction(result.embedding, split);
    std::printf("link prediction: AUCROC %.2f%% (embedding %.2f s)\n",
                100.0 * report.auc_roc, result.total_seconds);
    std::printf("note: output embeds the 80%% train split "
                "(compacted vertex ids)\n");
  } else {
    auto embedded = api::embed(g, options, observer);
    if (!embedded.ok()) return fail(embedded.status());
    result = std::move(embedded).value();
  }

  // peak_rss_mib is the process's peak resident set so far (ru_maxrss is
  // in KiB on Linux): graph load, embedding and, with --eval, the split.
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  std::printf("backend %s: embedded in %.2f s (coarsening %.2f s, "
              "%zu levels) peak_rss_mib=%.1f\n",
              result.backend.c_str(), result.total_seconds,
              result.coarsening_seconds, result.levels.size(),
              static_cast<double>(usage.ru_maxrss) / 1024.0);
  // blocked_parts is K of a resident level trained in blocked passes (its
  // matrix exceeds one core's L2), S of a partitioned level whose pair
  // kernels trained in blocked sub-part tasks, 0 for any other level.
  for (std::size_t i = 0; i < result.levels.size(); ++i) {
    const embedding::LevelReport& level = result.levels[i];
    std::printf("  level %zu: |V|=%u passes=%u %s blocked_parts=%u "
                "(%.2f s)\n",
                i, level.vertices, level.passes,
                level.used_large_graph_path ? "partitioned" : "resident",
                level.blocked_parts, level.train_seconds);
  }

  if (profile != nullptr) {
    tracer.finish(profile);
    if (api::Status status =
            trace::write_chrome_json(tracer, options.trace_out);
        !status.is_ok()) {
      std::fprintf(stderr, "warning: %s\n", status.to_string().c_str());
    } else {
      std::printf("wrote %s (%zu spans)\n", options.trace_out.c_str(),
                  profile->spans().size());
    }
  }

  if (api::Status status =
          api::write_embedding(result.embedding, options.output_path,
                               options.output_format, options.rows_per_shard);
      !status.is_ok()) {
    return fail(status);
  }
  std::printf("wrote %s (%s, %u x %u)\n", options.output_path.c_str(),
              options.output_format.c_str(), result.embedding.rows(),
              result.embedding.dim());
  return 0;
}
