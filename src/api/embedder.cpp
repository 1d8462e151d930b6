// Built-in Embedder backends and the one-call facade.
//
// Each backend adapts one pre-facade engine onto the Embedder interface:
//   device      — the GOSH multilevel pipeline (gosh_embed), per-level
//                 resident-vs-partitioned choice as in Algorithm 2;
//   largegraph  — the same pipeline with the original graph (level 0)
//                 forced through the Algorithm 5 partitioned engine;
//                 coarser levels keep the per-level fits-check;
//   verse-cpu   — the VERSE CPU baseline (flat);
//   line-device — the GraphVite-like LINE-on-device baseline (flat; OOM is
//                 a Status, matching the paper's Table 7 failure rows);
//   mile        — the MILE matching+refinement baseline.
//
// All internal failure modes (DeviceOutOfMemory, bad_alloc, io exceptions)
// are caught here and translated to Status — nothing throws past embed().
#include "gosh/api/embedder.hpp"

#include <cassert>
#include <exception>
#include <new>
#include <utility>

#include "gosh/api/registry.hpp"
#include "gosh/baselines/line_device.hpp"
#include "gosh/baselines/mile.hpp"
#include "gosh/baselines/verse_cpu.hpp"
#include "gosh/common/timer.hpp"
#include "gosh/embedding/schedule.hpp"
#include "gosh/simt/device.hpp"

namespace gosh::api {
namespace {

/// Shared exception-to-Status translation for every backend body.
template <typename Body>
Result<EmbedResult> guarded(std::string_view backend, Body body) {
  try {
    return body();
  } catch (const simt::DeviceOutOfMemory& error) {
    return Status::out_of_memory(std::string(backend) + ": " + error.what());
  } catch (const std::bad_alloc&) {
    return Status::out_of_memory(std::string(backend) +
                                 ": host allocation failed");
  } catch (const std::exception& error) {
    return Status::internal(std::string(backend) + ": " + error.what());
  }
}

/// Begin/end bookkeeping shared by the flat (single-level) backends.
/// RAII: if the backend body throws past it, the destructor still delivers
/// the end events, so observers never see a begin without its end.
struct FlatProgress {
  FlatProgress(ProgressObserver* observer, std::string_view backend,
               const graph::Graph& graph, unsigned epochs)
      : observer_(observer) {
    info_.level = 0;
    info_.vertices = graph.num_vertices();
    info_.arcs = graph.num_arcs();
    info_.epochs = epochs;
    if (observer_ != nullptr) {
      observer_->on_pipeline_begin(backend, 1);
      observer_->on_level_begin(info_);
    }
  }
  ~FlatProgress() { finish(timer_.seconds()); }
  void finish(double seconds) {
    if (observer_ == nullptr || finished_) return;
    finished_ = true;
    observer_->on_level_end(info_, seconds);
    observer_->on_pipeline_end(seconds);
  }

  ProgressObserver* observer_;
  LevelInfo info_;
  WallTimer timer_;
  bool finished_ = false;
};

embedding::LevelReport flat_report(const graph::Graph& graph, unsigned epochs,
                                   unsigned passes, double seconds) {
  embedding::LevelReport report;
  report.vertices = graph.num_vertices();
  report.arcs = graph.num_arcs();
  report.epochs = epochs;
  report.passes = passes;
  report.train_seconds = seconds;
  return report;
}

// ---- device / largegraph: the GOSH multilevel pipeline. -----------------

class GoshBackend final : public Embedder {
 public:
  GoshBackend(const Options& options, bool force_large_graph)
      : options_(options),
        force_large_graph_(force_large_graph),
        device_(options.device) {}

  std::string_view name() const noexcept override {
    return force_large_graph_ ? "largegraph" : "device";
  }

  Result<EmbedResult> embed(const graph::Graph& graph,
                            ProgressObserver* observer) override {
    return guarded(name(), [&]() -> Result<EmbedResult> {
      embedding::GoshConfig config = options_.gosh;
      config.force_large_graph = force_large_graph_;
      // An unset coarsening thread count follows --workers, as in verse-cpu.
      if (config.coarsening.threads == 0) {
        config.coarsening.threads = options_.device.workers;
      }

      // Adapt the embedding-layer hooks onto the observer. Training runs
      // coarsest level first, so the first level event reveals the depth.
      std::size_t current_level = 0;
      bool announced = false;
      if (observer != nullptr) {
        config.on_level = [this, observer, &current_level,
                           &announced](const embedding::LevelEvent& event) {
          if (!announced) {
            observer->on_pipeline_begin(name(), event.level + 1);
            announced = true;
          }
          current_level = event.level;
          LevelInfo info;
          info.level = event.level;
          info.vertices = event.vertices;
          info.arcs = event.arcs;
          info.epochs = event.epochs;
          info.partitioned = event.used_large_graph_path;
          info.blocked_parts = event.blocked_parts;
          if (event.finished) {
            observer->on_level_end(info, event.seconds);
          } else {
            observer->on_level_begin(info);
          }
        };
        config.train.on_epoch = [observer, &current_level](unsigned epoch,
                                                           unsigned total) {
          observer->on_epoch(current_level, epoch, total);
        };
        config.large_graph.on_pair =
            [observer, &current_level](unsigned rotation, std::size_t pair,
                                       std::size_t num_pairs) {
              observer->on_pair(current_level, rotation, pair, num_pairs);
            };
      }

      // Deliver on_pipeline_end even when gosh_embed throws (guarded()
      // turns the exception into a Status after this unwinds).
      struct EndGuard {
        ProgressObserver* observer;
        const bool* announced;  // only close a pipeline that was opened
        WallTimer timer;
        bool done = false;
        ~EndGuard() {
          if (observer != nullptr && *announced && !done)
            observer->on_pipeline_end(timer.seconds());
        }
      } end_guard{observer, &announced, WallTimer{}, false};

      // Per-embed traffic accounting: the device is owned by this backend
      // instance, so a reset here scopes the counters to this run.
      device_.metrics().reset();
      embedding::GoshResult pipeline =
          embedding::gosh_embed(graph, device_, config);
      if (observer != nullptr) {
        observer->on_pipeline_end(pipeline.total_seconds);
      }
      end_guard.done = true;

      EmbedResult result;
      result.embedding = std::move(pipeline.embedding);
      result.backend = std::string(name());
      result.total_seconds = pipeline.total_seconds;
      result.coarsening_seconds = pipeline.coarsening_seconds;
      result.training_seconds = pipeline.training_seconds;
      result.levels = std::move(pipeline.levels);
      result.device_metrics = device_.metrics().snapshot();
      return result;
    });
  }

 private:
  Options options_;
  bool force_large_graph_;
  simt::Device device_;
};

// ---- verse-cpu: the paper's 1.00x CPU baseline, flat. -------------------

class VerseBackend final : public Embedder {
 public:
  explicit VerseBackend(const Options& options) : options_(options) {}

  std::string_view name() const noexcept override { return "verse-cpu"; }

  Result<EmbedResult> embed(const graph::Graph& graph,
                            ProgressObserver* observer) override {
    return guarded(name(), [&]() -> Result<EmbedResult> {
      const embedding::TrainConfig& train = options_.gosh.train;
      baselines::VerseConfig config;
      config.dim = train.dim;
      config.negative_samples = train.negative_samples;
      // VERSE keeps its own rate and similarity (paper settings by
      // default); the GOSH training knobs deliberately do not leak into
      // it. Options::verse_lr / verse_similarity are the baseline's own
      // dials — the Figure 4 CPU reference selects "adjacency" there.
      config.learning_rate = options_.verse_learning_rate;
      config.similarity = options_.verse_similarity == "adjacency"
                              ? baselines::VerseConfig::Similarity::kAdjacency
                              : baselines::VerseConfig::Similarity::kPpr;
      config.epochs = options_.gosh.total_epochs;
      config.edge_epochs = options_.gosh.edge_epochs;
      config.threads = options_.device.workers;
      config.ppr_alpha = train.ppr_alpha;
      config.update_rule = train.update_rule;
      config.seed = train.seed;

      // VERSE converts the epoch budget internally under edge_epochs;
      // LevelReport.passes documents "passes actually run", so mirror it.
      const unsigned passes =
          config.edge_epochs
              ? embedding::epochs_to_passes(config.epochs,
                                            graph.num_edges_undirected(),
                                            graph.num_vertices())
              : config.epochs;
      FlatProgress progress(observer, name(), graph, config.epochs);
      WallTimer timer;
      EmbedResult result;
      result.embedding = baselines::verse_cpu_embed(graph, config);
      result.backend = std::string(name());
      result.total_seconds = result.training_seconds = timer.seconds();
      result.levels.push_back(flat_report(graph, config.epochs, passes,
                                          result.total_seconds));
      progress.finish(result.total_seconds);
      return result;
    });
  }

 private:
  Options options_;
};

// ---- line-device: the GraphVite-like baseline, flat. --------------------

class LineBackend final : public Embedder {
 public:
  explicit LineBackend(const Options& options)
      : options_(options), device_(options.device) {}

  std::string_view name() const noexcept override { return "line-device"; }

  Result<EmbedResult> embed(const graph::Graph& graph,
                            ProgressObserver* observer) override {
    return guarded(name(), [&]() -> Result<EmbedResult> {
      const embedding::TrainConfig& train = options_.gosh.train;
      baselines::LineConfig config;
      config.dim = train.dim;
      config.negative_samples = train.negative_samples;
      config.learning_rate = train.learning_rate;
      config.epochs = options_.gosh.total_epochs;
      config.update_rule = train.update_rule;
      config.seed = train.seed;

      FlatProgress progress(observer, name(), graph, config.epochs);
      WallTimer timer;
      device_.metrics().reset();
      EmbedResult result;
      result.embedding = baselines::line_device_embed(graph, device_, config);
      result.backend = std::string(name());
      result.total_seconds = result.training_seconds = timer.seconds();
      result.levels.push_back(flat_report(graph, config.epochs, config.epochs,
                                          result.total_seconds));
      result.device_metrics = device_.metrics().snapshot();
      progress.finish(result.total_seconds);
      return result;
    });
  }

 private:
  Options options_;
  simt::Device device_;
};

// ---- mile: matching coarsening + propagation refinement. ----------------

class MileBackend final : public Embedder {
 public:
  explicit MileBackend(const Options& options) : options_(options) {}

  std::string_view name() const noexcept override { return "mile"; }

  Result<EmbedResult> embed(const graph::Graph& graph,
                            ProgressObserver* observer) override {
    return guarded(name(), [&]() -> Result<EmbedResult> {
      const embedding::TrainConfig& train = options_.gosh.train;
      baselines::MileConfig config;
      config.coarsening_levels = options_.mile_levels;
      config.refinement_rounds = options_.mile_refinement_rounds;
      config.base.dim = train.dim;
      config.base.negative_samples = train.negative_samples;
      config.base.epochs = options_.gosh.total_epochs;
      config.base.learning_rate = 0.025f;  // MILE's base-method setting
      config.base.seed = train.seed;
      config.seed = train.seed;

      FlatProgress progress(observer, name(), graph,
                            options_.gosh.total_epochs);
      WallTimer timer;
      baselines::MileResult mile = baselines::mile_embed(graph, config);
      EmbedResult result;
      result.embedding = std::move(mile.embedding);
      result.backend = std::string(name());
      result.total_seconds = timer.seconds();
      result.coarsening_seconds = mile.coarsening_seconds;
      result.training_seconds =
          mile.base_embed_seconds + mile.refinement_seconds;
      result.levels.push_back(flat_report(graph, options_.gosh.total_epochs,
                                          options_.gosh.total_epochs,
                                          result.total_seconds));
      progress.finish(result.total_seconds);
      return result;
    });
  }

 private:
  Options options_;
};

}  // namespace

namespace detail {

/// Registers the built-ins; called once from BackendRegistry::instance().
void register_builtin_backends(BackendRegistry& registry) {
  const auto must = [](Status status) {
    (void)status;
    assert(status.is_ok());
  };
  must(registry.add("device", [](const Options& options) {
    return Result<std::unique_ptr<Embedder>>(
        std::make_unique<GoshBackend>(options, /*force_large_graph=*/false));
  }));
  must(registry.add("largegraph", [](const Options& options) {
    return Result<std::unique_ptr<Embedder>>(
        std::make_unique<GoshBackend>(options, /*force_large_graph=*/true));
  }));
  must(registry.add("verse-cpu", [](const Options& options) {
    return Result<std::unique_ptr<Embedder>>(
        std::make_unique<VerseBackend>(options));
  }));
  must(registry.add("line-device", [](const Options& options) {
    return Result<std::unique_ptr<Embedder>>(
        std::make_unique<LineBackend>(options));
  }));
  must(registry.add("mile", [](const Options& options) {
    return Result<std::unique_ptr<Embedder>>(
        std::make_unique<MileBackend>(options));
  }));
}

}  // namespace detail

Result<EmbedResult> embed(const graph::Graph& graph, const Options& options,
                          ProgressObserver* observer) {
  if (Status status = options.validate(); !status.is_ok()) return status;
  auto embedder = make_embedder(options, graph);
  if (!embedder.ok()) return embedder.status();
  return embedder.value()->embed(graph, observer);
}

}  // namespace gosh::api
