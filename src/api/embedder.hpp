// Embedder — the one interface every execution engine hides behind.
//
// The pipeline of Akyildiz et al. is one algorithm with several engines
// (in-GPU training, the partitioned large-graph path, the baselines); the
// facade exposes them as interchangeable backends constructed from the
// same Options and returning the same EmbedResult. Backends are looked up
// by name in the BackendRegistry (gosh/api/registry.hpp) or auto-selected
// by the fits-in-device policy.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "gosh/api/options.hpp"
#include "gosh/api/progress.hpp"
#include "gosh/api/status.hpp"
#include "gosh/embedding/gosh.hpp"
#include "gosh/graph/graph.hpp"
#include "gosh/simt/metrics.hpp"

namespace gosh::api {

struct EmbedResult {
  embedding::EmbeddingMatrix embedding;  ///< |V| x d, rows = graph ids
  std::string backend;                   ///< registry name that produced it
  double total_seconds = 0.0;
  double coarsening_seconds = 0.0;       ///< 0 for flat backends
  double training_seconds = 0.0;
  /// Per-level reports for the multilevel pipeline; one entry (level 0)
  /// for flat backends.
  std::vector<embedding::LevelReport> levels;
  /// Traffic accounting of the backend's device for this run (all zeros
  /// for CPU-only backends) — what the Figure 4 breakdown reports next to
  /// wall time.
  simt::MetricsSnapshot device_metrics;
};

/// A constructed execution engine. Implementations own their device(s) and
/// translate every internal failure (DeviceOutOfMemory, bad_alloc, io
/// exceptions) into a Status — embed() never throws.
class Embedder {
 public:
  virtual ~Embedder() = default;

  /// Registry name of this backend ("device", "largegraph", ...).
  virtual std::string_view name() const noexcept = 0;

  /// Trains an embedding of `graph` (must be symmetrized, as the builders
  /// produce). `observer` may be null.
  virtual Result<EmbedResult> embed(const graph::Graph& graph,
                                    ProgressObserver* observer = nullptr) = 0;
};

/// The one-call facade: resolves Options::backend ("auto" applies the
/// fits-in-device-memory policy against `graph`), constructs the backend,
/// and runs it.
Result<EmbedResult> embed(const graph::Graph& graph, const Options& options,
                          ProgressObserver* observer = nullptr);

}  // namespace gosh::api
