// Options — the facade's one configuration struct.
//
// Subsumes the per-engine configs (GoshConfig, TrainConfig,
// CoarseningConfig, LargeGraphConfig, DeviceConfig) by composition and adds
// the facade-level knobs (backend, preset, io paths). Populate it
// programmatically (mutate the nested structs), from a command line
// (Options::from_args, strict: `--dim abc` and `--seed -3` are Statuses)
// or from a key=value file (Options::from_file). Every key is one row of
// Options::table(), which the shared engine in option_table.hpp turns
// into all three paths and gosh_embed's --help.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "gosh/api/option_table.hpp"
#include "gosh/api/status.hpp"
#include "gosh/embedding/gosh.hpp"
#include "gosh/simt/device.hpp"

namespace gosh::api {

// ---- Strict "--name value" argv lookups, for drivers that keep bespoke
// ---- flags alongside (or instead of) Options::from_args — the bench
// ---- harnesses. First occurrence wins; absent flags yield the fallback.

/// Integer flag; an unparsable value is an error, not a silent fallback.
Result<long long> flag_integer(int argc, char** argv, std::string_view name,
                               long long fallback);
bool flag_present(int argc, char** argv, std::string_view name);
/// Comma-separated list flag; absent => `fallback`.
std::vector<std::string> flag_list(int argc, char** argv,
                                   std::string_view name,
                                   std::vector<std::string> fallback);

struct Options {
  // ---- Facade-level selection. ------------------------------------------
  /// Registry key ("device", "largegraph", "multidevice", "verse-cpu",
  /// "line-device", "mile") or "auto" = the fits-in-device-memory policy.
  std::string backend = "auto";
  /// Table 3 preset seeding `gosh`: fast | normal | slow | nocoarse.
  std::string preset = "normal";
  /// Selects the e_large epoch budgets of the preset.
  bool large_scale = false;

  // ---- Engine configuration (subsumed structs). -------------------------
  /// Full pipeline config: train, coarsening, large_graph, epoch budget.
  embedding::GoshConfig gosh = embedding::gosh_normal();
  /// Emulated device shape; `memory_bytes` drives the fits-check.
  simt::DeviceConfig device;
  /// Replica count for the "multidevice" backend.
  unsigned num_devices = 2;
  /// Passes between replica averagings ("multidevice" backend).
  unsigned sync_interval = 32;
  /// "mile" backend tuning (paper Table 5 defaults; benches lower them at
  /// small synthetic scales).
  unsigned mile_levels = 8;
  unsigned mile_refinement_rounds = 2;
  /// "verse-cpu" baseline knobs. VERSE keeps its own paper settings (PPR
  /// similarity, lr 0.0025) rather than inheriting the GOSH training
  /// knobs; these two let harnesses select the adjacency variant (the
  /// Figure 4 CPU reference) without bypassing the facade.
  std::string verse_similarity = "ppr";  ///< "ppr" | "adjacency"
  float verse_learning_rate = 0.0025f;

  // ---- Tool-facing io. --------------------------------------------------
  std::string input_path;
  bool demo = false;                        ///< generated graph, no input
  std::string output_path = "embedding.bin";
  std::string output_format = "binary";     ///< "binary" | "text" | "store"
  /// Store format only: rows per GSHS shard file (0 = single shard). The
  /// serving Router opens each shard as its own engine.
  std::uint64_t rows_per_shard = 0;
  bool run_eval = false;                    ///< link-prediction evaluation
  bool verbose = false;                     ///< narrate progress (Info log)
  /// File the training-phase trace (gosh::trace Chrome JSON) is dumped to
  /// ("--trace-out"); empty = tracing stays off.
  std::string trace_out;
  bool show_help = false;                   ///< --help seen; caller prints

  // Convenience accessors into the subsumed structs.
  embedding::TrainConfig& train() noexcept { return gosh.train; }
  const embedding::TrainConfig& train() const noexcept { return gosh.train; }

  /// Every key's row: parser, range rule and help line.
  static const OptionTable<Options>& table();

  /// Range/consistency checks over every field; first violation wins.
  Status validate() const;

  /// Applies one key=value knob (the CLI flag name without "--").
  /// Unknown keys, unparsable and out-of-range values return
  /// kInvalidArgument.
  Status set(std::string_view key, std::string_view value);

  /// Parses a full command line (the dialect in option_table.hpp). The
  /// result has already passed validate().
  static Result<Options> from_args(int argc, char** argv);

  /// Parses a key=value file ('#' comments, blank lines ignored) on top of
  /// `base` (defaults when omitted). The result has already passed
  /// validate().
  static Result<Options> from_file(const std::string& path);
  static Result<Options> from_file(const std::string& path,
                                   const Options& base);
};

}  // namespace gosh::api
