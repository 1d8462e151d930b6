#include "gosh/api/options.hpp"

#include <cstddef>
#include <utility>

namespace gosh::api {
namespace {

/// The preset-controlled fields of GoshConfig (Table 3). Deliberately does
/// NOT reset the rest of `gosh`, so `preset` composes with explicit knobs
/// applied from other sources (a config file under CLI overrides).
Status apply_preset(Options& options) {
  embedding::GoshConfig base;
  if (options.preset == "fast") {
    base = embedding::gosh_fast(options.large_scale);
  } else if (options.preset == "normal") {
    base = embedding::gosh_normal(options.large_scale);
  } else if (options.preset == "slow") {
    base = embedding::gosh_slow(options.large_scale);
  } else if (options.preset == "nocoarse") {
    base = embedding::gosh_no_coarsening(options.large_scale);
  } else {
    return Status::invalid_argument(
        "unknown preset " + detail::quoted(options.preset) +
        " (expected fast|normal|slow|nocoarse)");
  }
  options.gosh.smoothing_ratio = base.smoothing_ratio;
  options.gosh.train.learning_rate = base.train.learning_rate;
  options.gosh.total_epochs = base.total_epochs;
  options.gosh.enable_coarsening = base.enable_coarsening;
  options.gosh.coarsening.threads = base.coarsening.threads;
  return Status::ok();
}

/// `row`, applied before every other key and re-seeding the preset's
/// knobs after each parse: the preset and large-scale rows.
OptionRow<Options> reseeds_preset(OptionRow<Options> row) {
  row.parse = [parse = std::move(row.parse)](Options& options,
                                              std::string_view value) {
    if (Status status = parse(options, value); !status.is_ok()) return status;
    return apply_preset(options);
  };
  row.applies_first = true;
  return row;
}

}  // namespace

Result<long long> flag_integer(int argc, char** argv, std::string_view name,
                               long long fallback) {
  for (int i = 1; i < argc; ++i) {
    if (argv[i] != name) continue;
    if (i + 1 >= argc)
      return Status::invalid_argument(std::string(name) +
                                      " expects a value");
    auto parsed = parse_integer(argv[i + 1]);
    if (!parsed.ok())
      return Status::invalid_argument(std::string(name) + ": " +
                                      parsed.status().message());
    return parsed.value();
  }
  return fallback;
}

bool flag_present(int argc, char** argv, std::string_view name) {
  for (int i = 1; i < argc; ++i) {
    if (argv[i] == name) return true;
  }
  return false;
}

std::vector<std::string> flag_list(int argc, char** argv,
                                   std::string_view name,
                                   std::vector<std::string> fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (argv[i] != name) continue;
    std::vector<std::string> values;
    const std::string_view raw = argv[i + 1];
    std::size_t begin = 0;
    while (begin <= raw.size()) {
      const std::size_t comma = raw.find(',', begin);
      const std::size_t end = comma == std::string_view::npos ? raw.size()
                                                              : comma;
      if (end > begin)
        values.emplace_back(raw.substr(begin, end - begin));
      if (comma == std::string_view::npos) break;
      begin = comma + 1;
    }
    return values;
  }
  return fallback;
}

const OptionTable<Options>& Options::table() {
  using O = Options;
  using G = embedding::GoshConfig;
  using TC = embedding::TrainConfig;
  using CC = coarsen::CoarseningConfig;
  using LG = largegraph::LargeGraphConfig;
  using embedding::PositiveSampling;
  using embedding::UpdateRule;
  static const OptionTable<O> table{
      "usage: gosh_embed (--input edges.txt | --demo) [--output emb.bin] "
      "[flags]\n",
      "option",
      {{"input and output",
        {option<O>("input", "PATH", "edge list: whitespace pairs, '#' comments",
                   &O::input_path),
         flag<O>("demo", "embed a generated LFR graph instead", &O::demo),
         option<O>("output", "PATH", "embedding output file", &O::output_path),
         option<O>("format", "F",
                   "binary|text|store; store writes the GSHS layout "
                   "gosh_query and gosh_serve read",
                   &O::output_format, one_of("binary|text|store")),
         option<O>("rows-per-shard", "N", "store rows per shard; 0 = one shard",
                   &O::rows_per_shard),
         flag<O>("eval",
                 "embed an 80/20 split and report its link-prediction AUCROC",
                 &O::run_eval),
         flag<O>("verbose", "narrate per-level progress", &O::verbose),
         option<O>("trace-out", "PATH", "write the run's trace as Chrome JSON",
                   &O::trace_out)}},
       {"backend and preset (Table 3)",
        {option<O>("backend", "NAME",
                   "auto, device, largegraph, multidevice, verse-cpu, "
                   "line-device or mile; auto = device when the graph fits "
                   "in device memory, else largegraph",
                   &O::backend, nonempty("empty name")),
         reseeds_preset(option<O>(
             "preset", "NAME",
             "fast|normal|slow|nocoarse; sets the learning rate, e, p and "
             "coarsening, which the other flags override",
             &O::preset, one_of("fast|normal|slow|nocoarse"))),
         reseeds_preset(flag<O>("large-scale",
                                "take the preset's e_large epoch budget",
                                &O::large_scale))}},
       {"training (Algorithm 1)",
        {option<O>("dim", "D", "embedding dimension",
                   at(&O::gosh, &G::train, &TC::dim), within(1, 4096)),
         option<O>("negative-samples", "NS", "negative samples per positive",
                   at(&O::gosh, &G::train, &TC::negative_samples),
                   within(1, 64)),
         option<O>("learning-rate", "LR",
                   "initial learning rate, decayed per epoch",
                   at(&O::gosh, &G::train, &TC::learning_rate),
                   within(0, 10, /*exclude_lo=*/true)),
         option<O>("epochs", "E", "epoch budget e over all levels",
                   at(&O::gosh, &G::total_epochs), at_least(1)),
         option<O>("smoothing", "P",
                   "smoothing ratio p of the epoch split over the levels",
                   at(&O::gosh, &G::smoothing_ratio), within(0, 1)),
         option<O>("edge-epochs", "BOOL",
                   "an epoch samples |E| targets as in the paper; false "
                   "counts |V|-sample passes",
                   at(&O::gosh, &G::edge_epochs)),
         choice<O>("update-rule", "RULE",
                   "simultaneous or sequential updates of the source and "
                   "sample rows",
                   at(&O::gosh, &G::train, &TC::update_rule),
                   {{"simultaneous", UpdateRule::kSimultaneous},
                    {"sequential", UpdateRule::kPaperSequential}}),
         choice<O>("positive-sampling", "MODE",
                   "adjacency or ppr positive samples",
                   at(&O::gosh, &G::train, &TC::positive_sampling),
                   {{"adjacency", PositiveSampling::kAdjacency},
                    {"ppr", PositiveSampling::kPpr}}),
         option<O>("seed", "S", "RNG seed",
                   at(&O::gosh, &G::train, &TC::seed))}},
       {"device",
        {{.key = "device-mib",
          .value_name = "M",
          .help = "emulated device memory in MiB",
          .parse = [](O& o, std::string_view value) {
            unsigned long long mib = 0;
            Status status = detail::parse_value(value, mib);
            if (status.is_ok()) status = within(1, 1 << 24)(mib);
            if (status.is_ok())
              o.device.memory_bytes = static_cast<std::size_t>(mib) << 20;
            return status;
          },
          // Sub-MiB devices set programmatically are legitimate (benches
          // force Algorithm 5 at test scale); only 0 is not.
          .check = [](const O& o) {
            return o.device.memory_bytes == 0
                       ? Status::invalid_argument("device needs nonzero memory")
                       : Status::ok();
          },
          .show = [](const O& o) {
            return std::to_string(o.device.memory_bytes >> 20);
          }},
         // Thread counts spawn real host threads at construction, so an
         // absurd value must be an error here, not a std::system_error.
         option<O>("workers", "W", "device worker threads; 0 = every core",
                   at(&O::device, &simt::DeviceConfig::workers),
                   within(0, 1024)),
         option<O>("memory-fraction", "F",
                   "share of device memory the fits-check may plan for",
                   at(&O::gosh, &G::device_memory_fraction),
                   within(0, 1, /*exclude_lo=*/true))}},
       {"coarsening (Algorithm 4)",
        {option<O>("coarsening", "BOOL",
                   "coarsen into a multilevel hierarchy first",
                   at(&O::gosh, &G::enable_coarsening)),
         option<O>("coarsening-threshold", "N",
                   "stop below N vertices per level",
                   at(&O::gosh, &G::coarsening, &CC::threshold), at_least(2)),
         option<O>("coarsening-threads", "T",
                   "1 = sequential Algorithm 4; 0 = every worker",
                   at(&O::gosh, &G::coarsening, &CC::threads),
                   within(0, 1024))}},
       {"partitioned training (Algorithm 5)",
        {option<O>("pgpu", "P", "P_GPU: sub-matrix slots on the device",
                   at(&O::gosh, &G::large_graph, &LG::pgpu), at_least(2)),
         option<O>("sgpu", "S", "S_GPU: sample-pool slots on the device",
                   at(&O::gosh, &G::large_graph, &LG::sgpu), at_least(1)),
         option<O>("batch", "B", "B: positives per vertex per sample pool",
                   at(&O::gosh, &G::large_graph, &LG::batch_B), at_least(1)),
         option<O>("sampler-threads", "T",
                   "sample-pool filler threads; 0 = every worker",
                   at(&O::gosh, &G::large_graph, &LG::sampler_threads),
                   within(0, 1024))}},
       {"baseline backends",
        {option<O>("devices", "N", "multidevice replicas", &O::num_devices,
                   within(1, 64)),
         option<O>("sync-interval", "N",
                   "multidevice passes between averagings", &O::sync_interval,
                   at_least(1)),
         option<O>("mile-levels", "N", "mile coarsening levels",
                   &O::mile_levels, at_least(1)),
         option<O>("mile-refinement", "N", "mile refinement rounds",
                   &O::mile_refinement_rounds),
         option<O>("verse-similarity", "S",
                   "verse-cpu similarity: ppr|adjacency", &O::verse_similarity,
                   one_of("ppr|adjacency")),
         option<O>("verse-lr", "LR", "verse-cpu learning rate",
                   &O::verse_learning_rate,
                   within(0, 10, /*exclude_lo=*/true))}}}};
  return table;
}

Status Options::set(std::string_view key, std::string_view value) {
  return table().set(*this, key, value);
}

Status Options::validate() const {
  if (Status status = table().check(*this); !status.is_ok()) return status;
  const auto bad = [](std::string message) {
    return Status::invalid_argument(std::move(message));
  };
  if (!(gosh.train.ppr_alpha > 0.0f) || !(gosh.train.ppr_alpha < 1.0f))
    return bad("ppr-alpha: must be in (0, 1)");
  if (gosh.coarsening.max_levels < 1)
    return bad("coarsening max_levels: must be >= 1");
  if (rows_per_shard != 0 && output_format != "store")
    return bad("rows-per-shard: only meaningful with --format store");
  return Status::ok();
}

Result<Options> Options::from_args(int argc, char** argv) {
  return table().from_args(argc, argv);
}

Result<Options> Options::from_file(const std::string& path) {
  return from_file(path, Options{});
}

Result<Options> Options::from_file(const std::string& path,
                                   const Options& base) {
  return table().from_file(path, base);
}

}  // namespace gosh::api
