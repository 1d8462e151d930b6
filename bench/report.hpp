// Machine-readable bench reporting — the BENCH_*.json perf trajectory.
//
// bench_kernels, bench_query_throughput, bench_serve_throughput,
// bench_table6_medium, bench_table7_large and bench_fig4_breakdown accept
// `--json <file>` and emit one JSON object: the
// bench name, the SIMD dispatch that was active, the host facts that tell
// a slow machine from a regression (core count, CPU model, build type,
// the per-core L2 size the device sizes its launches by, the git commit
// the bench was built from), and a flat list
// of records (bench name, string params, measured value + unit, ISA,
// thread count). Committed snapshots (BENCH_5.json, ...) are an array of
// these objects, one per harness, so successive PRs can diff throughput
// without re-parsing console tables.
#pragma once

#include <cstdio>
#include <ctime>
#include <fstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "gosh/api/api.hpp"
#include "gosh/common/simd.hpp"
#include "gosh/simt/device.hpp"

// CMake passes the configuration the benches were built in, and the
// commit they were built from ("none" outside a git checkout).
#ifndef GOSH_BUILD_TYPE
#define GOSH_BUILD_TYPE "unknown"
#endif
#ifndef GOSH_GIT_SHA
#define GOSH_GIT_SHA "none"
#endif

namespace gosh::bench {

/// One measurement. `params` are ordered key/value pairs ("d" -> "128");
/// `value` is in `unit` (ns/op, queries/s, ...).
struct Record {
  std::string name;
  std::vector<std::pair<std::string, std::string>> params;
  double value = 0.0;
  std::string unit;
  std::string isa;
  unsigned threads = 1;
};

inline std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                        static_cast<unsigned>(c));
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// "--json <file>" lookup; empty string when absent (no JSON written).
inline std::string json_flag(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string_view(argv[i]) == "--json") return argv[i + 1];
  }
  return {};
}

/// "--run-id <id>" lookup; empty string when absent. A run id names one
/// sweep across harnesses (e.g. "pr6-avx512-host") so the records of a
/// committed BENCH_*.json can be traced to the machine/session that
/// produced them.
inline std::string run_id_flag(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string_view(argv[i]) == "--run-id") return argv[i + 1];
  }
  return {};
}

/// CPU seconds this process has used so far, all threads included.
inline double process_cpu_seconds() {
  timespec now{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &now);
  return static_cast<double>(now.tv_sec) + now.tv_nsec * 1e-9;
}

/// Positive plus negative updates one embed trained: passes x |V| x
/// (1 + ns) on a resident level, rotations x B x K x |V| x (1 + ns) on a
/// partitioned one.
inline double trained_samples(const api::EmbedResult& result,
                              const api::Options& options) {
  const double per_positive = 1.0 + options.train().negative_samples;
  double samples = 0.0;
  for (const embedding::LevelReport& level : result.levels) {
    const double positives =
        level.used_large_graph_path
            ? static_cast<double>(level.rotations) *
                  options.gosh.large_graph.batch_B * level.partitions *
                  level.vertices
            : static_cast<double>(level.passes) * level.vertices;
    samples += positives * per_positive;
  }
  return samples;
}

/// ISO-8601 UTC "now" for the report header.
inline std::string utc_timestamp() {
  const std::time_t now = std::time(nullptr);
  std::tm parts{};
  gmtime_r(&now, &parts);
  char buffer[32];
  std::strftime(buffer, sizeof(buffer), "%Y-%m-%dT%H:%M:%SZ", &parts);
  return buffer;
}

/// The "model name" of the first CPU in /proc/cpuinfo; "unknown" where
/// there is none.
inline std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) break;
    const std::size_t begin = line.find_first_not_of(' ', colon + 1);
    return begin == std::string::npos ? std::string() : line.substr(begin);
  }
  return "unknown";
}

/// Writes the report object; false (with a stderr diagnostic) on IO error.
/// `run_id` (optional) tags the report with the sweep it belongs to; the
/// timestamp is stamped unconditionally.
inline bool write_report(const std::string& path, std::string_view bench,
                         const std::vector<Record>& records,
                         std::string_view run_id = {}) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "error: cannot write bench report to '%s'\n",
                 path.c_str());
    return false;
  }
  std::fprintf(out, "{\n  \"bench\": \"%s\",\n",
               json_escape(bench).c_str());
  if (!run_id.empty()) {
    std::fprintf(out, "  \"run_id\": \"%s\",\n",
                 json_escape(run_id).c_str());
  }
  std::fprintf(out, "  \"timestamp\": \"%s\",\n", utc_timestamp().c_str());
  std::fprintf(out, "  \"isa_active\": \"%s\",\n",
               std::string(simd::isa_name(simd::active_isa())).c_str());
  std::fprintf(out,
               "  \"host\": {\"hardware_concurrency\": %u, \"cpu_model\": "
               "\"%s\", \"build_type\": \"%s\", \"l2_bytes\": %zu, "
               "\"git_sha\": \"%s\"},\n",
               std::thread::hardware_concurrency(),
               json_escape(cpu_model()).c_str(),
               json_escape(GOSH_BUILD_TYPE).c_str(), simt::core_l2_bytes(),
               json_escape(GOSH_GIT_SHA).c_str());
  std::fprintf(out, "  \"records\": [");
  for (std::size_t i = 0; i < records.size(); ++i) {
    const Record& r = records[i];
    std::fprintf(out, "%s\n    {\"name\": \"%s\", \"params\": {",
                 i == 0 ? "" : ",", json_escape(r.name).c_str());
    for (std::size_t p = 0; p < r.params.size(); ++p) {
      std::fprintf(out, "%s\"%s\": \"%s\"", p == 0 ? "" : ", ",
                   json_escape(r.params[p].first).c_str(),
                   json_escape(r.params[p].second).c_str());
    }
    std::fprintf(out,
                 "}, \"value\": %.6g, \"unit\": \"%s\", \"isa\": \"%s\", "
                 "\"threads\": %u}",
                 r.value, json_escape(r.unit).c_str(),
                 json_escape(r.isa).c_str(), r.threads);
  }
  std::fprintf(out, "\n  ]\n}\n");
  const bool ok = std::fclose(out) == 0;
  if (!ok) {
    std::fprintf(stderr, "error: short write on bench report '%s'\n",
                 path.c_str());
  }
  return ok;
}

}  // namespace gosh::bench
