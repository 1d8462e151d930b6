// gosh_query — the serving-side CLI: top-k nearest neighbors out of a
// GSHS embedding store written by gosh_embed (--format store), driven
// entirely through the gosh::serving service API.
//
//   gosh_query --store emb.store --build-index             # offline HNSW
//   gosh_query --store emb.store --queries q.txt --k 10    # serve a file
//   echo 17 | gosh_query --store emb.store --queries -     # ... or stdin
//   gosh_query --store emb.store --strategy hnsw --queries q.txt
//   gosh_query --store emb.store --eval 100 --k 10         # recall@k
//
// Query input: one query per line. A line is one or more ';'-separated
// segments; each segment is either a single vertex id (the stored row
// becomes the query vector) or dim() whitespace-separated floats. One
// segment = a plain query (a vertex query excludes its own row from the
// answer); several segments = ONE multi-vector query whose candidate
// scores combine under --aggregate (max|mean).
//
// Modes (exactly one): --build-index, --queries FILE|-, --eval N.
// `gosh_query --help` lists every flag, grouped, with its default; each
// is also a key=value line of an --options file. The serving flags are
// the ones gosh_serve takes.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "gosh/api/api.hpp"

namespace {

using namespace gosh;

int fail(const api::Status& status) {
  std::fprintf(stderr, "error: %s\n", status.to_string().c_str());
  return 1;
}

void print_neighbors(const std::string& label,
                     const std::vector<query::Neighbor>& neighbors) {
  std::printf("%s:", label.c_str());
  for (const query::Neighbor& n : neighbors) {
    std::printf(" %u:%.4f", n.id, n.score);
  }
  std::printf("\n");
}

/// Parses one ';'-separated segment: a bare vertex id or dim floats. A
/// lone token is parsed as an exact integer (not through float, which
/// would silently misroute ids above 2^24 on big stores).
bool parse_segment(const std::string& segment, serving::QueryService& service,
                   std::vector<float>& vector, vid_t& vertex,
                   bool& is_vertex) {
  std::istringstream in(segment);
  std::vector<std::string> tokens;
  std::string token;
  while (in >> token) tokens.push_back(token);
  if (tokens.size() == 1) {
    auto id = api::parse_unsigned(tokens[0]);
    if (!id.ok() || id.value() > std::numeric_limits<vid_t>::max())
      return false;
    vertex = static_cast<vid_t>(id.value());
    is_vertex = true;
    return true;
  }
  if (tokens.size() != service.dim()) return false;
  std::vector<float> values;
  values.reserve(tokens.size());
  for (const std::string& t : tokens) {
    auto value = api::parse_real(t);
    if (!value.ok()) return false;
    values.push_back(static_cast<float>(value.value()));
  }
  vector = std::move(values);
  is_vertex = false;
  return true;
}

/// Parses one query line into a serving::Query (resolving vertex segments
/// of multi-vector lines through the service). Returns false with a
/// warning on malformed lines so one typo doesn't kill a stream.
bool parse_query_line(const std::string& line, std::size_t line_number,
                      serving::QueryService& service, serving::Query& out,
                      std::string& label) {
  std::vector<std::string> segments;
  std::size_t begin = 0;
  while (begin <= line.size()) {
    const std::size_t semi = line.find(';', begin);
    const std::size_t end = semi == std::string::npos ? line.size() : semi;
    segments.push_back(line.substr(begin, end - begin));
    if (semi == std::string::npos) break;
    begin = semi + 1;
  }

  const auto warn = [&line_number, &service](const char* what) {
    std::fprintf(stderr,
                 "warning: line %zu: %s (expected a vertex id or %u floats "
                 "per ';' segment)\n",
                 line_number, what, service.dim());
    return false;
  };

  if (segments.size() == 1) {
    std::vector<float> vector;
    vid_t vertex = 0;
    bool is_vertex = false;
    if (!parse_segment(segments[0], service, vector, vertex, is_vertex))
      return warn("malformed query");
    if (is_vertex) {
      if (vertex >= service.rows()) return warn("vertex out of range");
      out = serving::Query::vertex(vertex);
      label = "vertex " + std::to_string(vertex);
    } else {
      out = serving::Query::vector(std::move(vector));
      label = "query " + std::to_string(line_number);
    }
    return true;
  }

  // Multi-vector: every segment becomes one vector of the joint query.
  std::vector<float> flat;
  for (const std::string& segment : segments) {
    std::vector<float> vector;
    vid_t vertex = 0;
    bool is_vertex = false;
    if (!parse_segment(segment, service, vector, vertex, is_vertex))
      return warn("malformed multi-vector segment");
    if (is_vertex) {
      auto row = service.row_vector(vertex);
      if (!row.ok()) return warn("vertex out of range");
      vector = std::move(row).value();
    }
    flat.insert(flat.end(), vector.begin(), vector.end());
  }
  out = serving::Query::multi(std::move(flat), segments.size());
  label = "multi " + std::to_string(line_number) + " (" +
          std::to_string(segments.size()) + " vectors)";
  return true;
}

int serve_queries(serving::QueryService& service,
                  const serving::ServeOptions& options) {
  // A file is batched into ONE request (every strategy answers it in one
  // pass); stdin streams —
  // each line is answered as it arrives, so a long-lived pipe sees its
  // results immediately.
  const bool streaming = options.queries_path == "-";
  std::ifstream file;
  std::istream* in = &std::cin;
  if (!streaming) {
    file.open(options.queries_path);
    if (!file)
      return fail(api::Status::io_error("cannot open " + options.queries_path));
    in = &file;
  }

  serving::QueryRequest request;
  request.k = options.k;
  request.aggregate = options.aggregate_mode();
  request.filter = options.row_filter();
  std::vector<std::string> labels;
  std::size_t served = 0;
  double seconds = 0.0;
  std::string line;
  std::size_t line_number = 0;
  int bad_lines = 0;
  while (std::getline(*in, line)) {
    ++line_number;
    if (line.empty() || line[0] == '#') continue;
    serving::Query query;
    std::string label;
    if (!parse_query_line(line, line_number, service, query, label)) {
      ++bad_lines;
      continue;
    }
    request.queries.push_back(std::move(query));
    labels.push_back(std::move(label));
    if (streaming) {
      auto response = service.serve(request);
      if (!response.ok()) return fail(response.status());
      print_neighbors(labels.front(), response.value().results.front());
      seconds += response.value().seconds;
      ++served;
      request.queries.clear();
      labels.clear();
    }
  }

  if (!streaming) {
    auto response = service.serve(request);
    if (!response.ok()) return fail(response.status());
    for (std::size_t q = 0; q < labels.size(); ++q) {
      print_neighbors(labels[q], response.value().results[q]);
    }
    seconds = response.value().seconds;
    served = labels.size();
  }
  std::printf("served %zu queries in %.3f ms (strategy %s)\n", served,
              1e3 * seconds, std::string(service.strategy_name()).c_str());
  return bad_lines > 0 ? 2 : 0;
}

int run_eval(serving::QueryService& candidate,
             const serving::ServeOptions& options,
             serving::MetricsRegistry& metrics) {
  if (candidate.rows() == 0) {
    return fail(api::Status::invalid_argument("store is empty"));
  }
  if (candidate.strategy_name() == "exact") {
    // Exact-vs-exact recall is vacuously 1.0 — refuse rather than let a
    // CI recall gate pass without the index it meant to measure.
    return fail(api::Status::invalid_argument(
        "--eval measures an approximate strategy against the exact scan; "
        "strategy resolved to 'exact' (run --build-index first, or pass "
        "--strategy hnsw)"));
  }
  // Ground truth comes from the registry too — the exact scan over the
  // same store and metric.
  serving::ServeOptions exact_options = options;
  exact_options.strategy = "exact";
  auto truth = serving::make_service(exact_options, &metrics);
  if (!truth.ok()) return fail(truth.status());

  const std::size_t samples =
      std::min<std::size_t>(options.eval_samples, candidate.rows());
  Rng rng(options.seed);
  std::vector<vid_t> probes(samples);
  for (vid_t& p : probes) p = rng.next_vertex(candidate.rows());

  // One pass per service: recall compares the answers, and each side
  // keeps its per-request service-side seconds for the latency report.
  std::vector<double> exact_seconds, candidate_seconds;
  exact_seconds.reserve(samples);
  candidate_seconds.reserve(samples);

  double hits = 0.0, denom = 0.0;
  for (const vid_t probe : probes) {
    auto exact =
        truth.value()->serve(serving::QueryRequest::for_vertex(probe, options.k));
    if (!exact.ok()) return fail(exact.status());
    exact_seconds.push_back(exact.value().seconds);
    auto approx =
        candidate.serve(serving::QueryRequest::for_vertex(probe, options.k));
    if (!approx.ok()) return fail(approx.status());
    candidate_seconds.push_back(approx.value().seconds);

    // The ground truth may hold fewer than k rows (tiny store); recall is
    // measured against what the exact scan can actually return.
    const auto& truth_list = exact.value().results.front();
    const auto& approx_list = approx.value().results.front();
    denom += static_cast<double>(truth_list.size());
    for (const query::Neighbor& t : truth_list) {
      for (const query::Neighbor& got : approx_list) {
        if (t.id == got.id) {
          hits += 1.0;
          break;
        }
      }
    }
  }
  const double recall = denom > 0 ? hits / denom : 0.0;

  std::printf("recall@%u: %.4f over %zu sampled rows\n", options.k, recall,
              samples);
  // A p99 is printed only with at least kTailSamples requests beyond it
  // (N >= 1000); a smaller run reports its slowest request as `max`.
  constexpr std::size_t kTailSamples = 10;
  const auto report = [](const char* name, std::vector<double> seconds) {
    std::sort(seconds.begin(), seconds.end());
    const std::size_t n = seconds.size();
    const double total = std::accumulate(seconds.begin(), seconds.end(), 0.0);
    // Linear interpolation between the closest ranks.
    const auto percentile = [&seconds, n](double p) {
      const double rank = p * static_cast<double>(n - 1);
      const std::size_t lo = static_cast<std::size_t>(rank);
      const std::size_t hi = std::min(lo + 1, n - 1);
      return seconds[lo] + (seconds[hi] - seconds[lo]) * (rank - lo);
    };
    const bool has_p99 = n >= 100 * kTailSamples;
    std::printf("%s: %.1f q/s   p50 %.3f ms   %s %.3f ms\n", name,
                n / (total > 0 ? total : 1e-9), 1e3 * percentile(0.5),
                has_p99 ? "p99" : "max",
                1e3 * (has_p99 ? percentile(0.99) : seconds.back()));
  };
  report("exact", std::move(exact_seconds));
  report("candidate", std::move(candidate_seconds));

  if (recall < options.recall_floor) {
    std::fprintf(stderr, "error: recall %.4f below required floor %.4f\n",
                 recall, options.recall_floor);
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const api::OptionTable<serving::ServeOptions>& table =
      serving::ServeOptions::table();
  auto parsed = serving::ServeOptions::from_args(argc, argv);
  if (!parsed.ok()) return api::usage_error(parsed.status(), table);
  serving::ServeOptions options = std::move(parsed).value();
  if (options.show_help) {
    std::fputs(table.help().c_str(), stdout);
    return 0;
  }

  const int modes = (options.build_index ? 1 : 0) +
                    (options.queries_path.empty() ? 0 : 1) +
                    (options.eval_samples > 0 ? 1 : 0);
  if (modes != 1) {
    return api::usage_error(
        api::Status::invalid_argument(
            "pick exactly one of --build-index, --queries, --eval"),
        table);
  }

  if (options.build_index) {
    auto report = serving::build_index(options);
    if (!report.ok()) return fail(report.status());
    std::printf("built HNSW (M=%u, ef_construction=%u, max level %d) "
                "in %.2f s\n",
                report.value().M, report.value().ef_construction,
                report.value().max_level, report.value().seconds);
    std::printf("wrote %s\n", report.value().path.c_str());
    return 0;
  }

  serving::MetricsRegistry& metrics = serving::MetricsRegistry::global();
  auto service = serving::make_service(options, &metrics);
  if (!service.ok()) return fail(service.status());
  api::print_service_banner(options, *service.value());

  int exit_code = 0;
  if (options.eval_samples > 0) {
    exit_code = run_eval(*service.value(), options, metrics);
  } else {
    exit_code = serve_queries(*service.value(), options);
  }
  if (options.dump_metrics) {
    std::printf("\n%s", metrics.expose().c_str());
  }
  return exit_code;
}
