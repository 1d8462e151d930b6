// CLI conveniences for drivers that keep bespoke flags alongside (or
// instead of) Options::from_args — the bench harnesses. Exit-on-error
// lookups over the strict parsers, so a typo'd or negative flag value is a
// diagnosed failure rather than a silent wrap, plus the shared
// synthetic-analog banner the table/figure harnesses print, the service
// banner gosh_query and gosh_serve share, and the three tools' exit on a
// bad command line.
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

/// A tool's exit on a bad command line: the Status, then the synopsis and
/// a pointer to --help, on stderr.
template <typename T>
int usage_error(const Status& status, const OptionTable<T>& table) {
  std::fprintf(stderr, "error: %s\n%s(--help lists every flag)\n",
               status.to_string().c_str(), std::string(table.usage).c_str());
  return 1;
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
