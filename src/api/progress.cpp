#include "gosh/api/progress.hpp"

#include <string>

#include "gosh/common/logging.hpp"

namespace gosh::api {

void LoggingProgressObserver::on_pipeline_begin(std::string_view backend,
                                                std::size_t num_levels) {
  log_info("pipeline: backend=" + std::string(backend) +
           " levels=" + std::to_string(num_levels));
}

void LoggingProgressObserver::on_level_begin(const LevelInfo& level) {
  log_info("level " + std::to_string(level.level) +
           ": |V|=" + std::to_string(level.vertices) +
           " epochs=" + std::to_string(level.epochs) +
           (level.partitioned ? " [partitioned]" : ""));
}

void LoggingProgressObserver::on_level_end(const LevelInfo& level,
                                           double seconds) {
  log_info("level " + std::to_string(level.level) + ": done in " +
           std::to_string(seconds) + " s" +
           (level.blocked_parts != 0
                ? std::string(level.partitioned ? " [blocked S="
                                                : " [blocked K=") +
                      std::to_string(level.blocked_parts) + "]"
                : ""));
}

void LoggingProgressObserver::on_pipeline_end(double total_seconds) {
  log_info("pipeline: done in " + std::to_string(total_seconds) + " s");
}

}  // namespace gosh::api
