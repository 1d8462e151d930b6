// ProgressObserver — the facade's reporting callback API.
//
// Replaces the ad-hoc printf narration the tool/examples used to do: a
// backend fires structured begin/end events per pipeline and per level,
// plus epoch ticks on the resident training path, and the caller decides
// how (and whether) to render them. LoggingProgressObserver is the
// batteries-included renderer used by the CLI.
#pragma once

#include <cstddef>
#include <string_view>

#include "gosh/common/types.hpp"

namespace gosh::api {

/// One coarsening level as the pipeline sees it. Flat (single-level)
/// backends report exactly one level covering the whole graph.
struct LevelInfo {
  std::size_t level = 0;        ///< 0 = the original graph
  vid_t vertices = 0;
  eid_t arcs = 0;
  unsigned epochs = 0;          ///< scheduled budget, paper epoch unit
  bool partitioned = false;     ///< Algorithm 5 path
  /// K of the blocked passes a resident level above L2 trained in, or S
  /// of the sub-parts a partitioned level's pair kernels above L2 trained
  /// in; 0 when it trained unblocked (embedding::LevelReport::blocked_parts).
  /// Known once the level has trained: set in on_level_end, 0 in
  /// on_level_begin.
  /// A partial last cycle's positive-only rounds count in simt.kernels.
  unsigned blocked_parts = 0;
};

class ProgressObserver {
 public:
  virtual ~ProgressObserver() = default;

  /// Fired once, after the backend has planned its work. `num_levels` is 1
  /// for flat backends and the hierarchy depth for the GOSH pipeline.
  virtual void on_pipeline_begin(std::string_view /*backend*/,
                                 std::size_t /*num_levels*/) {}
  virtual void on_level_begin(const LevelInfo& /*level*/) {}
  /// Per synchronized training pass within the level: one tick per
  /// Algorithm 3 pass on the resident path, one tick per Algorithm 5
  /// rotation on the partitioned path. `epoch` counts from 0 to
  /// `total - 1` within the level.
  virtual void on_epoch(std::size_t /*level*/, unsigned /*epoch*/,
                        unsigned /*total*/) {}
  /// Per pair kernel inside one rotation of the partitioned path
  /// (`pair` counts from 0 to `num_pairs - 1`); silent on resident levels.
  virtual void on_pair(std::size_t /*level*/, unsigned /*rotation*/,
                       std::size_t /*pair*/, std::size_t /*num_pairs*/) {}
  virtual void on_level_end(const LevelInfo& /*level*/, double /*seconds*/) {}
  virtual void on_pipeline_end(double /*total_seconds*/) {}
};

/// Renders pipeline/level events through the library logger at Info level
/// (epoch ticks are summarized, not streamed).
class LoggingProgressObserver : public ProgressObserver {
 public:
  void on_pipeline_begin(std::string_view backend,
                         std::size_t num_levels) override;
  void on_level_begin(const LevelInfo& level) override;
  void on_level_end(const LevelInfo& level, double seconds) override;
  void on_pipeline_end(double total_seconds) override;
};

}  // namespace gosh::api
