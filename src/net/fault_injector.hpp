// FaultInjector — deterministic chaos for the HTTP front-end. HttpServer
// consults it once per rate-limited request (the query path; /healthz and
// /metrics stay clean so probes observe the server, not the chaos) and
// acts out the drawn fault: drop the connection without a response, delay
// then serve, answer 500, or stall until the client hangs up.
//
// Draws are seeded and counter-driven (splitmix64_hash, the generator the
// trace sampler uses), so a test that configures {seed, rates} sees the
// exact same fault sequence on every run — failure modes become provable
// in CI instead of discovered in production. All knobs are atomics: the
// bench flips a healthy shard to stalling mid-run without a restart.
//
// Compiled in always, off by default (`active()` is one relaxed load when
// every rate is zero).
#pragma once

#include <atomic>
#include <cstdint>

namespace gosh::net {

struct FaultOptions {
  double drop_rate = 0.0;   ///< P(close the socket without responding)
  double error_rate = 0.0;  ///< P(respond 500 "chaos" without the handler)
  double stall_rate = 0.0;  ///< P(hold the connection open, never respond)
  unsigned delay_ms = 0;    ///< added latency on every surviving request
  std::uint64_t seed = 42;  ///< draw-sequence seed
};

class FaultInjector {
 public:
  enum class Action : std::uint8_t { kNone, kDrop, kError, kStall };

  FaultInjector() = default;
  explicit FaultInjector(const FaultOptions& options) { configure(options); }

  /// Swaps in a new fault mix and restarts the draw sequence; safe while
  /// requests are in flight.
  void configure(const FaultOptions& options);

  /// True when any fault (or delay) is configured — the fast-path gate.
  bool active() const noexcept {
    return armed_.load(std::memory_order_relaxed);
  }

  /// Draws the fault for the next request. Deterministic: draw n of a
  /// given {seed, rates} configuration is always the same Action.
  Action next() noexcept;

  /// Latency to add before serving a surviving request (0 = none).
  unsigned delay_ms() const noexcept {
    return delay_ms_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<bool> armed_{false};
  std::atomic<double> drop_rate_{0.0};
  std::atomic<double> error_rate_{0.0};
  std::atomic<double> stall_rate_{0.0};
  std::atomic<unsigned> delay_ms_{0};
  std::atomic<std::uint64_t> seed_{42};
  std::atomic<std::uint64_t> counter_{0};
};

}  // namespace gosh::net
