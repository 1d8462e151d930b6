#include "gosh/net/fault_injector.hpp"

#include "gosh/common/rng.hpp"

namespace gosh::net {

void FaultInjector::configure(const FaultOptions& options) {
  drop_rate_.store(options.drop_rate, std::memory_order_relaxed);
  error_rate_.store(options.error_rate, std::memory_order_relaxed);
  stall_rate_.store(options.stall_rate, std::memory_order_relaxed);
  delay_ms_.store(options.delay_ms, std::memory_order_relaxed);
  seed_.store(options.seed, std::memory_order_relaxed);
  counter_.store(0, std::memory_order_relaxed);
  const bool armed = options.drop_rate > 0.0 || options.error_rate > 0.0 ||
                     options.stall_rate > 0.0 || options.delay_ms > 0;
  armed_.store(armed, std::memory_order_release);
}

FaultInjector::Action FaultInjector::next() noexcept {
  const std::uint64_t n = counter_.fetch_add(1, std::memory_order_relaxed);
  // splitmix64_hash is stateless per draw, so a counter is the whole
  // sequence state.
  const double draw = uniform01(
      splitmix64_hash(seed_.load(std::memory_order_relaxed) ^ n));
  // One draw buckets into [drop | error | stall | none): the mix sums the
  // rates, so drop=error=0.5 means every request faults, half each way.
  double edge = drop_rate_.load(std::memory_order_relaxed);
  if (draw < edge) return Action::kDrop;
  edge += error_rate_.load(std::memory_order_relaxed);
  if (draw < edge) return Action::kError;
  edge += stall_rate_.load(std::memory_order_relaxed);
  if (draw < edge) return Action::kStall;
  return Action::kNone;
}

}  // namespace gosh::net
