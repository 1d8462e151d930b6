// gosh::trace — per-request distributed-style tracing for the serving and
// training hot paths.
//
// MetricsRegistry answers "how slow is the tail"; this layer answers "where
// did THIS request spend its time". The pieces:
//
//   - TRACE_SPAN("scan"): an RAII span on the calling thread, nestable.
//     When tracing is off (the common case) the constructor is one relaxed
//     atomic load plus a thread-local null check — nanoseconds, no
//     allocation, no branch into the cold half.
//   - Trace: one request's record. Spans may be appended from several
//     threads (the HTTP worker AND the exact-scan leader that served it in
//     a shared pass both write into the same trace), so the span list is
//     mutex-guarded with the annotated sync.hpp wrappers.
//   - ScopedTrace: installs a trace as the thread's current context;
//     TRACE_SPANs anywhere below (handler -> service -> engine) attach to
//     it. Cross-thread handoff is explicit: capture current_shared() on
//     the request's thread, Trace::record() from the thread doing the work.
//   - Tracer: sampling policy + a bounded ring of completed traces. The
//     sampler is seeded and counter-driven, so a given (seed, request
//     ordinal) always makes the same keep/drop decision — reproducible in
//     tests. Slow requests (>= slow_ms) are always kept and logged through
//     common/logging at Warn, whatever the sample rate says.
//   - export_chrome_json(): the ring as Chrome trace_event JSON — load it
//     at chrome://tracing or ui.perfetto.dev. Served by GET /debug/traces
//     and dumped by gosh_serve/gosh_embed --trace-out.
//
// now_ns() is the trace clock shim: steady-clock nanoseconds, the one
// timing source new net/serving code should use (gosh_lint's trace-clock
// rule rejects raw std::chrono::steady_clock::now() there).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "gosh/api/status.hpp"
#include "gosh/common/sync.hpp"

namespace gosh::trace {

/// The trace clock shim: monotonic nanoseconds (steady_clock epoch). All
/// span timestamps — and any new hand-rolled timing in src/net//
/// src/serving/ — come from here, so every span lives on one timeline.
std::uint64_t now_ns() noexcept;

/// Global tracing gate (relaxed atomic). Tracer::configure() sets it from
/// whether the options are active; TRACE_SPAN is inert while it is false.
bool enabled() noexcept;
void set_enabled(bool on) noexcept;

/// A fresh request id: "gosh-" + 16 hex digits, unique within the process.
std::string mint_request_id();

/// An inbound X-Request-Id made safe for logs/JSON: printable ASCII minus
/// quotes/backslash survives, everything else becomes '_'; capped at 128
/// characters; empty input mints a fresh id.
std::string sanitize_request_id(std::string_view raw);

/// Small dense ordinal for the calling thread (0, 1, 2, ... in first-use
/// order) — readable "tid" values for the trace viewer.
std::uint32_t thread_ordinal() noexcept;

struct SpanRecord {
  std::string name;
  std::uint64_t begin_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint32_t depth = 0;   ///< nesting depth on its thread at entry
  std::uint32_t thread = 0;  ///< thread_ordinal() of the recording thread
};

/// One request's record. Thread-safe: the span list takes a mutex per
/// append — traced requests pay that, untraced requests never get here.
class Trace {
 public:
  Trace(std::string request_id, bool sampled);

  const std::string& request_id() const noexcept { return request_id_; }
  /// True when the sampler picked this trace (slow-only traces are kept
  /// by duration instead).
  bool sampled() const noexcept { return sampled_; }
  std::uint64_t begin_ns() const noexcept { return begin_ns_; }

  /// Human label for the export ("POST /v1/query", "gosh_embed").
  void set_label(std::string label);
  std::string label() const;

  /// Appends one completed span. The two-argument form stamps the calling
  /// thread's ordinal and depth 0. The five-argument form is the
  /// cross-thread shape: an exact-scan leader writing queue-wait/scan into
  /// the trace of each request its pass served.
  void record(std::string_view name, std::uint64_t begin_ns,
              std::uint64_t end_ns, std::uint32_t depth, std::uint32_t thread);
  void record(std::string_view name, std::uint64_t begin_ns,
              std::uint64_t end_ns);

  std::vector<SpanRecord> spans() const;
  /// Spans rejected past kMaxSpans — surfaced in the export so a truncated
  /// trace never reads as a complete one.
  std::size_t dropped() const;
  /// 0 until Tracer::finish() stamps it.
  std::uint64_t end_ns() const;
  void finish_at(std::uint64_t ns);

  /// Per-trace span cap: a runaway training trace degrades to "first 64k
  /// spans + dropped count" instead of unbounded memory.
  static constexpr std::size_t kMaxSpans = 65536;

 private:
  const std::string request_id_;
  const bool sampled_;
  const std::uint64_t begin_ns_;

  mutable common::Mutex mutex_;
  std::string label_ GOSH_GUARDED_BY(mutex_);
  std::vector<SpanRecord> spans_ GOSH_GUARDED_BY(mutex_);
  std::size_t dropped_ GOSH_GUARDED_BY(mutex_) = 0;
  std::uint64_t end_ns_ GOSH_GUARDED_BY(mutex_) = 0;
};

/// The calling thread's current trace (null when none is installed).
Trace* current() noexcept;
/// Shared handle to the same — what a hand-off site captures so another
/// thread can record into the trace after the handler moved on.
std::shared_ptr<Trace> current_shared();
/// Nesting depth a Span opened now on this thread would record.
std::uint32_t current_depth() noexcept;

/// Installs `trace` as the thread's current context for a scope; restores
/// the previous one (usually none) on destruction. Null is fine — the
/// scope is then a no-op, which keeps call sites branch-free.
class ScopedTrace {
 public:
  explicit ScopedTrace(std::shared_ptr<Trace> trace);
  ~ScopedTrace();
  ScopedTrace(const ScopedTrace&) = delete;
  ScopedTrace& operator=(const ScopedTrace&) = delete;

 private:
  std::shared_ptr<Trace> previous_;
};

/// RAII span: records [construction, destruction) into the thread's
/// current trace. Inert — no allocation, no clock read — when tracing is
/// disabled or no trace is installed.
class Span {
 public:
  explicit Span(std::string_view name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Trace* trace_ = nullptr;
  std::string name_;
  std::uint64_t begin_ns_ = 0;
  std::uint32_t depth_ = 0;
};

#define GOSH_TRACE_CONCAT2(a, b) a##b
#define GOSH_TRACE_CONCAT(a, b) GOSH_TRACE_CONCAT2(a, b)
/// The instrumentation macro: TRACE_SPAN("scan"); times the rest of the
/// enclosing scope.
#define TRACE_SPAN(name) \
  ::gosh::trace::Span GOSH_TRACE_CONCAT(gosh_trace_span_, __LINE__)(name)

struct TraceOptions {
  /// Fraction of requests traced, in [0, 1]. 0 disables sampling (slow_ms
  /// can still keep slow requests).
  double sample_rate = 0.0;
  /// Requests slower than this are kept AND logged at Warn regardless of
  /// the sample decision; 0 disables the slow path.
  double slow_ms = 0.0;
  /// Completed traces retained; the ring overwrites oldest-first.
  std::size_t capacity = 256;
  /// Sampler seed: same seed + same request order = same decisions.
  std::uint64_t seed = 42;
};

/// Sampling policy + the bounded ring of completed traces. Constructible
/// per test; global() is the process instance the tools wire up.
class Tracer {
 public:
  explicit Tracer(TraceOptions options = {});
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  static Tracer& global();

  /// Swaps in new knobs and flips the global enabled() gate to whether
  /// they are active. Callable while serving.
  void configure(const TraceOptions& options);
  TraceOptions options() const;
  /// True when sample_rate > 0 or slow_ms > 0.
  bool active() const noexcept;

  /// Starts a trace for one request, or null when this request is not
  /// traced (the per-request fast path: one atomic counter bump + one
  /// sampler hash).
  std::shared_ptr<Trace> begin(std::string request_id);
  /// Stamps the end time, applies the keep/slow-log policy, and retires
  /// the trace into the ring when kept.
  void finish(const std::shared_ptr<Trace>& trace);

  /// Completed-and-kept traces, oldest first.
  std::vector<std::shared_ptr<Trace>> snapshot() const;
  /// The ring as Chrome trace_event JSON (an object with displayTimeUnit
  /// and a traceEvents array) — chrome://tracing / Perfetto loadable, and
  /// strict enough for net::json::Value::parse.
  std::string export_chrome_json() const;

  std::uint64_t begun() const noexcept;
  std::uint64_t finished() const noexcept;
  std::uint64_t kept() const noexcept;
  void clear();

 private:
  mutable common::Mutex mutex_;
  TraceOptions options_ GOSH_GUARDED_BY(mutex_);
  std::vector<std::shared_ptr<Trace>> ring_ GOSH_GUARDED_BY(mutex_);
  std::size_t next_ GOSH_GUARDED_BY(mutex_) = 0;  ///< overwrite cursor

  std::atomic<bool> active_{false};
  std::atomic<std::uint64_t> decisions_{0};
  std::atomic<std::uint64_t> begun_{0};
  std::atomic<std::uint64_t> finished_{0};
  std::atomic<std::uint64_t> kept_{0};
};

/// Dumps `tracer.export_chrome_json()` to `path` — the --trace-out
/// implementation shared by gosh_serve and gosh_embed.
api::Status write_chrome_json(const Tracer& tracer, const std::string& path);

}  // namespace gosh::trace
