#include "gosh/trace/trace.hpp"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <utility>

#include "gosh/common/logging.hpp"
#include "gosh/common/rng.hpp"

namespace gosh::trace {

namespace {

std::atomic<bool> g_enabled{false};

thread_local std::shared_ptr<Trace> t_current;
thread_local std::uint32_t t_depth = 0;

std::uint32_t next_thread_ordinal() noexcept {
  static std::atomic<std::uint32_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

/// JSON string escaping for the hand-rolled export (src/trace must not
/// depend on src/net): quotes, backslash and control bytes become escapes;
/// everything else passes through byte-for-byte.
void append_escaped(std::string& out, std::string_view text) {
  for (const char c : text) {
    const auto byte = static_cast<unsigned char>(c);
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (byte < 0x20) {
      char buffer[8];
      std::snprintf(buffer, sizeof(buffer), "\\u%04x", byte);
      out += buffer;
    } else {
      out += c;
    }
  }
}

void append_micros(std::string& out, std::uint64_t ns) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%" PRIu64 ".%03u", ns / 1000,
                static_cast<unsigned>(ns % 1000));
  out += buffer;
}

}  // namespace

std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

bool enabled() noexcept { return g_enabled.load(std::memory_order_relaxed); }

void set_enabled(bool on) noexcept {
  g_enabled.store(on, std::memory_order_relaxed);
}

std::string mint_request_id() {
  static std::atomic<std::uint64_t> counter{0};
  const std::uint64_t bits = splitmix64_hash(
      now_ns() ^ (counter.fetch_add(1, std::memory_order_relaxed) << 32));
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "gosh-%016" PRIx64, bits);
  return buffer;
}

std::string sanitize_request_id(std::string_view raw) {
  if (raw.empty()) return mint_request_id();
  std::string out;
  out.reserve(std::min<std::size_t>(raw.size(), 128));
  for (const char c : raw) {
    if (out.size() >= 128) break;
    const auto byte = static_cast<unsigned char>(c);
    out += (byte >= 0x21 && byte < 0x7f && c != '"' && c != '\\') ? c : '_';
  }
  return out;
}

std::uint32_t thread_ordinal() noexcept {
  thread_local const std::uint32_t ordinal = next_thread_ordinal();
  return ordinal;
}

// ---- Trace ----------------------------------------------------------------

Trace::Trace(std::string request_id, bool sampled)
    : request_id_(std::move(request_id)),
      sampled_(sampled),
      begin_ns_(now_ns()) {}

void Trace::set_label(std::string label) {
  common::MutexLock lock(mutex_);
  label_ = std::move(label);
}

std::string Trace::label() const {
  common::MutexLock lock(mutex_);
  return label_;
}

void Trace::record(std::string_view name, std::uint64_t begin_ns,
                   std::uint64_t end_ns, std::uint32_t depth,
                   std::uint32_t thread) {
  common::MutexLock lock(mutex_);
  if (spans_.size() >= kMaxSpans) {
    ++dropped_;
    return;
  }
  SpanRecord span;
  span.name = std::string(name);
  span.begin_ns = begin_ns;
  span.end_ns = end_ns;
  span.depth = depth;
  span.thread = thread;
  spans_.push_back(std::move(span));
}

void Trace::record(std::string_view name, std::uint64_t begin_ns,
                   std::uint64_t end_ns) {
  record(name, begin_ns, end_ns, 0, thread_ordinal());
}

std::vector<SpanRecord> Trace::spans() const {
  common::MutexLock lock(mutex_);
  return spans_;
}

std::size_t Trace::dropped() const {
  common::MutexLock lock(mutex_);
  return dropped_;
}

std::uint64_t Trace::end_ns() const {
  common::MutexLock lock(mutex_);
  return end_ns_;
}

void Trace::finish_at(std::uint64_t ns) {
  common::MutexLock lock(mutex_);
  end_ns_ = ns;
}

// ---- Thread-local context -------------------------------------------------

Trace* current() noexcept { return t_current.get(); }

std::shared_ptr<Trace> current_shared() { return t_current; }

std::uint32_t current_depth() noexcept { return t_depth; }

ScopedTrace::ScopedTrace(std::shared_ptr<Trace> trace)
    : previous_(std::move(t_current)) {
  t_current = std::move(trace);
}

ScopedTrace::~ScopedTrace() { t_current = std::move(previous_); }

// ---- Span -----------------------------------------------------------------

Span::Span(std::string_view name) {
  if (!enabled()) return;  // the ~ns disabled path: one relaxed load
  Trace* trace = current();
  if (trace == nullptr) return;
  trace_ = trace;
  name_ = std::string(name);
  depth_ = t_depth++;
  begin_ns_ = now_ns();
}

Span::~Span() {
  if (trace_ == nullptr) return;
  --t_depth;
  trace_->record(name_, begin_ns_, now_ns(), depth_, thread_ordinal());
}

// ---- Tracer ---------------------------------------------------------------

Tracer::Tracer(TraceOptions options) { configure(options); }

Tracer& Tracer::global() {
  // Leaked like MetricsRegistry::global(): handlers registered on static
  // servers may export during process teardown.
  static Tracer* tracer = new Tracer();
  return *tracer;
}

void Tracer::configure(const TraceOptions& options) {
  const bool active = options.sample_rate > 0.0 || options.slow_ms > 0.0;
  {
    common::MutexLock lock(mutex_);
    options_ = options;
    if (options_.capacity == 0) options_.capacity = 1;
    if (ring_.size() > options_.capacity) {
      // Shrink keeping the newest traces; the cursor restarts at the end.
      std::vector<std::shared_ptr<Trace>> kept(
          ring_.end() - static_cast<std::ptrdiff_t>(options_.capacity),
          ring_.end());
      ring_ = std::move(kept);
      next_ = 0;
    }
  }
  active_.store(active, std::memory_order_relaxed);
  // Last configure wins process-wide: the gate is global so TRACE_SPAN
  // stays a single relaxed load on every hot path.
  set_enabled(active);
}

TraceOptions Tracer::options() const {
  common::MutexLock lock(mutex_);
  return options_;
}

bool Tracer::active() const noexcept {
  return active_.load(std::memory_order_relaxed);
}

std::shared_ptr<Trace> Tracer::begin(std::string request_id) {
  if (!active()) return nullptr;
  TraceOptions options;
  {
    common::MutexLock lock(mutex_);
    options = options_;
  }
  const std::uint64_t n = decisions_.fetch_add(1, std::memory_order_relaxed);
  // Deterministic sampler: hash the request ordinal under the seed and
  // compare against the rate in [0, 1). Same seed + same order -> same
  // decisions, which is what the tests pin down.
  const double roll = uniform01(splitmix64_hash(options.seed ^ n));
  const bool sampled = options.sample_rate >= 1.0 || roll < options.sample_rate;
  if (!sampled && options.slow_ms <= 0.0) return nullptr;
  begun_.fetch_add(1, std::memory_order_relaxed);
  return std::make_shared<Trace>(std::move(request_id), sampled);
}

void Tracer::finish(const std::shared_ptr<Trace>& trace) {
  if (trace == nullptr) return;
  const std::uint64_t end = now_ns();
  trace->finish_at(end);
  finished_.fetch_add(1, std::memory_order_relaxed);

  TraceOptions options;
  {
    common::MutexLock lock(mutex_);
    options = options_;
  }
  const double total_ms =
      static_cast<double>(end - trace->begin_ns()) * 1e-6;
  const bool slow = options.slow_ms > 0.0 && total_ms >= options.slow_ms;
  if (slow) {
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.3f", total_ms);
    std::string line = "slow request: request_id=";
    line += trace->request_id();
    const std::string label = trace->label();
    if (!label.empty()) {
      line += " label=\"";
      line += label;
      line += '"';
    }
    line += " total_ms=";
    line += buffer;
    line += " spans=";
    line += std::to_string(trace->spans().size());
    log_warn(line);
  }
  if (!trace->sampled() && !slow) return;

  kept_.fetch_add(1, std::memory_order_relaxed);
  common::MutexLock lock(mutex_);
  if (ring_.size() < options_.capacity) {
    ring_.push_back(trace);
  } else {
    ring_[next_] = trace;
    next_ = (next_ + 1) % options_.capacity;
  }
}

std::vector<std::shared_ptr<Trace>> Tracer::snapshot() const {
  common::MutexLock lock(mutex_);
  std::vector<std::shared_ptr<Trace>> out;
  out.reserve(ring_.size());
  // next_ is the oldest slot once the ring has wrapped.
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(next_ + i) % ring_.size()]);
  }
  return out;
}

std::uint64_t Tracer::begun() const noexcept {
  return begun_.load(std::memory_order_relaxed);
}

std::uint64_t Tracer::finished() const noexcept {
  return finished_.load(std::memory_order_relaxed);
}

std::uint64_t Tracer::kept() const noexcept {
  return kept_.load(std::memory_order_relaxed);
}

void Tracer::clear() {
  common::MutexLock lock(mutex_);
  ring_.clear();
  next_ = 0;
}

std::string Tracer::export_chrome_json() const {
  const std::vector<std::shared_ptr<Trace>> traces = snapshot();
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first_event = true;
  const auto event_prefix = [&out, &first_event] {
    if (!first_event) out += ',';
    first_event = false;
  };

  for (std::size_t t = 0; t < traces.size(); ++t) {
    const Trace& trace = *traces[t];
    const std::size_t pid = t + 1;  // one viewer "process" per trace
    const std::string label = trace.label();
    const std::uint64_t end =
        trace.end_ns() > 0 ? trace.end_ns() : trace.begin_ns();

    // Viewer metadata: name the process row after the request.
    event_prefix();
    out += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" +
           std::to_string(pid) + ",\"tid\":0,\"ts\":0,\"args\":{\"name\":\"";
    append_escaped(out, label.empty() ? trace.request_id()
                                      : label + " [" + trace.request_id() +
                                            "]");
    out += "\"}}";

    // The root event: the request's full extent.
    event_prefix();
    out += "{\"name\":\"";
    append_escaped(out, label.empty() ? "request" : label);
    out += "\",\"cat\":\"gosh\",\"ph\":\"X\",\"ts\":";
    append_micros(out, trace.begin_ns());
    out += ",\"dur\":";
    append_micros(out, end - trace.begin_ns());
    out += ",\"pid\":" + std::to_string(pid) + ",\"tid\":0";
    out += ",\"args\":{\"request_id\":\"";
    append_escaped(out, trace.request_id());
    out += "\",\"sampled\":";
    out += trace.sampled() ? "true" : "false";
    out += ",\"dropped_spans\":" + std::to_string(trace.dropped());
    out += "}}";

    for (const SpanRecord& span : trace.spans()) {
      event_prefix();
      out += "{\"name\":\"";
      append_escaped(out, span.name);
      out += "\",\"cat\":\"gosh\",\"ph\":\"X\",\"ts\":";
      append_micros(out, span.begin_ns);
      out += ",\"dur\":";
      append_micros(out, span.end_ns >= span.begin_ns
                             ? span.end_ns - span.begin_ns
                             : 0);
      out += ",\"pid\":" + std::to_string(pid);
      out += ",\"tid\":" + std::to_string(span.thread + 1);
      out += ",\"args\":{\"request_id\":\"";
      append_escaped(out, trace.request_id());
      out += "\",\"depth\":" + std::to_string(span.depth);
      out += "}}";
    }
  }
  out += "]}";
  return out;
}

api::Status write_chrome_json(const Tracer& tracer, const std::string& path) {
  const std::string json = tracer.export_chrome_json();
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    return api::Status::io_error("cannot write trace file " + path);
  }
  const std::size_t written = std::fwrite(json.data(), 1, json.size(), out);
  if (std::fclose(out) != 0 || written != json.size()) {
    return api::Status::io_error("short write on trace file " + path);
  }
  return api::Status::ok();
}

}  // namespace gosh::trace
