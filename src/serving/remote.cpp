#include "gosh/serving/remote.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <utility>

#include "gosh/common/rng.hpp"
#include "gosh/common/timer.hpp"
#include "gosh/net/json.hpp"
#include "gosh/net/query_handler.hpp"
#include "gosh/trace/trace.hpp"

namespace gosh::serving {

namespace {

api::Result<Endpoint> parse_endpoint(std::string_view text) {
  const std::size_t colon = text.rfind(':');
  if (colon == std::string_view::npos || colon == 0 ||
      colon + 1 == text.size()) {
    return api::Status::invalid_argument("backend '" + std::string(text) +
                                         "': expected host:port");
  }
  const std::string port_text(text.substr(colon + 1));
  char* end = nullptr;
  const unsigned long port = std::strtoul(port_text.c_str(), &end, 10);
  if (end == nullptr || *end != '\0' || port < 1 || port > 65535) {
    return api::Status::invalid_argument("backend '" + std::string(text) +
                                         "': port must be in [1, 65535]");
  }
  Endpoint endpoint;
  endpoint.host = std::string(text.substr(0, colon));
  endpoint.port = static_cast<unsigned short>(port);
  return endpoint;
}

std::string_view trim(std::string_view text) {
  while (!text.empty() && (text.front() == ' ' || text.front() == '\t'))
    text.remove_prefix(1);
  while (!text.empty() &&
         (text.back() == ' ' || text.back() == '\t' || text.back() == '\r'))
    text.remove_suffix(1);
  return text;
}

api::Result<std::vector<Endpoint>> parse_group(std::string_view group) {
  std::vector<Endpoint> replicas;
  std::size_t start = 0;
  while (start <= group.size()) {
    std::size_t bar = group.find('|', start);
    if (bar == std::string_view::npos) bar = group.size();
    const std::string_view entry = trim(group.substr(start, bar - start));
    if (!entry.empty()) {
      auto endpoint = parse_endpoint(entry);
      if (!endpoint.ok()) return endpoint.status();
      replicas.push_back(std::move(endpoint).value());
    }
    start = bar + 1;
  }
  if (replicas.empty()) {
    return api::Status::invalid_argument("backends: empty shard group");
  }
  return replicas;
}

/// Sanitized metric-name suffix for one endpoint ("127.0.0.1:8080" ->
/// "127_0_0_1_8080") — the registry has names, not labels.
std::string metric_suffix(const Endpoint& endpoint) {
  std::string suffix = endpoint.label();
  for (char& c : suffix) {
    const bool keep = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9');
    if (!keep) c = '_';
  }
  return suffix;
}

}  // namespace

api::Result<std::vector<std::vector<Endpoint>>> parse_backends(
    const std::string& spec) {
  if (trim(spec).empty()) {
    return api::Status::invalid_argument(
        "backends: expected host:port[,host:port...] or a file path");
  }
  // A spec naming a readable file is the file form: one group per line.
  std::vector<std::string> groups;
  if (std::ifstream file(spec); file.good()) {
    std::string line;
    while (std::getline(file, line)) {
      std::string_view text = trim(line);
      if (const std::size_t hash = text.find('#');
          hash != std::string_view::npos) {
        text = trim(text.substr(0, hash));
      }
      if (!text.empty()) groups.emplace_back(text);
    }
    if (groups.empty()) {
      return api::Status::invalid_argument("backends file '" + spec +
                                           "': no entries");
    }
  } else {
    std::size_t start = 0;
    while (start <= spec.size()) {
      std::size_t comma = spec.find(',', start);
      if (comma == std::string::npos) comma = spec.size();
      const std::string_view entry = trim(
          std::string_view(spec).substr(start, comma - start));
      if (!entry.empty()) groups.emplace_back(entry);
      start = comma + 1;
    }
    if (groups.empty()) {
      return api::Status::invalid_argument("backends: no entries in '" +
                                           spec + "'");
    }
  }
  std::vector<std::vector<Endpoint>> parsed;
  parsed.reserve(groups.size());
  for (const std::string& group : groups) {
    auto replicas = parse_group(group);
    if (!replicas.ok()) return replicas.status();
    parsed.push_back(std::move(replicas).value());
  }
  return parsed;
}

// ---- CircuitBreaker -------------------------------------------------------

bool CircuitBreaker::allow(std::uint64_t now_ns) {
  switch (state_) {
    case State::kClosed:
      return true;
    case State::kOpen:
      if (now_ns < open_until_ns_) return false;
      // Cooldown over: admit exactly one probe.
      state_ = State::kHalfOpen;
      probe_in_flight_ = true;
      return true;
    case State::kHalfOpen:
      if (probe_in_flight_) return false;
      probe_in_flight_ = true;
      return true;
  }
  return true;  // unreachable
}

bool CircuitBreaker::on_result(bool success, std::uint64_t now_ns) {
  if (state_ == State::kHalfOpen) probe_in_flight_ = false;
  if (success) {
    state_ = State::kClosed;
    failures_ = 0;
    return false;
  }
  ++failures_;
  const bool was_open = state_ == State::kOpen;
  if (state_ == State::kHalfOpen || failures_ >= threshold_) {
    state_ = State::kOpen;
    open_until_ns_ = now_ns + cooldown_ns_;
    return !was_open;
  }
  return false;
}

// ---- ReplicaSet -----------------------------------------------------------

ReplicaOptions ReplicaOptions::from(const ServeOptions& options) {
  ReplicaOptions replica;
  replica.deadline_ms = options.remote_deadline_ms;
  replica.retries = options.remote_retries;
  replica.hedge_after_ms = options.hedge_after_ms;
  replica.breaker_failures = options.breaker_failures;
  replica.breaker_cooldown_ms = options.breaker_cooldown_ms;
  replica.probe_interval_ms = options.probe_interval_ms;
  replica.seed = options.seed;
  return replica;
}

/// Shared scoreboard of one call(): attempt workers publish into it, the
/// coordinating caller waits on the condvar. shared_ptr-held so a losing
/// worker may outlive the call (never the set — outstanding_ reaps it).
struct ReplicaSet::CallState {
  std::string target;
  std::string body;
  std::uint64_t deadline_ns = 0;
  std::shared_ptr<trace::Trace> trace;  ///< captured at call() entry

  common::Mutex mutex;
  common::CondVar cv;
  bool have_winner GOSH_GUARDED_BY(mutex) = false;
  net::HttpResponse winner GOSH_GUARDED_BY(mutex);
  std::string winner_backend GOSH_GUARDED_BY(mutex);
  unsigned launched GOSH_GUARDED_BY(mutex) = 0;
  unsigned failures GOSH_GUARDED_BY(mutex) = 0;
  std::string last_error GOSH_GUARDED_BY(mutex);
};

ReplicaSet::ReplicaSet(std::vector<Endpoint> endpoints,
                       const ReplicaOptions& options, MetricsRegistry* metrics)
    : options_(options) {
  backends_.reserve(endpoints.size());
  for (Endpoint& endpoint : endpoints) {
    auto backend = std::make_unique<Backend>(std::move(endpoint), options_);
    if (metrics != nullptr) {
      backend->exported = &metrics->histogram(
          "gosh_remote_backend_seconds_" + metric_suffix(backend->endpoint),
          "Remote call latency against " + backend->endpoint.label());
    }
    backends_.push_back(std::move(backend));
  }
  if (metrics != nullptr) {
    retries_total_ = &metrics->counter("gosh_remote_retries_total",
                                       "Remote attempts beyond the first");
    hedges_total_ = &metrics->counter("gosh_remote_hedges_total",
                                      "Hedged second requests launched");
    breaker_open_total_ =
        &metrics->counter("gosh_remote_breaker_open_total",
                          "Circuit breaker closed/half-open -> open trips");
  }
  if (options_.probe_interval_ms > 0 && !backends_.empty()) {
    probe_thread_ = std::make_unique<std::thread>([this] { probe_loop(); });
  }
}

ReplicaSet::~ReplicaSet() {
  {
    common::MutexLock lock(lifecycle_mutex_);
    stopping_ = true;
  }
  lifecycle_cv_.notify_all();
  if (probe_thread_ != nullptr && probe_thread_->joinable()) {
    probe_thread_->join();
  }
  // Losing attempt workers are each bounded by their request deadline, so
  // this wait terminates without joining them individually.
  common::UniqueLock lock(lifecycle_mutex_);
  while (outstanding_ > 0) lifecycle_cv_.wait(lock);
}

ReplicaSet::Backend* ReplicaSet::pick(const Backend* except) {
  if (backends_.empty()) return nullptr;
  const std::uint64_t now = trace::now_ns();
  const std::size_t n = backends_.size();
  // Pass 0 wants healthy backends, pass 1 settles for any whose breaker
  // admits traffic. `except` is only honored while an alternative exists.
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t at =
          (rr_.fetch_add(1, std::memory_order_relaxed)) % n;
      Backend* backend = backends_[at].get();
      if (backend == except && n > 1) continue;
      common::MutexLock lock(backend->mutex);
      if (pass == 0 && !backend->healthy) continue;
      if (backend->breaker.allow(now)) return backend;
    }
  }
  return nullptr;
}

void ReplicaSet::launch_attempt(Backend* backend,
                                std::shared_ptr<CallState> state,
                                bool hedged) {
  {
    common::MutexLock lock(lifecycle_mutex_);
    ++outstanding_;
  }
  std::thread([this, backend, state = std::move(state), hedged]() mutable {
    attempt(backend, state, hedged);
    state.reset();
    common::MutexLock lock(lifecycle_mutex_);
    --outstanding_;
    lifecycle_cv_.notify_all();
  }).detach();
}

void ReplicaSet::attempt(Backend* backend, std::shared_ptr<CallState> state,
                         bool hedged) {
  const std::uint64_t begin = trace::now_ns();
  const std::string label = backend->endpoint.label();
  const int remaining_ms =
      state->deadline_ns > begin
          ? static_cast<int>((state->deadline_ns - begin) / 1'000'000ULL)
          : 0;
  if (remaining_ms < 1) {
    // Out of budget before the wire was touched — the deadline's fault,
    // not the backend's, so the breaker is not fed.
    common::UniqueLock lock(state->mutex);
    ++state->failures;
    state->last_error = label + ": deadline exhausted before attempt";
    state->cv.notify_all();
    return;
  }

  std::unique_ptr<net::HttpClient> client;
  {
    common::MutexLock lock(backend->mutex);
    if (!backend->pool.empty()) {
      client = std::move(backend->pool.back());
      backend->pool.pop_back();
    }
  }
  if (client == nullptr) {
    client = std::make_unique<net::HttpClient>(backend->endpoint.host,
                                               backend->endpoint.port,
                                               remaining_ms);
  }
  // The remaining budget rides both ways: as the client's whole-exchange
  // bound AND as the X-Deadline-Ms header the server enforces before
  // dispatch — neither end works on a request the caller gave up on.
  auto result = client->request(
      "POST", state->target, state->body,
      {{"Content-Type", "application/json"},
       {"X-Deadline-Ms", std::to_string(remaining_ms)}},
      remaining_ms);
  const std::uint64_t end = trace::now_ns();
  const double seconds =
      static_cast<double>(end - begin) / 1'000'000'000.0;
  const bool ok = result.ok() && result.value().status == 200;
  std::string error;
  if (!ok) {
    error = result.ok()
                ? "HTTP " + std::to_string(result.value().status)
                : result.status().message();
  }

  bool opened = false;
  {
    common::MutexLock lock(backend->mutex);
    opened = backend->breaker.on_result(ok, end);
    if (ok && client->connected() && backend->pool.size() < 4) {
      backend->pool.push_back(std::move(client));
    }
  }
  if (opened && breaker_open_total_ != nullptr) {
    breaker_open_total_->increment();
  }
  if (ok) {
    // Failures (mostly deadline-bounded) would poison the p99 the hedge
    // delay is derived from; only successful exchanges are samples.
    backend->latency.observe(seconds);
    if (backend->exported != nullptr) backend->exported->observe(seconds);
  }
  if (state->trace != nullptr) {
    state->trace->record(hedged ? "hedge" : "remote-call", begin, end);
  }

  common::UniqueLock lock(state->mutex);
  if (ok && !state->have_winner) {
    state->have_winner = true;
    state->winner = std::move(result.value());
    state->winner_backend = label;
  } else if (!ok) {
    ++state->failures;
    state->last_error = label + ": " + error;
  }
  state->cv.notify_all();
}

api::Result<net::HttpResponse> ReplicaSet::call(const std::string& target,
                                                const std::string& body,
                                                CallStats* stats) {
  const std::uint64_t start = trace::now_ns();
  const std::uint64_t deadline_ns =
      start + std::uint64_t(options_.deadline_ms) * 1'000'000ULL;
  CallStats local;
  CallStats& out = stats != nullptr ? *stats : local;

  auto state = std::make_shared<CallState>();
  state->target = target;
  state->body = body;
  state->deadline_ns = deadline_ns;
  state->trace = trace::current_shared();

  Backend* primary = pick(nullptr);
  if (primary == nullptr) {
    out.error = "no backend admits traffic (all circuit breakers open)";
    out.seconds = static_cast<double>(trace::now_ns() - start) / 1e9;
    return api::Status::unavailable(out.error);
  }
  out.backend = primary->endpoint.label();
  Backend* last_tried = primary;

  // The hedge fires once the primary has been quiet this long; the
  // configured delay is clipped down to the backend's observed p99 once
  // it has enough samples to mean something.
  std::uint64_t hedge_at_ns = 0;
  if (options_.hedge_after_ms > 0 && backends_.size() > 1) {
    double delay_ms = static_cast<double>(options_.hedge_after_ms);
    if (primary->latency.count() >= 32) {
      const double p99_ms = primary->latency.quantile(0.99) * 1000.0;
      if (p99_ms >= 1.0 && p99_ms < delay_ms) delay_ms = p99_ms;
    }
    hedge_at_ns = start + static_cast<std::uint64_t>(delay_ms * 1e6);
  }
  bool hedge_launched = false;
  unsigned retries_used = 0;
  std::uint64_t next_retry_ns = 0;

  {
    common::UniqueLock lock(state->mutex);
    ++state->launched;
    launch_attempt(primary, state, /*hedged=*/false);

    for (;;) {
      if (state->have_winner) break;
      const std::uint64_t now = trace::now_ns();
      if (now >= deadline_ns) break;

      // Every launched attempt failed: retry (with backoff) or give up.
      if (state->failures >= state->launched) {
        if (retries_used >= options_.retries) break;
        if (next_retry_ns == 0) {
          // Full-jitter exponential backoff: uniform in [0, 5ms << n).
          const double span_ms = static_cast<double>(5u << retries_used);
          // One independent draw per counter value, as in the chaos
          // injector, so backoff jitter is deterministic under a seed.
          const std::uint64_t draw = splitmix64_hash(
              options_.seed ^
              jitter_.fetch_add(1, std::memory_order_relaxed));
          next_retry_ns = now + static_cast<std::uint64_t>(
                                    uniform01(draw) * span_ms * 1e6);
        }
        if (now >= next_retry_ns) {
          Backend* backend = pick(last_tried);
          if (backend == nullptr) break;
          last_tried = backend;
          out.backend = backend->endpoint.label();
          ++retries_used;
          ++out.retries;
          if (retries_total_ != nullptr) retries_total_->increment();
          next_retry_ns = 0;
          ++state->launched;
          launch_attempt(backend, state, /*hedged=*/false);
          continue;
        }
      }

      // Primary quiet past the hedge delay: launch one attempt on a
      // different replica alongside it.
      if (hedge_at_ns != 0 && !hedge_launched && now >= hedge_at_ns &&
          state->failures < state->launched) {
        hedge_launched = true;
        if (Backend* backend = pick(last_tried); backend != nullptr) {
          out.hedged = true;
          if (hedges_total_ != nullptr) hedges_total_->increment();
          ++state->launched;
          launch_attempt(backend, state, /*hedged=*/true);
          continue;
        }
      }

      std::uint64_t wake_ns = deadline_ns;
      if (next_retry_ns != 0) wake_ns = std::min(wake_ns, next_retry_ns);
      if (hedge_at_ns != 0 && !hedge_launched)
        wake_ns = std::min(wake_ns, hedge_at_ns);
      state->cv.wait_for(lock,
                         std::chrono::nanoseconds(wake_ns > now
                                                      ? wake_ns - now
                                                      : 1));
    }

    out.seconds = static_cast<double>(trace::now_ns() - start) / 1e9;
    if (state->have_winner) {
      out.backend = state->winner_backend;
      out.error.clear();
      return std::move(state->winner);
    }
    out.error = state->last_error.empty()
                    ? "deadline of " + std::to_string(options_.deadline_ms) +
                          "ms exceeded with " +
                          std::to_string(state->launched) +
                          " attempt(s) in flight"
                    : state->last_error;
  }
  return api::Status::unavailable(out.error);
}

api::Result<net::HttpResponse> ReplicaSet::get_any(const std::string& target) {
  Backend* backend = pick(nullptr);
  if (backend == nullptr) {
    return api::Status::unavailable(
        "no backend admits traffic (all circuit breakers open)");
  }
  net::HttpClient client(backend->endpoint.host, backend->endpoint.port,
                         static_cast<int>(options_.deadline_ms));
  auto result = client.request("GET", target, {}, {},
                               static_cast<int>(options_.deadline_ms));
  const bool ok = result.ok() && result.value().status == 200;
  bool opened = false;
  {
    common::MutexLock lock(backend->mutex);
    opened = backend->breaker.on_result(ok, trace::now_ns());
  }
  if (opened && breaker_open_total_ != nullptr) {
    breaker_open_total_->increment();
  }
  if (!result.ok()) return result.status();
  return result;
}

std::size_t ReplicaSet::healthy_count() const {
  std::size_t healthy = 0;
  for (const auto& backend : backends_) {
    common::MutexLock lock(backend->mutex);
    if (backend->healthy &&
        backend->breaker.state() != CircuitBreaker::State::kOpen) {
      ++healthy;
    }
  }
  return healthy;
}

CircuitBreaker::State ReplicaSet::breaker_state(std::size_t i) const {
  const auto& backend = backends_.at(i);
  common::MutexLock lock(backend->mutex);
  return backend->breaker.state();
}

bool ReplicaSet::probe_backend(Backend& backend) {
  {
    common::MutexLock lock(backend.mutex);
    if (!backend.breaker.allow(trace::now_ns())) {
      // Open within its cooldown (or a probe is already in flight):
      // nothing to learn this round.
      return false;
    }
  }
  const unsigned budget_ms =
      options_.probe_interval_ms > 0
          ? std::min(options_.probe_interval_ms, options_.deadline_ms)
          : options_.deadline_ms;
  net::HttpClient client(backend.endpoint.host, backend.endpoint.port,
                         static_cast<int>(budget_ms));
  auto result = client.request("GET", "/healthz", {}, {},
                               static_cast<int>(budget_ms));
  bool ok = result.ok() && result.value().status == 200;
  if (ok) {
    // A live-but-loading backend is not ready for traffic; servers
    // without the readiness split (no "ready" member) count as ready.
    if (auto body = net::json::Value::parse(result.value().body);
        body.ok()) {
      if (const net::json::Value* ready = body.value().find("ready");
          ready != nullptr && ready->is_bool()) {
        ok = ready->as_bool();
      }
    }
  }
  bool opened = false;
  {
    common::MutexLock lock(backend.mutex);
    opened = backend.breaker.on_result(ok, trace::now_ns());
    backend.healthy = ok;
  }
  if (opened && breaker_open_total_ != nullptr) {
    breaker_open_total_->increment();
  }
  return ok;
}

void ReplicaSet::probe_now() {
  for (const auto& backend : backends_) probe_backend(*backend);
}

void ReplicaSet::probe_loop() {
  common::UniqueLock lock(lifecycle_mutex_);
  while (!stopping_) {
    lock.unlock();
    for (const auto& backend : backends_) probe_backend(*backend);
    lock.lock();
    if (stopping_) break;
    lifecycle_cv_.wait_for(
        lock, std::chrono::milliseconds(options_.probe_interval_ms));
  }
}

// ---- RemoteService --------------------------------------------------------

api::Result<std::unique_ptr<RemoteService>> RemoteService::open(
    std::vector<Endpoint> endpoints, const ServeOptions& options,
    MetricsRegistry* metrics) {
  if (endpoints.empty()) {
    return api::Status::invalid_argument(
        "remote: needs at least one backend (--backends host:port,...)");
  }
  std::unique_ptr<RemoteService> service(new RemoteService());
  service->replicas_ = std::make_unique<ReplicaSet>(
      std::move(endpoints), ReplicaOptions::from(options), metrics);
  service->metric_ = options.metric;
  service->default_k_ = options.k;
  if (metrics != nullptr) {
    service->requests_ = &metrics->counter("gosh_serving_requests_total",
                                           "QueryService requests served");
    service->seconds_ =
        &metrics->histogram("gosh_serving_request_seconds",
                            "Wall time per QueryService request");
  }

  // Geometry: ask a backend's /healthz (a few rounds across replicas),
  // falling back to the local store file when one is named — the wire has
  // no other way to learn rows/dim before the first query.
  bool learned = false;
  for (int round = 0; round < 3 && !learned; ++round) {
    auto health = service->replicas_->get_any("/healthz");
    if (!health.ok() || health.value().status != 200) continue;
    auto body = net::json::Value::parse(health.value().body);
    if (!body.ok()) continue;
    const net::json::Value* rows = body.value().find("rows");
    const net::json::Value* dim = body.value().find("dim");
    if (rows == nullptr || !rows->is_number() || dim == nullptr ||
        !dim->is_number()) {
      break;  // a server without the geometry fields will never grow them
    }
    service->rows_ = static_cast<vid_t>(rows->as_number());
    service->dim_ = static_cast<unsigned>(dim->as_number());
    learned = service->rows_ > 0 && service->dim_ > 0;
  }
  if (!options.store_path.empty()) {
    auto opened = store::EmbeddingStore::open(options.store_path,
                                              options.open_options());
    if (opened.ok()) {
      service->local_store_ = std::make_unique<store::EmbeddingStore>(
          std::move(opened).value());
      if (!learned) {
        service->rows_ = service->local_store_->rows();
        service->dim_ = service->local_store_->dim();
        learned = true;
      }
    }
  }
  if (!learned) {
    return api::Status::unavailable(
        "remote: could not learn store geometry — no backend answered "
        "/healthz with rows/dim and no local --store is readable");
  }
  return service;
}

api::Result<std::vector<float>> RemoteService::row_vector(vid_t v) const {
  if (local_store_ == nullptr) {
    return api::Status::unavailable(
        "remote: row_vector needs a local --store (raw rows are not on "
        "the wire)");
  }
  if (v >= local_store_->rows()) {
    return api::Status::invalid_argument(
        "vertex " + std::to_string(v) + " out of range (store has " +
        std::to_string(local_store_->rows()) + " rows)");
  }
  const auto row = local_store_->row(v);
  return std::vector<float>(row.begin(), row.end());
}

api::Result<QueryResponse> RemoteService::serve(const QueryRequest& request) {
  WallTimer timer;
  const unsigned k = request.k > 0 ? request.k : default_k_;
  if (api::Status status = check_request(request, rows_, dim_, k);
      !status.is_ok()) {
    return status;
  }
  auto body = net::QueryHandler::render_request(request);
  if (!body.ok()) return body.status();

  CallStats stats;
  auto wire = replicas_->call("/v1/query", body.value().dump(), &stats);
  ShardStatus status;
  status.shard = 0;
  status.backend = stats.backend;
  status.ok = wire.ok();
  status.retries = stats.retries;
  status.hedged = stats.hedged;
  status.seconds = stats.seconds;
  status.error = stats.error;
  if (!wire.ok()) return wire.status();

  auto parsed = net::json::Value::parse(wire.value().body);
  if (!parsed.ok()) {
    return api::Status::unavailable("remote: backend " + stats.backend +
                                    " answered unparsable JSON: " +
                                    parsed.status().message());
  }
  auto response = net::QueryHandler::parse_response(parsed.value());
  if (!response.ok()) {
    return api::Status::unavailable("remote: backend " + stats.backend +
                                    ": " + response.status().message());
  }
  QueryResponse out = std::move(response).value();
  out.shards.clear();
  out.shards.push_back(std::move(status));
  out.seconds = timer.seconds();
  if (requests_ != nullptr) {
    requests_->increment();
    seconds_->observe(out.seconds);
  }
  return out;
}

}  // namespace gosh::serving
