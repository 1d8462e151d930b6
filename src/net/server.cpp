#include "gosh/net/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "gosh/common/logging.hpp"
#include "gosh/common/simd.hpp"
#include "gosh/common/timer.hpp"
#include "gosh/net/json.hpp"

namespace gosh::net {

namespace {

/// Route suffix for per-endpoint metric names: "/v1/query" -> "v1_query".
/// Prometheus names are [a-zA-Z0-9_:]; everything else collapses to '_'.
std::string metric_suffix(std::string_view method, std::string_view path) {
  std::string out;
  out.reserve(method.size() + path.size() + 1);
  for (const char c : method) {
    out += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  for (const char c : path) {
    if ((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
        (c >= '0' && c <= '9')) {
      out += c;
    } else if (!out.empty() && out.back() != '_') {
      out += '_';
    }
  }
  while (!out.empty() && out.back() == '_') out.pop_back();
  return out;
}

void close_fd(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

}  // namespace

HttpServer::HttpServer(const NetOptions& options,
                       serving::MetricsRegistry* metrics,
                       trace::Tracer* tracer)
    : options_(options), metrics_(metrics), tracer_(tracer) {
  if (options_.rate_qps > 0.0) {
    global_limiter_ =
        std::make_unique<RateLimiter>(options_.rate_qps, options_.burst);
  }
  FaultOptions chaos;
  chaos.drop_rate = options_.chaos_drop_rate;
  chaos.error_rate = options_.chaos_500_rate;
  chaos.stall_rate = options_.chaos_stall;
  chaos.delay_ms = options_.chaos_delay_ms;
  chaos.seed = options_.chaos_seed;
  fault_injector_.configure(chaos);
  if (tracer_ == nullptr &&
      (options_.trace_sample_rate > 0.0 || options_.trace_slow_ms > 0.0)) {
    tracer_ = &trace::Tracer::global();
    trace::TraceOptions knobs = tracer_->options();
    knobs.sample_rate = options_.trace_sample_rate;
    knobs.slow_ms = options_.trace_slow_ms;
    tracer_->configure(knobs);
  }
}

HttpServer::~HttpServer() { shutdown(); }

void HttpServer::handle(std::string method, std::string path, Handler handler,
                        bool rate_limited) {
  Route route;
  route.method = std::move(method);
  route.path = std::move(path);
  route.handler = std::move(handler);
  route.rate_limited = rate_limited;
  if (metrics_ != nullptr) {
    const std::string suffix = metric_suffix(route.method, route.path);
    route.requests =
        &metrics_->counter("gosh_http_requests_total_" + suffix,
                           "Requests dispatched to " + route.method + " " +
                               route.path);
    route.seconds =
        &metrics_->histogram("gosh_http_request_seconds_" + suffix,
                             "Handler latency of " + route.method + " " +
                                 route.path);
  }
  routes_.push_back(std::move(route));
}

api::Status HttpServer::start() {
  if (running_) {
    return api::Status::invalid_argument("http: server already started");
  }

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    return api::Status::internal(std::string("http: socket: ") +
                                 std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(static_cast<std::uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.host.c_str(), &address.sin_addr) != 1) {
    close_fd(listen_fd_);
    return api::Status::invalid_argument("http: bad bind address '" +
                                         options_.host + "'");
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&address),
             sizeof(address)) != 0) {
    const api::Status status = api::Status::io_error(
        "http: bind " + options_.host + ":" + std::to_string(options_.port) +
        ": " + std::strerror(errno));
    close_fd(listen_fd_);
    return status;
  }
  if (::listen(listen_fd_, SOMAXCONN) != 0) {
    const api::Status status = api::Status::io_error(
        std::string("http: listen: ") + std::strerror(errno));
    close_fd(listen_fd_);
    return status;
  }
  socklen_t length = sizeof(address);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&address), &length);
  port_ = ntohs(address.sin_port);

  if (::pipe2(wake_pipe_, O_CLOEXEC) != 0) {
    close_fd(listen_fd_);
    return api::Status::internal(std::string("http: pipe2: ") +
                                 std::strerror(errno));
  }

  if (metrics_ != nullptr) {
    connections_ = &metrics_->counter("gosh_http_connections_total",
                                      "Connections accepted");
    responses_2xx_ = &metrics_->counter("gosh_http_responses_total_2xx",
                                        "Successful responses");
    responses_4xx_ = &metrics_->counter("gosh_http_responses_total_4xx",
                                        "Client-error responses");
    responses_5xx_ = &metrics_->counter("gosh_http_responses_total_5xx",
                                        "Server-error responses");
    rate_limited_total_ =
        &metrics_->counter("gosh_http_rate_limited_total",
                           "Requests shed by admission control (429)");
    parse_errors_ = &metrics_->counter("gosh_http_parse_errors_total",
                                       "Requests rejected at the wire");
    chaos_injected_ = &metrics_->counter(
        "gosh_http_chaos_injected_total",
        "Requests faulted by the chaos injector (drop/500/stall)");
    deadline_expired_ = &metrics_->counter(
        "gosh_http_deadline_expired_total",
        "Requests answered 504: X-Deadline-Ms was already spent");
    inflight_ = &metrics_->gauge("gosh_http_inflight_connections",
                                 "Connections currently owned by workers");
    if (global_limiter_ != nullptr) {
      rate_tokens_ = &metrics_->gauge(
          "gosh_http_rate_tokens", "Global admission token-bucket balance");
      rate_tokens_->set(global_limiter_->tokens());
    }
  }

  stopping_ = false;
  running_ = true;
  start_ns_ = trace::now_ns();
  acceptor_ = std::thread([this] { accept_loop(); });
  workers_.reserve(options_.threads);
  for (unsigned w = 0; w < options_.threads; ++w) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  return api::Status::ok();
}

bool HttpServer::stopping() const noexcept {
  common::MutexLock lock(mutex_);
  return stopping_;
}

double HttpServer::uptime_seconds() const noexcept {
  if (start_ns_ == 0) return 0.0;
  return static_cast<double>(trace::now_ns() - start_ns_) * 1e-9;
}

void HttpServer::shutdown() {
  if (!running_) return;
  {
    common::MutexLock lock(mutex_);
    if (stopping_) return;
    stopping_ = true;
  }
  // One byte is enough: nobody reads the pipe, poll() stays level-
  // triggered readable for every watcher at once.
  const char byte = 'x';
  [[maybe_unused]] const ssize_t written = ::write(wake_pipe_[1], &byte, 1);
  cv_.notify_all();

  if (acceptor_.joinable()) acceptor_.join();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();

  {
    // Every producer/consumer thread is joined, but the analysis (and any
    // future caller added off the control thread) wants the lock held.
    common::MutexLock lock(mutex_);
    for (const int fd : pending_) ::close(fd);
    pending_.clear();
  }
  close_fd(listen_fd_);
  close_fd(wake_pipe_[0]);
  close_fd(wake_pipe_[1]);
  running_ = false;
}

void HttpServer::accept_loop() {
  while (true) {
    pollfd fds[2] = {{listen_fd_, POLLIN, 0}, {wake_pipe_[0], POLLIN, 0}};
    const int ready = ::poll(fds, 2, -1);
    if (ready < 0) {
      if (errno == EINTR) continue;
      return;
    }
    if (fds[1].revents != 0) return;  // shutdown
    if ((fds[0].revents & POLLIN) == 0) continue;

    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) continue;
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    if (connections_ != nullptr) connections_->increment();

    enum class Gate { kQueued, kStopping, kOverloaded } gate;
    {
      common::MutexLock lock(mutex_);
      if (stopping_) {
        gate = Gate::kStopping;
      } else if (pending_.size() >=
                 std::max<std::size_t>(64, std::size_t{8} * options_.threads)) {
        // Admission at the accept gate too: with every worker pinned and
        // the backlog full, shedding with 503 beats queueing into timeout.
        gate = Gate::kOverloaded;
      } else {
        pending_.push_back(fd);
        gate = Gate::kQueued;
      }
    }
    if (gate == Gate::kStopping) {
      ::close(fd);
      return;
    }
    if (gate == Gate::kOverloaded) {
      const std::string bytes = serialize_response(
          HttpResponse::error(503, "overloaded",
                              "connection backlog full, retry later"),
          /*keep_alive=*/false);
      write_all(fd, bytes);
      ::close(fd);
      continue;
    }
    cv_.notify_one();
  }
}

void HttpServer::worker_loop() {
  while (true) {
    int fd = -1;
    {
      common::UniqueLock lock(mutex_);
      while (!stopping_ && pending_.empty()) cv_.wait(lock);
      if (pending_.empty()) return;  // stopping_, queue drained
      fd = pending_.front();
      pending_.pop_front();
    }
    if (inflight_ != nullptr) inflight_->add(1.0);
    handle_connection(fd);
    if (inflight_ != nullptr) inflight_->add(-1.0);
  }
}

void HttpServer::handle_connection(int fd) {
  std::unique_ptr<RateLimiter> conn_limiter;
  if (options_.conn_rate_qps > 0.0) {
    conn_limiter = std::make_unique<RateLimiter>(options_.conn_rate_qps,
                                                 options_.conn_burst);
  }
  std::string buffer;
  std::uint64_t served = 0;
  while (serve_one(fd, buffer, conn_limiter.get(), served)) {
    ++served;
  }
  ::close(fd);
}

int HttpServer::read_some(int fd, std::string& buffer) {
  pollfd fds[2] = {{fd, POLLIN, 0}, {wake_pipe_[0], POLLIN, 0}};
  const int ready = ::poll(fds, 2, static_cast<int>(options_.read_timeout_ms));
  if (ready < 0) return errno == EINTR ? 0 : -1;
  if (fds[1].revents != 0) return -2;  // shutdown wake
  if (ready == 0) return 0;            // timeout
  char chunk[8192];
  const ssize_t got = ::recv(fd, chunk, sizeof(chunk), 0);
  if (got <= 0) return -1;  // peer closed (0) or hard error
  buffer.append(chunk, static_cast<std::size_t>(got));
  return 1;
}

bool HttpServer::write_all(int fd, std::string_view bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

bool HttpServer::serve_one(int fd, std::string& buffer,
                           RateLimiter* conn_limiter,
                           std::uint64_t served_on_connection) {
  WallTimer request_timer;
  HttpRequest request;
  bool head_parsed = false;
  std::string request_id;

  // One structured line per answered request (opt-in): enough to grep a
  // request id from the access log into /debug/traces and back.
  const auto log_access = [&](const HttpResponse& response) {
    if (!options_.access_log) return;
    std::string line = "access method=";
    line += head_parsed ? request.method : "-";
    line += " path=";
    line += head_parsed ? std::string(request.path()) : "-";
    line += " status=" + std::to_string(response.status);
    line += " bytes=" + std::to_string(response.body.size());
    line += " micros=" +
            std::to_string(
                static_cast<long long>(request_timer.seconds() * 1e6));
    line += " request_id=" + request_id;
    log_info(line);
  };
  // Terminal error write: every rejection carries the request id (header
  // and error.request_id body member) and closes the connection.
  const auto reject = [&](HttpResponse response) {
    if (request_id.empty()) request_id = trace::mint_request_id();
    stamp_request_id(response, request_id);
    log_access(response);
    write_all(fd, serialize_response(response, false));
  };

  // ---- Read the header block (self-pipe aware). --------------------------
  std::size_t head_end;
  while ((head_end = find_header_end(buffer)) == std::string::npos) {
    if (buffer.size() > options_.max_header) {
      if (parse_errors_ != nullptr) parse_errors_->increment();
      if (responses_4xx_ != nullptr) responses_4xx_->increment();
      reject(HttpResponse::error(431, "header_too_large",
                                 "header block exceeds " +
                                     std::to_string(options_.max_header) +
                                     " bytes"));
      return false;
    }
    const int got = read_some(fd, buffer);
    if (got == 1) continue;
    if (got == -2 || got == -1) {
      // Shutdown wake or peer gone. A half-read request head cannot be
      // answered meaningfully; an idle keep-alive connection just closes.
      return false;
    }
    // Timeout. An idle keep-alive connection is recycled silently; a
    // half-sent request is a client bug worth a diagnosis.
    if (!buffer.empty()) {
      if (parse_errors_ != nullptr) parse_errors_->increment();
      if (responses_4xx_ != nullptr) responses_4xx_->increment();
      reject(HttpResponse::error(408, "timeout",
                                 "request head not completed "
                                 "within the read deadline"));
    }
    return false;
  }

  if (api::Status status = parse_request_head(
          std::string_view(buffer).substr(0, head_end), request);
      !status.is_ok()) {
    if (parse_errors_ != nullptr) parse_errors_->increment();
    if (responses_4xx_ != nullptr) responses_4xx_->increment();
    reject(HttpResponse::error(400, "bad_request", status.message()));
    return false;
  }
  head_parsed = true;
  // Deadline budgets (X-Deadline-Ms) are measured from here, not from
  // serve_one entry — a keep-alive connection idles in this function
  // between requests, and that wait is not the client's spend.
  const std::uint64_t head_ns = trace::now_ns();
  // The request id: honor what the client sent, mint one otherwise — and
  // inject the minted id into the request's headers, so handlers that
  // echo X-Request-Id themselves (QueryHandler) see the same id the
  // server stamps and logs.
  if (const std::string* inbound = request.header("X-Request-Id")) {
    request_id = trace::sanitize_request_id(*inbound);
  } else {
    request_id = trace::mint_request_id();
    request.headers.push_back({"X-Request-Id", request_id});
  }

  // ---- Body (Content-Length only; chunked is out of scope). --------------
  if (request.header("Transfer-Encoding") != nullptr) {
    if (responses_5xx_ != nullptr) responses_5xx_->increment();
    reject(HttpResponse::error(501, "not_implemented",
                               "chunked transfer encoding is not "
                               "supported; send Content-Length"));
    return false;
  }
  auto length = content_length(request.headers);
  if (!length.ok()) {
    if (parse_errors_ != nullptr) parse_errors_->increment();
    if (responses_4xx_ != nullptr) responses_4xx_->increment();
    reject(HttpResponse::error(400, "bad_request",
                               length.status().message()));
    return false;
  }
  const std::size_t body_length = length.value();
  if (body_length > options_.max_body) {
    // The body will not be read, so the stream is desynced: must close.
    if (responses_4xx_ != nullptr) responses_4xx_->increment();
    reject(HttpResponse::error(
        413, "body_too_large",
        "Content-Length " + std::to_string(body_length) +
            " exceeds max-body " + std::to_string(options_.max_body)));
    return false;
  }
  while (buffer.size() < head_end + body_length) {
    const int got = read_some(fd, buffer);
    if (got == 1) continue;
    if (parse_errors_ != nullptr) parse_errors_->increment();
    if (responses_4xx_ != nullptr) responses_4xx_->increment();
    // Timeout (0) and shutdown (-2) can still be answered; a closed peer
    // (-1) may have half-closed its write side and still be reading.
    reject(HttpResponse::error(
        got == 0 ? 408 : 400, got == 0 ? "timeout" : "truncated_body",
        "request body ended after " +
            std::to_string(buffer.size() - head_end) + " of " +
            std::to_string(body_length) + " bytes"));
    return false;
  }
  request.body = buffer.substr(head_end, body_length);
  buffer.erase(0, head_end + body_length);  // keep pipelined bytes

  // ---- Admission control. -------------------------------------------------
  const Route* route = nullptr;
  bool method_mismatch = false;
  for (const Route& candidate : routes_) {
    if (candidate.path == request.path()) {
      if (candidate.method == request.method) {
        route = &candidate;
        break;
      }
      method_mismatch = true;
    }
  }

  const bool wants_keep_alive =
      request.keep_alive() && !stopping() &&
      (options_.keepalive_requests == 0 ||
       served_on_connection + 1 < options_.keepalive_requests);

  // ---- Chaos, then deadline enforcement (query path only). ---------------
  // Observability routes are exempt from both, the same way they are
  // exempt from admission control: a probe must see the server, not the
  // weather. Order matters — a chaos delay that eats the remaining budget
  // turns into an honest 504 below.
  HttpResponse response;
  bool preempted = false;
  if (route != nullptr && route->rate_limited && fault_injector_.active()) {
    switch (fault_injector_.next()) {
      case FaultInjector::Action::kDrop:
        if (chaos_injected_ != nullptr) chaos_injected_->increment();
        return false;  // close without a response
      case FaultInjector::Action::kError:
        if (chaos_injected_ != nullptr) chaos_injected_->increment();
        response = HttpResponse::error(500, "chaos",
                                       "fault injected by --chaos-500-rate");
        preempted = true;
        break;
      case FaultInjector::Action::kStall: {
        // Hold the connection open and answer nothing: the slow-shard
        // shape. Ends when the peer gives up or the server shuts down.
        if (chaos_injected_ != nullptr) chaos_injected_->increment();
        while (true) {
          pollfd fds[2] = {{fd, POLLIN, 0}, {wake_pipe_[0], POLLIN, 0}};
          const int ready = ::poll(fds, 2, -1);
          if (ready < 0) {
            if (errno == EINTR) continue;
            return false;
          }
          if (fds[1].revents != 0) return false;  // shutdown
          if (fds[0].revents != 0) {
            char sink[4096];
            if (::recv(fd, sink, sizeof(sink), 0) <= 0) return false;
          }
        }
      }
      case FaultInjector::Action::kNone:
        if (const unsigned delay = fault_injector_.delay_ms(); delay > 0) {
          // Interruptible sleep: the wake pipe cuts the delay short at
          // shutdown so chaos'd servers still stop promptly.
          pollfd wake{wake_pipe_[0], POLLIN, 0};
          ::poll(&wake, 1, static_cast<int>(delay));
        }
        break;
    }
  }
  if (!preempted && route != nullptr && route->rate_limited) {
    if (const std::string* budget = request.header("X-Deadline-Ms")) {
      char* end = nullptr;
      const unsigned long long deadline_ms =
          std::strtoull(budget->c_str(), &end, 10);
      const bool well_formed =
          end != nullptr && end != budget->c_str() && *end == '\0';
      const std::uint64_t elapsed_ms =
          (trace::now_ns() - head_ns) / 1'000'000ULL;
      if (well_formed && elapsed_ms >= deadline_ms) {
        // The budget is already spent — running the handler would produce
        // an answer nobody is waiting for. Shed it as an explicit 504 so
        // the caller's retry/hedge logic sees a structured failure.
        if (deadline_expired_ != nullptr) deadline_expired_->increment();
        response = HttpResponse::error(
            504, "deadline_exceeded",
            "X-Deadline-Ms " + std::to_string(deadline_ms) +
                " spent before the handler ran");
        preempted = true;
      }
    }
  }

  if (preempted) {
    // Response-class counters and keep-alive handling fall through below.
  } else if (route == nullptr) {
    if (method_mismatch) {
      response = HttpResponse::error(405, "method_not_allowed",
                                     "no handler for " + request.method +
                                         " on " + std::string(request.path()));
      std::string allow;
      for (const Route& candidate : routes_) {
        if (candidate.path == request.path()) {
          if (!allow.empty()) allow += ", ";
          allow += candidate.method;
        }
      }
      response.set_header("Allow", std::move(allow));
    } else {
      response = HttpResponse::error(
          404, "not_found", "no route for " + std::string(request.path()));
    }
  } else if ([&] {
               if (!route->rate_limited) return false;
               double retry_after = 0.0;
               if (global_limiter_ != nullptr) {
                 const bool admitted = global_limiter_->try_acquire(&retry_after);
                 if (rate_tokens_ != nullptr) {
                   rate_tokens_->set(global_limiter_->tokens());
                 }
                 if (!admitted) {
                   response = HttpResponse::error(
                       429, "rate_limited", "global admission rate exceeded");
                   response.set_header(
                       "Retry-After",
                       std::to_string(static_cast<long long>(
                           std::ceil(std::max(retry_after, 1e-9)))));
                   return true;
                 }
               }
               if (conn_limiter != nullptr &&
                   !conn_limiter->try_acquire(&retry_after)) {
                 response = HttpResponse::error(
                     429, "rate_limited", "per-connection rate exceeded");
                 response.set_header(
                     "Retry-After",
                     std::to_string(static_cast<long long>(
                         std::ceil(std::max(retry_after, 1e-9)))));
                 return true;
               }
               return false;
             }()) {
    if (rate_limited_total_ != nullptr) rate_limited_total_->increment();
  } else {
    // The request trace: sampled (or slow-eligible) requests collect the
    // span tree the handler and everything below it emits on this thread
    // and on any thread that does its work (the exact-scan leader of a
    // shared pass captures the context).
    std::shared_ptr<trace::Trace> tr;
    if (tracer_ != nullptr) {
      tr = tracer_->begin(request_id);
      if (tr != nullptr) {
        tr->set_label(request.method + " " + std::string(request.path()));
      }
    }
    WallTimer timer;
    {
      trace::ScopedTrace scope(tr);
      trace::Span span("handler");
      response = route->handler(request);
    }
    if (tracer_ != nullptr) tracer_->finish(tr);
    if (route->requests != nullptr) route->requests->increment();
    if (route->seconds != nullptr) route->seconds->observe(timer.seconds());
  }

  if (response.status >= 500) {
    if (responses_5xx_ != nullptr) responses_5xx_->increment();
  } else if (response.status >= 400) {
    if (responses_4xx_ != nullptr) responses_4xx_->increment();
  } else {
    if (responses_2xx_ != nullptr) responses_2xx_->increment();
  }

  // Honor a handler-forced "Connection: close"; otherwise the keep-alive
  // decision above stands (and stopping_ already forced it off).
  bool keep_alive = wants_keep_alive;
  if (const std::string* connection = response.header("Connection")) {
    if (*connection == "close") keep_alive = false;
  }
  stamp_request_id(response, request_id);
  log_access(response);
  if (!write_all(fd, serialize_response(response, keep_alive))) return false;
  return keep_alive;
}

void add_builtin_routes(HttpServer& server, serving::MetricsRegistry& registry,
                        trace::Tracer* tracer, const HealthState* health) {
  server.handle(
      "GET", "/healthz",
      [&server, health](const HttpRequest&) {
        json::Value build = json::Value::object();
        build.set("compiler", json::Value(std::string(__VERSION__)));
        build.set("std", json::Value(static_cast<double>(__cplusplus)));
        json::Value root = json::Value::object();
        // Liveness: this route answers 200 from listen() on. The status
        // string and the readiness block tell probes whether queries
        // would be answered too.
        const bool ready =
            health == nullptr ||
            health->ready.load(std::memory_order_acquire);
        root.set("status",
                 json::Value(std::string(ready ? "ok" : "loading")));
        root.set("uptime_seconds", json::Value(server.uptime_seconds()));
        root.set("build", std::move(build));
        root.set("simd_isa", json::Value(std::string(
                                 simd::isa_name(simd::active_isa()))));
        if (health != nullptr) {
          root.set("ready", json::Value(ready));
          root.set("rows",
                   json::Value(static_cast<double>(
                       health->rows.load(std::memory_order_relaxed))));
          root.set("dim",
                   json::Value(static_cast<double>(
                       health->dim.load(std::memory_order_relaxed))));
          root.set("shards",
                   json::Value(static_cast<double>(
                       health->shards.load(std::memory_order_relaxed))));
          // As a string: a 64-bit fingerprint does not survive the trip
          // through a JSON double.
          root.set("store_generation",
                   json::Value(std::to_string(health->store_generation.load(
                       std::memory_order_relaxed))));
        }
        return HttpResponse::json(200, root.dump());
      },
      /*rate_limited=*/false);
  if (health != nullptr) {
    server.handle(
        "GET", "/readyz",
        [health](const HttpRequest&) {
          const bool ready = health->ready.load(std::memory_order_acquire);
          json::Value root = json::Value::object();
          root.set("ready", json::Value(ready));
          if (ready) return HttpResponse::json(200, root.dump());
          return HttpResponse::error(503, "unavailable",
                                     "store/strategy still loading");
        },
        /*rate_limited=*/false);
  }
  server.handle(
      "GET", "/metrics",
      [&registry](const HttpRequest&) {
        HttpResponse response;
        response.status = 200;
        response.body = registry.expose();
        response.set_header("Content-Type",
                            "text/plain; version=0.0.4; charset=utf-8");
        return response;
      },
      /*rate_limited=*/false);
  if (tracer != nullptr) {
    server.handle(
        "GET", "/debug/traces",
        [tracer](const HttpRequest&) {
          return HttpResponse::json(200, tracer->export_chrome_json());
        },
        /*rate_limited=*/false);
  }
}

}  // namespace gosh::net
