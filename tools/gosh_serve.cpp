// gosh_serve — gosh_query with a wire in front: the HTTP/1.1 serving
// front-end over the same store/index/strategy flags.
//
//   gosh_serve --store emb.store --port 8080
//   gosh_serve --store emb.store --strategy hnsw --rate-qps 500 --burst 50
//   gosh_serve --store emb.store --port 0 --port-file /tmp/port
//              --allow-remote-shutdown                  # tests / CI smoke
//
// Endpoints:
//   POST /v1/query        the QueryRequest JSON wire (see net/query_handler)
//   GET  /metrics         Prometheus text exposition (rate-limit exempt)
//   GET  /healthz         JSON liveness: status + ready/rows/dim/shards/
//                         store_generation (exempt). The socket answers
//                         BEFORE the store loads — "status": "loading"
//                         with "ready": false until make_service lands.
//   GET  /readyz          readiness alone: 200 once serving, 503 loading
//   GET  /debug/traces    Chrome trace_event JSON (tracing on; exempt)
//   POST /admin/shutdown  graceful stop; only with --allow-remote-shutdown
//
// `gosh_serve --help` lists every flag, grouped, with its default: the
// serving flags gosh_query takes (scan parallelism is --scan-threads here,
// since --threads sizes the connection pool), then the network, chaos and
// observability flags. Each is also a key=value line of an --options file.
// --trace-out alone implies --trace-sample-rate 1.
//
// Shutdown: SIGINT/SIGTERM (and the admin endpoint) write one byte to a
// self-pipe the main thread blocks on; main — never a connection worker —
// then runs HttpServer::shutdown(), so in-flight requests finish and every
// thread joins before exit.
#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstring>

#include <poll.h>
#include <unistd.h>

#include "gosh/api/api.hpp"
#include "gosh/cache/cached_service.hpp"
#include "gosh/store/embedding_store.hpp"

namespace {

using namespace gosh;

/// Self-pipe the signal handler and the admin endpoint both poke; main
/// blocks on the read end. write() is async-signal-safe; nothing else is
/// allowed in the handler.
int g_stop_pipe[2] = {-1, -1};

void request_stop() {
  const char byte = 1;
  [[maybe_unused]] const ssize_t n = ::write(g_stop_pipe[1], &byte, 1);
}

void on_signal(int) { request_stop(); }

int fail(const api::Status& status) {
  std::fprintf(stderr, "error: %s\n", status.to_string().c_str());
  return 1;
}

/// Writes the bound port where a poller (the CI smoke script) watches for
/// it — to a temp name first, renamed into place, so the poller can never
/// read a half-written file.
api::Status write_port_file(const std::string& path, unsigned short port) {
  const std::string temp = path + ".tmp";
  std::FILE* out = std::fopen(temp.c_str(), "w");
  if (out == nullptr) {
    return api::Status::io_error("cannot write port file " + temp);
  }
  std::fprintf(out, "%u\n", static_cast<unsigned>(port));
  if (std::fclose(out) != 0) {
    return api::Status::io_error("short write on port file " + temp);
  }
  if (std::rename(temp.c_str(), path.c_str()) != 0) {
    return api::Status::io_error("cannot rename " + temp + " -> " + path +
                                 ": " + std::strerror(errno));
  }
  return api::Status::ok();
}

}  // namespace

int main(int argc, char** argv) {
  const api::OptionTable<net::NetOptions>& table = net::NetOptions::table();
  auto parsed = net::NetOptions::from_args(argc, argv);
  if (!parsed.ok()) return api::usage_error(parsed.status(), table);
  net::NetOptions options = std::move(parsed).value();
  if (options.show_help) {
    std::fputs(table.help().c_str(), stdout);
    return 0;
  }
  // --trace-out with no sampling knob would dump an empty ring; alone it
  // means "trace everything I serve".
  if (!options.trace_out.empty() && options.trace_sample_rate == 0.0 &&
      options.trace_slow_ms == 0.0) {
    options.trace_sample_rate = 1.0;
  }
  // The access log emits at Info; the default threshold (Warn) would
  // swallow it.
  if (options.access_log) set_log_level(LogLevel::Info);

  serving::MetricsRegistry& metrics = serving::MetricsRegistry::global();

  if (::pipe(g_stop_pipe) != 0) {
    return fail(api::Status::io_error(std::string("pipe: ") +
                                      std::strerror(errno)));
  }

  // The server comes up BEFORE the store/strategy load: /healthz answers
  // "loading" (liveness) immediately, /readyz and /v1/query hold 503
  // until the service lands — the readiness split a dist-router parent's
  // probe loop keys off when a shard child restarts.
  net::HealthState health;
  std::atomic<net::QueryHandler*> handler_ptr{nullptr};
  net::HttpServer server(options, &metrics);
  server.handle("POST", "/v1/query",
                [&handler_ptr](const net::HttpRequest& r) {
                  net::QueryHandler* handler =
                      handler_ptr.load(std::memory_order_acquire);
                  if (handler == nullptr) {
                    return net::HttpResponse::error(
                        503, "unavailable", "store/strategy still loading");
                  }
                  return handler->handle(r);
                });
  net::add_builtin_routes(server, metrics, server.tracer(), &health);
  if (options.allow_remote_shutdown) {
    // The handler runs on a connection worker, which must NOT call
    // shutdown() itself — it pokes the same pipe the signal handler does
    // and main performs the stop after the response is on the wire.
    server.handle(
        "POST", "/admin/shutdown",
        [](const net::HttpRequest&) {
          request_stop();
          net::HttpResponse response =
              net::HttpResponse::json(200, "{\"status\":\"shutting down\"}");
          response.set_header("Connection", "close");
          return response;
        },
        /*rate_limited=*/false);
  }

  if (api::Status status = server.start(); !status.is_ok()) {
    return fail(status);
  }

  auto service = serving::make_service(options.serve, &metrics);
  if (!service.ok()) {
    server.shutdown();
    return fail(service.status());
  }
  api::print_service_banner(options.serve, *service.value());

  // Publish geometry + readiness, THEN the port file: a poller that read
  // the port can immediately see a ready /healthz, which keeps the
  // existing smoke scripts' "port file means serving" contract.
  health.rows.store(service.value()->rows(), std::memory_order_relaxed);
  health.dim.store(service.value()->dim(), std::memory_order_relaxed);
  {
    std::uint32_t shards = options.serve.shard_count;
    if (shards == 0 && !options.serve.store_path.empty()) {
      auto info = store::EmbeddingStore::probe(options.serve.store_path);
      shards = info.ok() ? info.value().shard_count : 1;
    }
    health.shards.store(shards > 0 ? shards : 1, std::memory_order_relaxed);
  }
  if (!options.serve.store_path.empty()) {
    health.store_generation.store(
        cache::store_fingerprint(options.serve.store_path),
        std::memory_order_relaxed);
  }
  net::QueryHandler handler(*service.value());
  handler_ptr.store(&handler, std::memory_order_release);
  health.ready.store(true, std::memory_order_release);

  if (!options.port_file.empty()) {
    if (api::Status status = write_port_file(options.port_file, server.port());
        !status.is_ok()) {
      server.shutdown();
      return fail(status);
    }
  }
  std::printf("serving on %s:%u (%u workers%s)\n", options.host.c_str(),
              static_cast<unsigned>(server.port()), options.threads,
              options.rate_qps > 0 ? ", rate-limited" : "");
  std::fflush(stdout);

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  std::signal(SIGPIPE, SIG_IGN);

  // Park until a signal or the admin endpoint fires; EINTR just re-polls.
  pollfd pfd{g_stop_pipe[0], POLLIN, 0};
  while (::poll(&pfd, 1, -1) < 0 && errno == EINTR) {
  }

  std::printf("shutting down\n");
  server.shutdown();
  if (!options.trace_out.empty() && server.tracer() != nullptr) {
    if (api::Status status = trace::write_chrome_json(*server.tracer(),
                                                      options.trace_out);
        !status.is_ok()) {
      std::fprintf(stderr, "warning: %s\n", status.to_string().c_str());
    } else {
      std::printf("wrote %s (%llu traces)\n", options.trace_out.c_str(),
                  static_cast<unsigned long long>(server.tracer()->kept()));
    }
  }
  ::close(g_stop_pipe[0]);
  ::close(g_stop_pipe[1]);
  return 0;
}
