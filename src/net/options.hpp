// NetOptions — the HTTP front-end's twin of ServeOptions.
//
// gosh_serve is gosh_query with a wire in front: everything below the
// socket (store, index, strategy, k/ef/metric defaults) is the embedded
// `serve` ServeOptions, and NetOptions::table() holds ServeOptions' rows
// re-rooted at `serve` next to its own, so a serving key parses the same
// way in both tools by construction. The fields here are only what the
// network layer adds (bind address, worker pool, body/header limits,
// admission control, timeouts, chaos, tracing).
//
// One deliberate rename: "--threads" here is the CONNECTION WORKER POOL
// (the front-end's concurrency), and the scan parallelism ServeOptions
// calls threads is reachable as "--scan-threads" — a network operator
// sizing the server thinks in connections first.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "gosh/api/option_table.hpp"
#include "gosh/api/status.hpp"
#include "gosh/serving/options.hpp"

namespace gosh::net {

struct NetOptions {
  // ---- Wire. -------------------------------------------------------------
  /// Bind address; "0.0.0.0" opens the server to the network.
  std::string host = "127.0.0.1";
  /// TCP port ("--port"); 0 binds an ephemeral port (tests, CI) — read the
  /// actual one back from HttpServer::port() or --port-file.
  unsigned port = 8080;
  /// Connection worker pool size ("--threads"): each worker owns one
  /// connection at a time, so this is also the keep-alive concurrency cap.
  unsigned threads = 4;

  // ---- Request limits. ----------------------------------------------------
  std::uint64_t max_body = 1 << 20;     ///< bytes; beyond it -> 413
  std::uint64_t max_header = 16 << 10;  ///< bytes; beyond it -> 431
  /// Per-read deadline in ms: a request whose bytes stop arriving for this
  /// long is answered 408 and the connection closed. Also bounds how long
  /// an idle keep-alive connection is held before the server recycles it.
  unsigned read_timeout_ms = 5000;
  /// Requests served per connection before the server turns keep-alive
  /// off (0 = unlimited) — bounds how long one client can pin a worker.
  std::uint64_t keepalive_requests = 1024;

  // ---- Admission control (token buckets; see rate_limiter.hpp). ----------
  double rate_qps = 0.0;       ///< global sustained qps; 0 = no global limit
  double burst = 0.0;          ///< global bucket depth; 0 = max(rate_qps, 1)
  double conn_rate_qps = 0.0;  ///< per-connection sustained qps; 0 = off
  double conn_burst = 0.0;     ///< per-connection depth; 0 = max(qps, 1)

  // ---- Observability (gosh::trace + the access log). ----------------------
  /// Fraction of requests traced ("--trace-sample-rate", [0, 1]); kept
  /// traces are readable at GET /debug/traces. 0 = sampling off.
  double trace_sample_rate = 0.0;
  /// Requests slower than this many ms are always traced and logged at
  /// Warn ("--trace-slow-ms"); 0 = off.
  double trace_slow_ms = 0.0;
  /// File the Chrome trace_event JSON is dumped to on shutdown
  /// ("--trace-out"); empty = no dump.
  std::string trace_out;
  /// One structured line per response ("--access-log"): method, path,
  /// status, bytes, micros, request id.
  bool access_log = false;

  // ---- Chaos (net::FaultInjector; see fault_injector.hpp). ----------------
  // Deterministic fault injection on the query path, off by default.
  // Compiled in always so tests and the dist smoke exercise the real
  // server; /healthz and /metrics are never chaos'd.
  double chaos_drop_rate = 0.0;  ///< P(connection dropped, no response)
  double chaos_500_rate = 0.0;   ///< P(500 "chaos" instead of the handler)
  double chaos_stall = 0.0;      ///< P(connection held open, never answered)
  unsigned chaos_delay_ms = 0;   ///< latency added to surviving requests
  std::uint64_t chaos_seed = 42; ///< fault-draw sequence seed

  // ---- Tool-facing. -------------------------------------------------------
  /// File the bound port is written to after listen() (written to a temp
  /// name and renamed, so a poller never reads a partial file).
  std::string port_file;
  /// Registers POST /admin/shutdown (tests / supervised deployments); off
  /// by default — an open shutdown endpoint is a denial-of-service button.
  bool allow_remote_shutdown = false;
  bool show_help = false;  ///< --help seen; caller prints usage

  /// Everything below the wire: store/index/strategy/k/ef/metric — the
  /// flag set shared with gosh_query ("--scan-threads" maps onto its
  /// threads field).
  serving::ServeOptions serve;

  /// Every key's row: ServeOptions' rows except its threads, then the
  /// network rows.
  static const api::OptionTable<NetOptions>& table();

  /// Range checks over the net fields, then serve.validate().
  api::Status validate() const;

  /// Applies one key=value knob; every ServeOptions key works here too.
  api::Status set(std::string_view key, std::string_view value);

  /// Parses a full command line (the dialect in api/option_table.hpp).
  /// The result has already passed validate().
  static api::Result<NetOptions> from_args(int argc, char** argv);

  /// key=value file parse ('#' comments) on top of `base` (defaults when
  /// omitted). The result has already passed validate().
  static api::Result<NetOptions> from_file(const std::string& path);
  static api::Result<NetOptions> from_file(const std::string& path,
                                           const NetOptions& base);
};

}  // namespace gosh::net
