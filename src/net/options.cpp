#include "gosh/net/options.hpp"

#include <utility>

namespace gosh::net {

const api::OptionTable<NetOptions>& NetOptions::table() {
  using api::at;
  using api::at_least;
  using api::flag;
  using api::option;
  using api::within;
  using N = NetOptions;
  static const api::OptionTable<N> table{
      "usage: gosh_serve --store PATH [--port P] [flags]\n",
      "serving option",
      api::nested_groups<N>(
          serving::ServeOptions::table(), &N::serve, "threads",
          {{"network",
            {option<N>("host", "H", "bind address; 0.0.0.0 opens the network",
                       &N::host, api::nonempty("empty address")),
             option<N>("port", "P", "TCP port; 0 = ephemeral", &N::port,
                       within(0, 65535)),
             option<N>("threads", "T", "connection worker pool", &N::threads,
                       within(1, 1024)),
             option<N>("scan-threads", "T",
                       "scan parallelism (gosh_query's --threads)",
                       at(&N::serve, &serving::ServeOptions::threads),
                       within(0, 1024)),
             option<N>("max-body", "N",
                       "request body cap in bytes (413 beyond)", &N::max_body,
                       within(1, 1 << 30)),
             option<N>("max-header", "N",
                       "request head cap in bytes (431 beyond)", &N::max_header,
                       within(64, 1 << 24)),
             option<N>("read-timeout-ms", "MS",
                       "per-read deadline (408 beyond)", &N::read_timeout_ms,
                       within(1, 600000)),
             option<N>("keepalive-requests", "N",
                       "requests per connection; 0 = unlimited",
                       &N::keepalive_requests),
             option<N>("rate-qps", "Q", "global admission rate; 0 = off",
                       &N::rate_qps, at_least(0)),
             option<N>("burst", "B", "global bucket depth; 0 = max(Q, 1)",
                       &N::burst, at_least(0)),
             option<N>("conn-rate-qps", "Q",
                       "per-connection admission rate; 0 = off",
                       &N::conn_rate_qps, at_least(0)),
             option<N>("conn-burst", "B",
                       "per-connection bucket depth; 0 = max(Q, 1)",
                       &N::conn_burst, at_least(0)),
             option<N>("port-file", "PATH",
                       "write the bound port here after listen", &N::port_file),
             flag<N>("allow-remote-shutdown", "register POST /admin/shutdown",
                     &N::allow_remote_shutdown)}},
           {"chaos (seeded fault injection on queries)",
            {option<N>("chaos-drop-rate", "R",
                       "share dropped without an answer", &N::chaos_drop_rate,
                       within(0, 1)),
             option<N>("chaos-500-rate", "R",
                       "share answered with a synthetic 500",
                       &N::chaos_500_rate, within(0, 1)),
             option<N>("chaos-stall", "R", "share held open and never answered",
                       &N::chaos_stall, within(0, 1)),
             option<N>("chaos-delay-ms", "MS",
                       "delay added to every surviving query",
                       &N::chaos_delay_ms),
             option<N>("chaos-seed", "S", "fault-draw seed", &N::chaos_seed)}},
           {"observability",
            {option<N>("trace-sample-rate", "R", "share of requests traced",
                       &N::trace_sample_rate, within(0, 1)),
             option<N>("trace-slow-ms", "MS",
                       "trace and log requests slower than MS; 0 = off",
                       &N::trace_slow_ms, at_least(0)),
             option<N>("trace-out", "PATH",
                       "write traces as Chrome JSON at shutdown (alone: trace "
                       "all)",
                       &N::trace_out),
             flag<N>("access-log", "one structured log line per response",
                     &N::access_log)}}})};
  return table;
}

api::Status NetOptions::set(std::string_view key, std::string_view value) {
  return table().set(*this, key, value);
}

api::Status NetOptions::validate() const {
  if (api::Status status = table().check(*this); !status.is_ok())
    return status;
  const auto bad = [](std::string message) {
    return api::Status::invalid_argument(std::move(message));
  };
  if (burst > 0.0 && rate_qps <= 0.0)
    return bad("burst: needs rate-qps > 0");
  if (conn_burst > 0.0 && conn_rate_qps <= 0.0)
    return bad("conn-burst: needs conn-rate-qps > 0");
  if (chaos_drop_rate + chaos_500_rate + chaos_stall > 1.0)
    return bad("chaos rates: drop + 500 + stall must not exceed 1");
  return serve.validate();
}

api::Result<NetOptions> NetOptions::from_args(int argc, char** argv) {
  return table().from_args(argc, argv);
}

api::Result<NetOptions> NetOptions::from_file(const std::string& path) {
  return from_file(path, NetOptions{});
}

api::Result<NetOptions> NetOptions::from_file(const std::string& path,
                                              const NetOptions& base) {
  return table().from_file(path, base);
}

}  // namespace gosh::net
