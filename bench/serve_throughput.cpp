// HTTP serving throughput — what the wire costs on top of the scan.
//
// Self-host mode (default): writes a synthetic store, measures the
// in-process exact-scan baseline (QueryService::serve in a loop, no
// sockets), then stands an HttpServer up on an ephemeral loopback port and
// drives it closed-loop (every client thread keeps one keep-alive
// connection and fires its next request the moment the previous answer
// lands) at each --concurrency level, reporting queries/s and client-side
// p50/p99 per level plus the HTTP/in-process ratio. When --rate-qps is
// set, a second rate-limited server takes an open-loop burst at twice the
// sustained rate and the harness reports how many requests were shed 429
// and what the /metrics exposition counted — admission control caught in
// the act, not assumed.
//
// Connect mode (--connect HOST:PORT): the same closed-loop client pointed
// at an external gosh_serve — the CI smoke test's driver. Checks /healthz,
// serves the query phase, scrapes /metrics (and verifies the per-endpoint
// series showed up), and with --shutdown posts /admin/shutdown at the end.
//
//   bench_serve_throughput [--rows N] [--dim D] [--k K] [--requests R]
//                          [--concurrency c1,c2,...] [--rate-qps Q]
//                          [--burst B] [--zipf-s S] [--seed S]
//                          [--json FILE] [--run-id ID]
//                          [--trace on|off|sampled] [--dist]
//                          [--connect HOST:PORT] [--shutdown]
//                          [--expect-traces] [--expect-cache]
//                          [--expect-degraded] [--expect-recovered]
//
// Defaults: 20000 rows, dim 64, k 10, 2000 requests, concurrency 1,4,8,
// burst 1, zipf-s 1.0.
//
// --trace prices the gosh::trace layer in self-host mode: "off" leaves the
// global gate down (the disabled-check cost), "on" samples every request,
// "sampled" keeps 1%. The mode lands in every record's "trace" param so
// the BENCH_*.json trajectory can hold the three columns side by side.
// --zipf-s shapes probe popularity (Zipf over a shuffled rank->id map;
// 0 = uniform) so a hot set dominates the way real traffic does — the
// regime where a cache-enabled server pulls ahead. --burst groups the
// open-loop shed phase's arrivals into back-to-back volleys of B at
// interval B/rate (the mean rate is unchanged; the instantaneous rate is
// what admission control and the tail quantiles see).
// --expect-traces (connect mode) POSTs one query with an explicit
// X-Request-Id and asserts GET /debug/traces reports the span chain under
// that id — handler -> queue-wait -> scan when the answer came from an
// exact scan, handler -> cache-lookup when the server's semantic cache
// answered (the response's "cache" annotation picks the expectation).
// --expect-cache (connect mode) POSTs the same query twice so the second
// is a guaranteed exact-byte hit, asserts the "cache":["hit"] annotation,
// a nonzero gosh_cache_hits_total in /metrics, and the cache-lookup span
// under the hit's request id — the smoke test's cache acceptance check.
// --expect-degraded / --expect-recovered (connect mode) are the dist
// smoke's fault-tolerance probes against a dist-router parent: the first
// polls POST /v1/query until an answer carries "degraded": true AND the
// parent's /metrics count a nonzero gosh_remote_degraded_responses_total
// and gosh_remote_breaker_open_total (a shard child was killed and the
// router kept answering); the second polls until an answer comes back
// "degraded": false (the child restarted, the half-open probe closed the
// breaker, full merges are back). Both skip the load phase.
// --dist (self-host mode) adds the distributed phases: the store is
// rewritten sharded 3 ways, three in-process shard children plus one
// whole-store child come up on loopback, and the closed loop measures a
// remote parent (single-backend forwarding) and a dist-router parent
// (3-way scatter + k-way merge) at each concurrency level next to the
// direct-http rows. Then the chaos phase: shard 0's FaultInjector flips
// to stall_rate=1.0 mid-run and the loop drives the dist-router again —
// every answer must still land 200 inside the scatter deadline with
// "degraded": true counted in the parent's metrics, and the client p999
// must stay bounded (the breaker sheds the stalled shard instead of
// queueing behind it). Un-stalling the child must restore clean merges.
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "gosh/api/api.hpp"
#include "gosh/common/simd.hpp"
#include "gosh/common/zipf.hpp"
#include "gosh/net/json.hpp"
#include "gosh/trace/trace.hpp"
#include "report.hpp"

namespace {

using namespace gosh;

int fail(const api::Status& status) {
  std::fprintf(stderr, "error: %s\n", status.to_string().c_str());
  return 1;
}

bool bool_flag(int argc, char** argv, std::string_view name) {
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == name) return true;
  }
  return false;
}

std::string flag_string(int argc, char** argv, std::string_view name,
                        std::string fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string_view(argv[i]) == name) return argv[i + 1];
  }
  return fallback;
}

/// One vertex query as the wire sees it.
std::string query_body(vid_t probe, unsigned k) {
  return "{\"queries\":[{\"vertex\":" + std::to_string(probe) +
         "}],\"k\":" + std::to_string(k) + "}";
}

struct LoadResult {
  double seconds = 0.0;
  std::uint64_t ok_2xx = 0;
  std::uint64_t shed_429 = 0;
  std::uint64_t failed = 0;  ///< transport errors or non-2xx/429 statuses
};

/// Closed-loop phase: `concurrency` threads, each owning one keep-alive
/// connection, splitting `probes` among them; per-request client-side
/// latency lands in `latency`.
LoadResult run_closed_loop(const std::string& host, unsigned short port,
                           const std::vector<vid_t>& probes, unsigned k,
                           unsigned concurrency,
                           serving::Histogram& latency) {
  LoadResult result;
  std::atomic<std::uint64_t> ok{0}, shed{0}, failed{0};
  std::vector<std::thread> clients;
  clients.reserve(concurrency);
  WallTimer timer;
  for (unsigned c = 0; c < concurrency; ++c) {
    clients.emplace_back([&, c] {
      net::HttpClient client(host, port);
      WallTimer request_timer;
      for (std::size_t i = c; i < probes.size(); i += concurrency) {
        request_timer.reset();
        auto response = client.post_json("/v1/query",
                                         query_body(probes[i], k));
        if (!response.ok()) {
          failed.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        latency.observe(request_timer.seconds());
        if (response.value().status / 100 == 2) {
          ok.fetch_add(1, std::memory_order_relaxed);
        } else if (response.value().status == 429) {
          shed.fetch_add(1, std::memory_order_relaxed);
        } else {
          failed.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  result.seconds = timer.seconds();
  result.ok_2xx = ok.load();
  result.shed_429 = shed.load();
  result.failed = failed.load();
  return result;
}

/// Open-loop phase: fire at a fixed pace regardless of answers — the shape
/// that makes a token bucket visible (a closed loop self-throttles and
/// never overruns a limiter for long). `burst` groups arrivals into
/// back-to-back volleys at interval burst/target_qps: the mean offered
/// rate stays target_qps, but the instantaneous rate inside a volley is
/// whatever the wire sustains — the shape that separates p99 from p999
/// and exercises a limiter's bucket depth rather than its refill rate.
LoadResult run_open_loop(const std::string& host, unsigned short port,
                         const std::vector<vid_t>& probes, unsigned k,
                         double target_qps, std::size_t burst,
                         serving::Histogram& latency) {
  LoadResult result;
  net::HttpClient client(host, port);
  if (burst < 1) burst = 1;
  const auto interval =
      std::chrono::duration<double>(static_cast<double>(burst) / target_qps);
  auto deadline = std::chrono::steady_clock::now();
  WallTimer timer;
  WallTimer request_timer;
  for (std::size_t i = 0; i < probes.size(); ++i) {
    if (i % burst == 0) {
      deadline +=
          std::chrono::duration_cast<std::chrono::steady_clock::duration>(
              interval);
      std::this_thread::sleep_until(deadline);
    }
    request_timer.reset();
    auto response = client.post_json("/v1/query", query_body(probes[i], k));
    if (!response.ok()) {
      ++result.failed;
      continue;
    }
    latency.observe(request_timer.seconds());
    if (response.value().status / 100 == 2) {
      ++result.ok_2xx;
    } else if (response.value().status == 429) {
      ++result.shed_429;
    } else {
      ++result.failed;
    }
  }
  result.seconds = timer.seconds();
  return result;
}

/// GET /metrics and sanity-check it is the Prometheus text format carrying
/// the per-endpoint series (the acceptance check the CI smoke leans on).
int scrape_metrics(const std::string& host, unsigned short port,
                   bool print_summary) {
  net::HttpClient client(host, port);
  auto response = client.get("/metrics");
  if (!response.ok()) return fail(response.status());
  if (response.value().status != 200) {
    std::fprintf(stderr, "error: /metrics answered %d\n",
                 response.value().status);
    return 1;
  }
  const std::string& body = response.value().body;
  for (const char* needle :
       {"# TYPE ", "gosh_http_requests_total_post_v1_query",
        "gosh_http_request_seconds_post_v1_query"}) {
    if (body.find(needle) == std::string::npos) {
      std::fprintf(stderr, "error: /metrics exposition is missing \"%s\"\n",
                   needle);
      return 1;
    }
  }
  if (print_summary) {
    std::printf("/metrics: %zu bytes, per-endpoint series present\n",
                body.size());
  }
  return 0;
}

/// Query 0's "cache" annotation from a response body — "hit"/"miss"/
/// "skip", or "" when the annotation is absent (no cache in the path).
std::string cache_annotation(const std::string& body) {
  auto parsed = net::json::Value::parse(body);
  if (!parsed.ok()) return "";
  const net::json::Value* cache = parsed.value().find("cache");
  if (cache == nullptr || !cache->is_array() || cache->size() == 0) {
    return "";
  }
  return (*cache)[0].is_string() ? (*cache)[0].as_string() : "";
}

bool answered_from_cache(const std::string& body) {
  return cache_annotation(body) == "hit";
}

/// Scans /debug/traces for the named spans under one request id; fills
/// `missing` with the absentees. Returns nonzero on transport/JSON errors.
int spans_for_id(net::HttpClient& client, const std::string& id,
                 const std::vector<const char*>& names,
                 std::vector<std::string>& missing) {
  auto traces = client.get("/debug/traces");
  if (!traces.ok()) return fail(traces.status());
  if (traces.value().status != 200) {
    std::fprintf(stderr, "error: /debug/traces answered %d\n",
                 traces.value().status);
    return 1;
  }
  auto parsed = net::json::Value::parse(traces.value().body);
  if (!parsed.ok()) {
    std::fprintf(stderr, "error: /debug/traces is not strict JSON: %s\n",
                 parsed.status().to_string().c_str());
    return 1;
  }
  const net::json::Value* events = parsed.value().find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    std::fprintf(stderr, "error: /debug/traces carries no traceEvents\n");
    return 1;
  }
  for (const char* name : names) {
    bool found = false;
    for (std::size_t i = 0; i < events->size() && !found; ++i) {
      const net::json::Value& event = (*events)[i];
      const net::json::Value* event_name = event.find("name");
      const net::json::Value* args = event.find("args");
      const net::json::Value* request_id =
          args != nullptr ? args->find("request_id") : nullptr;
      found = event_name != nullptr && event_name->is_string() &&
              event_name->as_string() == name && request_id != nullptr &&
              request_id->is_string() && request_id->as_string() == id;
    }
    if (!found) missing.emplace_back(name);
  }
  return 0;
}

/// One POST under a client-chosen id with status + echo checks; returns
/// the body through `body_out` so callers can read the cache annotation.
int traced_post(net::HttpClient& client, const std::string& id, vid_t probe,
                unsigned k, std::string& body_out) {
  auto posted = client.request("POST", "/v1/query", query_body(probe, k),
                               {{"Content-Type", "application/json"},
                                {"X-Request-Id", id}});
  if (!posted.ok()) return fail(posted.status());
  if (posted.value().status != 200) {
    std::fprintf(stderr, "error: traced POST /v1/query answered %d\n",
                 posted.value().status);
    return 1;
  }
  const std::string* echoed = posted.value().header("X-Request-Id");
  if (echoed == nullptr || *echoed != id) {
    std::fprintf(stderr, "error: X-Request-Id was not echoed (got \"%s\")\n",
                 echoed != nullptr ? echoed->c_str() : "<missing>");
    return 1;
  }
  body_out = posted.value().body;
  return 0;
}

/// The tracing acceptance probe: one POST under a client-chosen request
/// id, then /debug/traces must report the span chain for exactly that id,
/// as strict JSON. A scan-served answer must show the exact strategy's
/// handler -> queue-wait -> scan chain (the wait for, then the time of,
/// the shared pass that answered it). With the semantic cache in the path
/// the response annotation decides: a hit must show handler ->
/// cache-lookup, and a miss handler -> cache-lookup -> queue-wait -> scan
/// -> cache-insert. Requires a server whose store has no index beside it
/// (so "auto" and its alias "batched" serve exact) with sampling on — the
/// smoke test's configuration.
int verify_traces(const std::string& host, unsigned short port, unsigned k) {
  net::HttpClient client(host, port);
  const std::string id = "smoke-trace-probe";
  std::string body;
  if (int rc = traced_post(client, id, 0, k, body); rc != 0) return rc;
  const std::string annotation = cache_annotation(body);
  const bool hit = annotation == "hit";
  const std::vector<const char*> expected =
      annotation.empty()
          ? std::vector<const char*>{"handler", "queue-wait", "scan"}
          : (hit ? std::vector<const char*>{"handler", "cache-lookup"}
                 : std::vector<const char*>{"handler", "cache-lookup",
                                            "queue-wait", "scan",
                                            "cache-insert"});
  std::vector<std::string> missing;
  if (int rc = spans_for_id(client, id, expected, missing); rc != 0) return rc;
  if (!missing.empty()) {
    std::string list;
    for (const std::string& name : missing) list += " " + name;
    std::fprintf(stderr,
                 "error: /debug/traces is missing span(s)%s for "
                 "request id \"%s\" (%s-served)\n",
                 list.c_str(), id.c_str(), hit ? "cache" : "scan");
    return 1;
  }
  std::string chain;
  for (const char* name : expected) {
    if (!chain.empty()) chain += "/";
    chain += name;
  }
  std::printf("/debug/traces: %s spans present for \"%s\"\n", chain.c_str(),
              id.c_str());
  return 0;
}

/// The semantic-cache acceptance probe: POST the same vertex query twice
/// under distinct request ids. The first installs (or refreshes) the
/// entry; the second is a guaranteed exact-byte hit, so its response must
/// carry "cache":["hit"], /metrics must count a nonzero
/// gosh_cache_hits_total, and /debug/traces must hold the cache-lookup
/// span under the second id.
int verify_cache(const std::string& host, unsigned short port, unsigned k) {
  net::HttpClient client(host, port);
  std::string body;
  if (int rc = traced_post(client, "smoke-cache-warm", 1, k, body); rc != 0) {
    return rc;
  }
  const std::string hit_id = "smoke-cache-hit";
  if (int rc = traced_post(client, hit_id, 1, k, body); rc != 0) return rc;
  if (!answered_from_cache(body)) {
    std::fprintf(stderr,
                 "error: repeated query was not served from the cache "
                 "(response: %s)\n",
                 body.c_str());
    return 1;
  }
  {
    auto response = client.get("/metrics");
    if (!response.ok()) return fail(response.status());
    if (response.value().status != 200) {
      std::fprintf(stderr, "error: /metrics answered %d\n",
                   response.value().status);
      return 1;
    }
    const std::string& text = response.value().body;
    // Leading '\n' skips the "# TYPE ..." line and lands on the sample.
    const char* needle = "\ngosh_cache_hits_total ";
    const std::size_t at = text.find(needle);
    if (at == std::string::npos ||
        std::strtod(text.c_str() + at + std::strlen(needle), nullptr) <=
            0.0) {
      std::fprintf(stderr,
                   "error: gosh_cache_hits_total is missing or zero in "
                   "/metrics after a guaranteed hit\n");
      return 1;
    }
  }
  std::vector<std::string> missing;
  if (int rc = spans_for_id(client, hit_id, {"handler", "cache-lookup"},
                            missing);
      rc != 0) {
    return rc;
  }
  if (!missing.empty()) {
    std::fprintf(stderr,
                 "error: /debug/traces is missing the cache-lookup span "
                 "for the guaranteed hit \"%s\"\n",
                 hit_id.c_str());
    return 1;
  }
  std::printf("cache probe: hit annotated, gosh_cache_hits_total > 0, "
              "cache-lookup span present for \"%s\"\n",
              hit_id.c_str());
  return 0;
}

/// One sample's value out of a Prometheus text exposition, or -1.0 when
/// the series is absent. The leading '\n' skips "# TYPE name ..." lines
/// and lands on the sample itself.
double metric_sample(const std::string& text, const char* name) {
  const std::string needle = std::string("\n") + name + " ";
  const std::size_t at = text.find(needle);
  if (at == std::string::npos) return -1.0;
  return std::strtod(text.c_str() + at + needle.size(), nullptr);
}

/// GET /metrics and read one counter; -1.0 on transport errors or when
/// the series has not been registered yet.
double scrape_metric(const std::string& host, unsigned short port,
                     const char* name) {
  net::HttpClient client(host, port);
  auto response = client.get("/metrics");
  if (!response.ok() || response.value().status != 200) return -1.0;
  return metric_sample(response.value().body, name);
}

/// Polls /healthz until the server reports ready (or until a server that
/// predates the readiness split answers 200 without a "ready" field).
/// gosh_serve listens before the store loads, so a 200 alone no longer
/// means it can answer queries.
int wait_until_ready(const std::string& host, unsigned short port,
                     unsigned timeout_ms) {
  net::HttpClient client(host, port);
  const unsigned step_ms = 200;
  for (unsigned waited = 0;; waited += step_ms) {
    auto health = client.get("/healthz");
    if (health.ok() && health.value().status == 200) {
      auto parsed = net::json::Value::parse(health.value().body);
      const net::json::Value* ready =
          parsed.ok() ? parsed.value().find("ready") : nullptr;
      if (ready == nullptr || (ready->is_bool() && ready->as_bool())) {
        return 0;
      }
    }
    if (waited >= timeout_ms) {
      std::fprintf(stderr,
                   "error: %s:%u did not report ready within %u ms\n",
                   host.c_str(), port, timeout_ms);
      return 1;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(step_ms));
  }
}

/// POSTs one vertex query and reads the answer's "degraded" annotation:
/// 1 = degraded merge, 0 = clean answer (flag false or absent),
/// -1 = transport error or non-200 (a breaker-shed 503 counts here).
int post_degraded(net::HttpClient& client, unsigned k) {
  auto response = client.post_json("/v1/query", query_body(0, k));
  if (!response.ok() || response.value().status != 200) return -1;
  auto parsed = net::json::Value::parse(response.value().body);
  if (!parsed.ok()) return -1;
  const net::json::Value* degraded = parsed.value().find("degraded");
  const bool is_degraded =
      degraded != nullptr && degraded->is_bool() && degraded->as_bool();
  return is_degraded ? 1 : 0;
}

/// The dist smoke's fault probe: with a shard child down, the dist-router
/// parent must keep answering 200 with "degraded": true, and its metrics
/// must show the degradation was counted and the breaker opened. Polls
/// because the kill is racing the first scatter.
int verify_degraded(const std::string& host, unsigned short port,
                    unsigned k) {
  net::HttpClient client(host, port);
  for (int attempt = 0; attempt < 100; ++attempt) {
    const int state = post_degraded(client, k);
    const double degraded_total =
        scrape_metric(host, port, "gosh_remote_degraded_responses_total");
    const double breaker_total =
        scrape_metric(host, port, "gosh_remote_breaker_open_total");
    if (state == 1 && degraded_total > 0.0 && breaker_total > 0.0) {
      std::printf("degraded probe: partial merges annotated "
                  "(gosh_remote_degraded_responses_total %.0f, "
                  "gosh_remote_breaker_open_total %.0f)\n",
                  degraded_total, breaker_total);
      return 0;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  }
  std::fprintf(stderr,
               "error: no degraded answer with a counted breaker opening "
               "within 20 s of a shard going down\n");
  return 1;
}

/// The recovery probe: after the killed child restarts, the probe loop's
/// half-open breaker admission must restore clean full merges. Polls one
/// breaker cooldown + probe interval at a time.
int verify_recovered(const std::string& host, unsigned short port,
                     unsigned k) {
  net::HttpClient client(host, port);
  for (int attempt = 0; attempt < 150; ++attempt) {
    if (post_degraded(client, k) == 0) {
      std::printf("recovery probe: clean merges restored "
                  "(\"degraded\": false)\n");
      return 0;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  }
  std::fprintf(stderr,
               "error: merges still degraded 30 s after the shard child "
               "came back\n");
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  api::print_bench_banner("HTTP serving throughput (gosh::net front-end)");

  const auto rows = static_cast<vid_t>(
      api::require_flag_unsigned(argc, argv, "--rows", 20000));
  const auto dim = static_cast<unsigned>(
      api::require_flag_unsigned(argc, argv, "--dim", 64));
  const auto k =
      static_cast<unsigned>(api::require_flag_unsigned(argc, argv, "--k", 10));
  const auto requests = static_cast<std::size_t>(
      api::require_flag_unsigned(argc, argv, "--requests", 2000));
  const auto rate_qps = static_cast<double>(
      api::require_flag_unsigned(argc, argv, "--rate-qps", 0));
  const auto burst = static_cast<std::size_t>(
      api::require_flag_unsigned(argc, argv, "--burst", 1));
  const auto seed = api::require_flag_unsigned(argc, argv, "--seed", 1);
  const std::vector<std::string> concurrency_flags =
      api::flag_list(argc, argv, "--concurrency", {"1", "4", "8"});
  const std::string json_path = bench::json_flag(argc, argv);
  const std::string run_id = bench::run_id_flag(argc, argv);
  const std::string connect = flag_string(argc, argv, "--connect", "");
  const bool remote_shutdown = bool_flag(argc, argv, "--shutdown");
  const bool expect_traces = bool_flag(argc, argv, "--expect-traces");
  const bool expect_cache = bool_flag(argc, argv, "--expect-cache");
  const bool expect_degraded = bool_flag(argc, argv, "--expect-degraded");
  const bool expect_recovered = bool_flag(argc, argv, "--expect-recovered");
  const bool dist_phases = bool_flag(argc, argv, "--dist");
  const std::string trace_mode = flag_string(argc, argv, "--trace", "off");
  if (trace_mode != "on" && trace_mode != "off" && trace_mode != "sampled") {
    std::fprintf(stderr, "error: --trace wants on|off|sampled, got '%s'\n",
                 trace_mode.c_str());
    return 1;
  }
  const std::string zipf_flag = flag_string(argc, argv, "--zipf-s", "1.0");
  const auto zipf_parsed = api::parse_real(zipf_flag);
  if (!zipf_parsed.ok() || zipf_parsed.value() < 0.0) {
    std::fprintf(stderr, "error: --zipf-s wants a real >= 0, got '%s'\n",
                 zipf_flag.c_str());
    return 1;
  }
  const double zipf_s = zipf_parsed.value();
  if (burst < 1) {
    std::fprintf(stderr, "error: --burst wants a positive volley size\n");
    return 1;
  }

  std::vector<unsigned> concurrency_levels;
  for (const std::string& c : concurrency_flags) {
    auto parsed = api::parse_unsigned(c);
    if (!parsed.ok() || parsed.value() == 0) {
      std::fprintf(stderr, "error: --concurrency wants positive integers\n");
      return 1;
    }
    concurrency_levels.push_back(static_cast<unsigned>(parsed.value()));
  }
  unsigned max_concurrency = 1;
  for (const unsigned c : concurrency_levels) {
    max_concurrency = std::max(max_concurrency, c);
  }

  Rng rng(seed + 7);
  ZipfSampler zipf(rows, zipf_s, rng);
  std::vector<vid_t> probes(requests);
  for (vid_t& p : probes) p = zipf.sample(rng);

  const std::string isa_label(simd::isa_name(simd::active_isa()));
  std::vector<bench::Record> records;
  const auto shape_params = [&](unsigned concurrency, const char* transport) {
    std::vector<std::pair<std::string, std::string>> params;
    params.emplace_back("transport", transport);
    params.emplace_back("rows", std::to_string(rows));
    params.emplace_back("dim", std::to_string(dim));
    params.emplace_back("requests", std::to_string(requests));
    params.emplace_back("k", std::to_string(k));
    params.emplace_back("concurrency", std::to_string(concurrency));
    params.emplace_back("trace", trace_mode);
    params.emplace_back("zipf_s", zipf_flag);
    return params;
  };

  serving::MetricsRegistry client_metrics;

  // ---- Connect mode: drive an external gosh_serve and get out. ----------
  if (!connect.empty()) {
    const std::size_t colon = connect.rfind(':');
    unsigned long long port_value = 0;
    if (colon != std::string::npos) {
      auto port_parsed = api::parse_unsigned(connect.substr(colon + 1));
      if (port_parsed.ok()) port_value = port_parsed.value();
    }
    if (colon == std::string::npos || port_value == 0 || port_value > 65535) {
      std::fprintf(stderr, "error: --connect wants HOST:PORT, got '%s'\n",
                   connect.c_str());
      return 1;
    }
    const std::string host = connect.substr(0, colon);
    const auto port = static_cast<unsigned short>(port_value);

    if (int rc = wait_until_ready(host, port, /*timeout_ms=*/60000);
        rc != 0) {
      return rc;
    }
    net::HttpClient probe_client(host, port);

    // The fault probes replace the load phase: the dist smoke calls back
    // with one of these while a shard child is down (or freshly back) and
    // only needs the degradation verdict, not a throughput table.
    if (expect_degraded || expect_recovered) {
      if (expect_degraded) {
        if (int rc = verify_degraded(host, port, k); rc != 0) return rc;
      }
      if (expect_recovered) {
        if (int rc = verify_recovered(host, port, k); rc != 0) return rc;
      }
      return 0;
    }

    std::printf("\n%-12s %8s %12s %12s %12s %12s %8s\n", "transport",
                "conc", "queries/s", "p50 ms", "p99 ms", "p999 ms", "429s");
    for (const unsigned concurrency : concurrency_levels) {
      serving::Histogram& latency = client_metrics.histogram(
          "bench_http_latency_seconds_c" + std::to_string(concurrency));
      const LoadResult load =
          run_closed_loop(host, port, probes, k, concurrency, latency);
      if (load.failed > 0) {
        std::fprintf(stderr, "error: %llu requests failed\n",
                     static_cast<unsigned long long>(load.failed));
        return 1;
      }
      const double qps =
          (load.ok_2xx + load.shed_429) /
          (load.seconds > 0 ? load.seconds : 1e-9);
      std::printf("%-12s %8u %12.1f %12.4f %12.4f %12.4f %8llu\n", "http",
                  concurrency, qps, 1e3 * latency.quantile(0.5),
                  1e3 * latency.quantile(0.99),
                  1e3 * latency.quantile(0.999),
                  static_cast<unsigned long long>(load.shed_429));
      records.push_back({"serve_throughput", shape_params(concurrency, "http"),
                         qps, "queries/s", isa_label, concurrency});
    }
    if (int rc = scrape_metrics(host, port, /*print_summary=*/true); rc != 0) {
      return rc;
    }
    if (expect_traces) {
      if (int rc = verify_traces(host, port, k); rc != 0) return rc;
    }
    if (expect_cache) {
      if (int rc = verify_cache(host, port, k); rc != 0) return rc;
    }
    if (remote_shutdown) {
      auto stop = probe_client.post_json("/admin/shutdown", "{}");
      if (!stop.ok()) return fail(stop.status());
      if (stop.value().status != 200) {
        std::fprintf(stderr, "error: /admin/shutdown answered %d\n",
                     stop.value().status);
        return 1;
      }
      std::printf("shutdown requested\n");
    }
    if (!json_path.empty() &&
        !bench::write_report(json_path, "bench_serve_throughput", records,
                             run_id)) {
      return 1;
    }
    return 0;
  }

  // ---- Self-host mode. ----------------------------------------------------
  embedding::EmbeddingMatrix matrix(rows, dim);
  matrix.initialize_random(seed);
  const std::string store_path =
      (std::filesystem::temp_directory_path() /
       ("gosh_bench_serve_" + std::to_string(::getpid()) + ".store"))
          .string();
  if (api::Status status =
          store::EmbeddingStore::write(matrix, store_path, {});
      !status.is_ok()) {
    return fail(status);
  }

  serving::ServeOptions serve_options;
  serve_options.store_path = store_path;
  serve_options.strategy = "exact";
  serve_options.k = k;
  serve_options.verify_checksums = false;
  serving::MetricsRegistry server_metrics;
  auto service = serving::make_service(serve_options, &server_metrics);
  if (!service.ok()) return fail(service.status());

  // Baseline: the same probes through QueryService::serve directly — the
  // number the wire overhead is judged against.
  WallTimer timer;
  for (const vid_t probe : probes) {
    auto response =
        service.value()->serve(serving::QueryRequest::for_vertex(probe, k));
    if (!response.ok()) return fail(response.status());
  }
  const double inprocess_seconds = timer.seconds();
  const double inprocess_qps =
      requests / (inprocess_seconds > 0 ? inprocess_seconds : 1e-9);
  std::printf("\nin-process exact scan: %.1f queries/s (%u rows x %u dim)\n",
              inprocess_qps, rows, dim);
  records.push_back({"serve_throughput", shape_params(1, "inprocess"),
                     inprocess_qps, "queries/s", isa_label, 1});

  net::NetOptions net_options;
  net_options.host = "127.0.0.1";
  net_options.port = 0;
  net_options.threads = max_concurrency;
  // --trace prices the tracing layer: the server ctor wires the global
  // tracer from these knobs; "off" leaves the gate down so the measured
  // cost is the relaxed-atomic disabled check alone.
  if (trace_mode == "on") {
    net_options.trace_sample_rate = 1.0;
  } else if (trace_mode == "sampled") {
    net_options.trace_sample_rate = 0.01;
  } else {
    trace::Tracer::global().configure(trace::TraceOptions{});
  }
  net::QueryHandler handler(*service.value());
  net::HttpServer server(net_options, &server_metrics);
  server.handle("POST", "/v1/query", [&handler](const net::HttpRequest& r) {
    return handler.handle(r);
  });
  net::add_builtin_routes(server, server_metrics);
  if (api::Status status = server.start(); !status.is_ok()) {
    return fail(status);
  }

  // Queries per pass: growth of the exact strategy's pass counters (the
  // series /metrics exposes) over each concurrency level.
  serving::Counter& passes = server_metrics.counter("gosh_serving_batches_total");
  serving::Counter& pass_queries =
      server_metrics.counter("gosh_serving_batch_queries_total");
  std::printf("\n%-12s %8s %12s %12s %12s %12s %10s %8s\n", "transport",
              "conc", "queries/s", "p50 ms", "p99 ms", "p999 ms", "vs direct",
              "q/pass");
  double qps_at_max = 0.0;
  for (const unsigned concurrency : concurrency_levels) {
    serving::Histogram& latency = client_metrics.histogram(
        "bench_http_latency_seconds_c" + std::to_string(concurrency));
    const std::uint64_t passes_before = passes.value();
    const std::uint64_t queries_before = pass_queries.value();
    const LoadResult load = run_closed_loop("127.0.0.1", server.port(), probes,
                                            k, concurrency, latency);
    const std::uint64_t level_passes = passes.value() - passes_before;
    const double per_pass =
        level_passes > 0
            ? static_cast<double>(pass_queries.value() - queries_before) /
                  static_cast<double>(level_passes)
            : 0.0;
    if (load.failed > 0 || load.shed_429 > 0) {
      std::fprintf(stderr, "error: %llu failed / %llu shed with no limiter\n",
                   static_cast<unsigned long long>(load.failed),
                   static_cast<unsigned long long>(load.shed_429));
      server.shutdown();
      return 1;
    }
    const double qps =
        load.ok_2xx / (load.seconds > 0 ? load.seconds : 1e-9);
    if (concurrency == max_concurrency) qps_at_max = qps;
    std::printf("%-12s %8u %12.1f %12.4f %12.4f %12.4f %9.1f%% %8.2f\n",
                "http", concurrency, qps, 1e3 * latency.quantile(0.5),
                1e3 * latency.quantile(0.99), 1e3 * latency.quantile(0.999),
                100.0 * qps / inprocess_qps, per_pass);
    auto params = shape_params(concurrency, "http");
    char buffer[32];
    std::snprintf(buffer, sizeof buffer, "%.2f", per_pass);
    params.emplace_back("queries_per_pass", buffer);
    records.push_back({"serve_throughput", std::move(params), qps,
                       "queries/s", isa_label, concurrency});
  }
  std::printf("http at concurrency %u sustains %.1f%% of the in-process scan\n",
              max_concurrency, 100.0 * qps_at_max / inprocess_qps);
  if (int rc = scrape_metrics("127.0.0.1", server.port(),
                              /*print_summary=*/true);
      rc != 0) {
    server.shutdown();
    return rc;
  }
  server.shutdown();

  // ---- Distributed phases (--dist): remote, dist-router, then chaos. -----
  if (dist_phases) {
    const unsigned kShards = 3;
    const std::filesystem::path shard_dir =
        std::filesystem::temp_directory_path() /
        ("gosh_bench_serve_" + std::to_string(::getpid()) + ".shards");
    std::filesystem::create_directories(shard_dir);
    const std::string sharded_path = (shard_dir / "store.gshs").string();
    store::StoreOptions shard_layout;
    shard_layout.rows_per_shard = (rows + kShards - 1) / kShards;
    if (api::Status status =
            store::EmbeddingStore::write(matrix, sharded_path, shard_layout);
        !status.is_ok()) {
      return fail(status);
    }

    // One loopback backend: its own registry, service, handler, health
    // and HttpServer — what a gosh_serve child process holds, in-process
    // so the chaos phase can flip its FaultInjector mid-run.
    struct Backend {
      serving::MetricsRegistry metrics;
      std::unique_ptr<serving::QueryService> service;
      std::unique_ptr<net::QueryHandler> handler;
      net::HealthState health;
      std::unique_ptr<net::HttpServer> server;
    };
    const auto spawn_backend = [&](const serving::ServeOptions& options,
                                   std::uint64_t backend_rows)
        -> std::unique_ptr<Backend> {
      auto backend = std::make_unique<Backend>();
      auto backend_service = serving::make_service(options, &backend->metrics);
      if (!backend_service.ok()) {
        fail(backend_service.status());
        return nullptr;
      }
      backend->service = std::move(backend_service.value());
      backend->handler = std::make_unique<net::QueryHandler>(*backend->service);
      backend->server =
          std::make_unique<net::HttpServer>(net_options, &backend->metrics);
      net::QueryHandler* query_handler = backend->handler.get();
      backend->server->handle("POST", "/v1/query",
                              [query_handler](const net::HttpRequest& r) {
                                return query_handler->handle(r);
                              });
      net::add_builtin_routes(*backend->server, backend->metrics, nullptr,
                              &backend->health);
      if (api::Status status = backend->server->start(); !status.is_ok()) {
        fail(status);
        return nullptr;
      }
      backend->health.rows.store(backend_rows, std::memory_order_relaxed);
      backend->health.dim.store(dim, std::memory_order_relaxed);
      backend->health.shards.store(options.shard_count > 0 ? options.shard_count
                                                           : 1,
                                   std::memory_order_relaxed);
      backend->health.ready.store(true, std::memory_order_release);
      return backend;
    };

    std::vector<std::unique_ptr<Backend>> children;
    std::string backends_spec;
    for (unsigned s = 0; s < kShards; ++s) {
      serving::ServeOptions child_options = serve_options;
      child_options.store_path = sharded_path;
      child_options.shard_index = s;
      child_options.shard_count = kShards;
      const std::uint64_t begin = s * shard_layout.rows_per_shard;
      const std::uint64_t shard_rows =
          begin < rows ? std::min<std::uint64_t>(shard_layout.rows_per_shard,
                                                 rows - begin)
                       : 0;
      auto child = spawn_backend(child_options, shard_rows);
      if (child == nullptr) return 1;
      if (!backends_spec.empty()) backends_spec += ",";
      backends_spec += "127.0.0.1:" + std::to_string(child->server->port());
      children.push_back(std::move(child));
    }
    auto whole = spawn_backend(serve_options, rows);
    if (whole == nullptr) return 1;

    // Remote parent: every query forwarded to the whole-store child — the
    // wire cost of one extra hop, no scatter.
    serving::ServeOptions remote_options = serve_options;
    remote_options.strategy =
        "remote:127.0.0.1:" + std::to_string(whole->server->port());
    remote_options.remote_deadline_ms = 2000;
    serving::MetricsRegistry remote_metrics;
    auto remote_service = serving::make_service(remote_options, &remote_metrics);
    if (!remote_service.ok()) return fail(remote_service.status());
    net::QueryHandler remote_handler(*remote_service.value());
    net::HttpServer remote_parent(net_options, &remote_metrics);
    remote_parent.handle("POST", "/v1/query",
                         [&remote_handler](const net::HttpRequest& r) {
                           return remote_handler.handle(r);
                         });
    net::add_builtin_routes(remote_parent, remote_metrics);
    if (api::Status status = remote_parent.start(); !status.is_ok()) {
      return fail(status);
    }

    // Dist-router parent: 3-way scatter + k-way merge. The deadline here
    // is also the chaos phase's budget, so it is deliberately tight; the
    // breaker knobs make the stalled-shard phase shed fast and the
    // recovery probe converge in fractions of a second.
    serving::ServeOptions dist_options = serve_options;
    dist_options.store_path = sharded_path;
    dist_options.strategy = "dist-router";
    dist_options.backends = backends_spec;
    dist_options.remote_deadline_ms = 300;
    dist_options.remote_retries = 1;
    dist_options.breaker_failures = 2;
    dist_options.breaker_cooldown_ms = 500;
    dist_options.probe_interval_ms = 100;
    serving::MetricsRegistry dist_metrics;
    auto dist_service = serving::make_service(dist_options, &dist_metrics);
    if (!dist_service.ok()) return fail(dist_service.status());
    net::QueryHandler dist_handler(*dist_service.value());
    net::HttpServer dist_parent(net_options, &dist_metrics);
    dist_parent.handle("POST", "/v1/query",
                       [&dist_handler](const net::HttpRequest& r) {
                         return dist_handler.handle(r);
                       });
    net::add_builtin_routes(dist_parent, dist_metrics);
    if (api::Status status = dist_parent.start(); !status.is_ok()) {
      return fail(status);
    }

    const auto drive = [&](const char* transport, unsigned short port,
                           unsigned concurrency) -> bool {
      serving::Histogram& latency = client_metrics.histogram(
          std::string("bench_http_latency_seconds_") + transport + "_c" +
          std::to_string(concurrency));
      const LoadResult load =
          run_closed_loop("127.0.0.1", port, probes, k, concurrency, latency);
      if (load.failed > 0 || load.shed_429 > 0) {
        std::fprintf(stderr,
                     "error: %s phase saw %llu failed / %llu shed with every "
                     "backend healthy\n",
                     transport, static_cast<unsigned long long>(load.failed),
                     static_cast<unsigned long long>(load.shed_429));
        return false;
      }
      const double qps = load.ok_2xx / (load.seconds > 0 ? load.seconds : 1e-9);
      std::printf("%-12s %8u %12.1f %12.4f %12.4f %12.4f %9.1f%%\n", transport,
                  concurrency, qps, 1e3 * latency.quantile(0.5),
                  1e3 * latency.quantile(0.99), 1e3 * latency.quantile(0.999),
                  100.0 * qps / inprocess_qps);
      records.push_back({"serve_throughput",
                         shape_params(concurrency, transport), qps,
                         "queries/s", isa_label, concurrency});
      return true;
    };

    std::printf("\n%-12s %8s %12s %12s %12s %12s %10s\n", "transport", "conc",
                "queries/s", "p50 ms", "p99 ms", "p999 ms", "vs direct");
    for (const unsigned concurrency : concurrency_levels) {
      if (!drive("remote", remote_parent.port(), concurrency)) return 1;
    }
    for (const unsigned concurrency : concurrency_levels) {
      if (!drive("dist-router", dist_parent.port(), concurrency)) return 1;
    }

    // ---- Chaos phase: stall shard 0 mid-run, keep serving. ---------------
    // Every answer must still land 200 inside the scatter deadline with the
    // partial merge annotated; the breaker opening is what keeps the tail
    // bounded (without it every request would queue behind the stall).
    net::FaultOptions stall;
    stall.stall_rate = 1.0;
    children[0]->server->fault_injector().configure(stall);
    const std::size_t chaos_requests = std::min<std::size_t>(requests, 256);
    const std::vector<vid_t> chaos_probes(probes.begin(),
                                          probes.begin() + chaos_requests);
    serving::Histogram& chaos_latency =
        client_metrics.histogram("bench_http_latency_seconds_dist_degraded");
    const LoadResult chaos_load =
        run_closed_loop("127.0.0.1", dist_parent.port(), chaos_probes, k,
                        max_concurrency, chaos_latency);
    if (chaos_load.failed > 0) {
      std::fprintf(stderr,
                   "error: %llu requests failed outright with one shard "
                   "stalled — degradation should answer 200\n",
                   static_cast<unsigned long long>(chaos_load.failed));
      return 1;
    }
    const double degraded_total = scrape_metric(
        "127.0.0.1", dist_parent.port(), "gosh_remote_degraded_responses_total");
    const double breaker_total = scrape_metric(
        "127.0.0.1", dist_parent.port(), "gosh_remote_breaker_open_total");
    if (degraded_total <= 0.0 || breaker_total <= 0.0) {
      std::fprintf(stderr,
                   "error: chaos phase left no metric trail (degraded %.0f, "
                   "breaker openings %.0f)\n",
                   degraded_total, breaker_total);
      return 1;
    }
    const double chaos_qps =
        chaos_load.ok_2xx /
        (chaos_load.seconds > 0 ? chaos_load.seconds : 1e-9);
    const double chaos_p999_ms = 1e3 * chaos_latency.quantile(0.999);
    const double bound_ms = 4.0 * dist_options.remote_deadline_ms;
    std::printf(
        "\nchaos phase: shard 0 stalled, %llu/%zu answered 200 at %.1f q/s — "
        "p50 %.1f ms / p99 %.1f ms / p999 %.1f ms (deadline %u ms), "
        "%.0f degraded answers, %.0f breaker openings\n",
        static_cast<unsigned long long>(chaos_load.ok_2xx), chaos_requests,
        chaos_qps, 1e3 * chaos_latency.quantile(0.5),
        1e3 * chaos_latency.quantile(0.99), chaos_p999_ms,
        dist_options.remote_deadline_ms, degraded_total, breaker_total);
    if (chaos_p999_ms > bound_ms) {
      std::fprintf(stderr,
                   "error: chaos-phase p999 %.1f ms blew the %.0f ms bound — "
                   "the stalled shard is not being shed\n",
                   chaos_p999_ms, bound_ms);
      return 1;
    }
    auto chaos_params = shape_params(max_concurrency, "dist-degraded");
    chaos_params.emplace_back("deadline_ms",
                              std::to_string(dist_options.remote_deadline_ms));
    chaos_params.emplace_back("degraded_responses",
                              std::to_string(static_cast<std::uint64_t>(
                                  degraded_total)));
    records.push_back({"serve_throughput", chaos_params, chaos_qps,
                       "queries/s", isa_label, max_concurrency});

    // Un-stall and confirm clean full merges come back through the
    // half-open breaker — the recovery half of the fault story.
    children[0]->server->fault_injector().configure(net::FaultOptions{});
    if (int rc = verify_recovered("127.0.0.1", dist_parent.port(), k);
        rc != 0) {
      return rc;
    }

    dist_parent.shutdown();
    remote_parent.shutdown();
    whole->server->shutdown();
    for (auto& child : children) child->server->shutdown();
    std::filesystem::remove_all(shard_dir);
  }

  // ---- Shed phase: a rate-limited twin takes 2x its sustained rate. ------
  if (rate_qps > 0) {
    net::NetOptions limited = net_options;
    limited.rate_qps = rate_qps;
    // A one-second default burst would absorb the whole overload window;
    // cap it at a tenth of the rate so admission control actually bites.
    limited.burst = std::max(1.0, rate_qps / 10.0);
    net::HttpServer shed_server(limited, &server_metrics);
    shed_server.handle("POST", "/v1/query",
                       [&handler](const net::HttpRequest& r) {
                         return handler.handle(r);
                       });
    net::add_builtin_routes(shed_server, server_metrics);
    if (api::Status status = shed_server.start(); !status.is_ok()) {
      return fail(status);
    }
    serving::Histogram& latency =
        client_metrics.histogram("bench_http_latency_seconds_shed");
    const std::size_t shed_requests =
        std::min<std::size_t>(requests, static_cast<std::size_t>(
                                            std::max(2.0 * rate_qps, 16.0)));
    const std::vector<vid_t> shed_probes(probes.begin(),
                                         probes.begin() + shed_requests);
    const LoadResult load =
        run_open_loop("127.0.0.1", shed_server.port(), shed_probes, k,
                      2.0 * rate_qps, burst, latency);
    // The sheds must show up on the wire-visible side too: scrape the
    // limited server's /metrics and find a nonzero rate-limited counter.
    {
      net::HttpClient scraper("127.0.0.1", shed_server.port());
      auto response = scraper.get("/metrics");
      if (!response.ok() || response.value().status != 200) {
        shed_server.shutdown();
        std::fprintf(stderr, "error: shed-phase /metrics scrape failed\n");
        return 1;
      }
      const std::string& body = response.value().body;
      // Leading '\n' skips the "# TYPE ..." line and lands on the sample.
      const char* needle = "\ngosh_http_rate_limited_total ";
      const std::size_t at = body.find(needle);
      if (at == std::string::npos ||
          std::strtod(body.c_str() + at + std::strlen(needle), nullptr) <=
              0.0) {
        shed_server.shutdown();
        std::fprintf(stderr,
                     "error: gosh_http_rate_limited_total is missing or zero "
                     "in /metrics after the shed phase\n");
        return 1;
      }
    }
    shed_server.shutdown();
    if (load.failed > 0) {
      std::fprintf(stderr, "error: %llu requests failed in the shed phase\n",
                   static_cast<unsigned long long>(load.failed));
      return 1;
    }
    const double offered =
        (load.ok_2xx + load.shed_429) / (load.seconds > 0 ? load.seconds : 1e-9);
    std::printf(
        "\nshed phase: offered %.1f q/s against --rate-qps %.0f "
        "(volleys of %zu) -> %llu answered, %llu shed 429 (%.1f%%)\n",
        offered, rate_qps, burst,
        static_cast<unsigned long long>(load.ok_2xx),
        static_cast<unsigned long long>(load.shed_429),
        100.0 * load.shed_429 /
            std::max<std::uint64_t>(load.ok_2xx + load.shed_429, 1));
    std::printf("shed-phase client latency: p50 %.4f ms / p99 %.4f ms / "
                "p999 %.4f ms\n",
                1e3 * latency.quantile(0.5), 1e3 * latency.quantile(0.99),
                1e3 * latency.quantile(0.999));
    if (load.shed_429 == 0) {
      std::fprintf(stderr,
                   "error: open loop at 2x the sustained rate shed nothing — "
                   "the limiter is not limiting\n");
      return 1;
    }
    auto params = shape_params(1, "http");
    params.emplace_back("rate_qps", std::to_string(rate_qps));
    params.emplace_back("burst", std::to_string(burst));
    records.push_back({"serve_shed_429", params,
                       static_cast<double>(load.shed_429), "responses",
                       isa_label, 1});
  }

  std::filesystem::remove(store_path);
  if (!json_path.empty()) {
    if (!bench::write_report(json_path, "bench_serve_throughput", records,
                             run_id)) {
      return 1;
    }
    std::printf("json report: %s (%zu records)\n", json_path.c_str(),
                records.size());
  }
  return 0;
}
