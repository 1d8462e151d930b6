// ReplicaSet + RemoteService — the fault-tolerance layer under the
// "remote:" strategy: backend-spec parsing, the circuit breaker state
// machine, retry/hedge behavior against live and dead in-process
// backends, and the remote wire answering bit-identically to the local
// strategy it forwards to (suites ReplicaSet* / RemoteService* are in
// the TSan CI filter).
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "child_server.hpp"
#include "gosh/serving/remote.hpp"

namespace gosh::serving {
namespace {

// ---- parse_backends -------------------------------------------------------

TEST(ReplicaSet, ParseBackendsInlineForms) {
  auto flat = parse_backends("127.0.0.1:8001");
  ASSERT_TRUE(flat.ok()) << flat.status().to_string();
  ASSERT_EQ(flat.value().size(), 1u);
  ASSERT_EQ(flat.value()[0].size(), 1u);
  EXPECT_EQ(flat.value()[0][0].label(), "127.0.0.1:8001");

  // ',' separates shard groups, '|' separates replicas within one, and
  // whitespace around entries is noise.
  auto groups = parse_backends("h1:1, h2:2|h3:3 ,h4:4");
  ASSERT_TRUE(groups.ok()) << groups.status().to_string();
  ASSERT_EQ(groups.value().size(), 3u);
  EXPECT_EQ(groups.value()[0].size(), 1u);
  ASSERT_EQ(groups.value()[1].size(), 2u);
  EXPECT_EQ(groups.value()[1][0].label(), "h2:2");
  EXPECT_EQ(groups.value()[1][1].label(), "h3:3");
  EXPECT_EQ(groups.value()[2][0].label(), "h4:4");
}

TEST(ReplicaSet, ParseBackendsRejectsMalformedSpecs) {
  EXPECT_FALSE(parse_backends("").ok());
  EXPECT_FALSE(parse_backends("  ").ok());
  EXPECT_FALSE(parse_backends("no-port-here").ok());
  EXPECT_FALSE(parse_backends(":8080").ok());
  EXPECT_FALSE(parse_backends("host:").ok());
  EXPECT_FALSE(parse_backends("host:0").ok());
  EXPECT_FALSE(parse_backends("host:70000").ok());
  EXPECT_FALSE(parse_backends("host:12x").ok());
  EXPECT_FALSE(parse_backends("h1:1,|").ok());  // empty group
}

TEST(ReplicaSet, ParseBackendsFileForm) {
  const std::string path = testing::TempDir() + "backends.txt";
  {
    std::ofstream out(path);
    out << "# shard children\n"
        << "127.0.0.1:9001 | 127.0.0.1:9002   # shard 0 replicas\n"
        << "\n"
        << "127.0.0.1:9003\n";
  }
  auto groups = parse_backends(path);
  std::remove(path.c_str());
  ASSERT_TRUE(groups.ok()) << groups.status().to_string();
  ASSERT_EQ(groups.value().size(), 2u);
  ASSERT_EQ(groups.value()[0].size(), 2u);
  EXPECT_EQ(groups.value()[0][1].label(), "127.0.0.1:9002");
  EXPECT_EQ(groups.value()[1][0].label(), "127.0.0.1:9003");
}

// ---- CircuitBreaker -------------------------------------------------------

TEST(ReplicaSet, BreakerOpensAfterConsecutiveFailures) {
  CircuitBreaker breaker(/*failure_threshold=*/3, /*cooldown_ns=*/1000);
  std::uint64_t now = 10;
  EXPECT_TRUE(breaker.allow(now));
  EXPECT_FALSE(breaker.on_result(false, now));
  EXPECT_FALSE(breaker.on_result(false, now));
  // A success mid-streak resets the count: failures must be CONSECUTIVE.
  EXPECT_FALSE(breaker.on_result(true, now));
  EXPECT_EQ(breaker.consecutive_failures(), 0u);
  EXPECT_FALSE(breaker.on_result(false, now));
  EXPECT_FALSE(breaker.on_result(false, now));
  // The third consecutive failure transitions closed -> open; only the
  // transitioning call reports true (the metric fires once per opening).
  EXPECT_TRUE(breaker.on_result(false, now));
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_FALSE(breaker.allow(now + 500));  // still cooling down
}

TEST(ReplicaSet, BreakerHalfOpenAdmitsExactlyOneProbe) {
  CircuitBreaker breaker(1, 1000);
  EXPECT_TRUE(breaker.on_result(false, 0));  // opens at t=0
  EXPECT_FALSE(breaker.allow(999));
  EXPECT_TRUE(breaker.allow(1000));  // cooldown over: the probe
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);
  EXPECT_FALSE(breaker.allow(1001));  // second caller waits for the probe
  // The probe succeeding closes the breaker for everyone.
  EXPECT_FALSE(breaker.on_result(true, 1002));
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_TRUE(breaker.allow(1003));
}

TEST(ReplicaSet, BreakerReopensWhenTheProbeFails) {
  CircuitBreaker breaker(1, 1000);
  EXPECT_TRUE(breaker.on_result(false, 0));
  EXPECT_TRUE(breaker.allow(1500));  // half-open probe admitted
  // The probe failing re-opens — and reports the transition again.
  EXPECT_TRUE(breaker.on_result(false, 1500));
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_FALSE(breaker.allow(2000));   // new cooldown from t=1500
  EXPECT_TRUE(breaker.allow(2500));    // ... admits the next probe
}

// ---- ReplicaSet against live/dead backends --------------------------------

constexpr const char* kQueryBody = R"({"queries": [{"vertex": 1}], "k": 3})";

/// One small flat store every remote test serves.
struct FlatFixture {
  std::string path;
  vid_t rows = 40;
  unsigned dim = 5;

  FlatFixture() {
    embedding::EmbeddingMatrix matrix(rows, dim);
    matrix.initialize_random(17);
    // getpid(): concurrent `ctest -j` test processes must not rewrite
    // (truncate) a store another one has mapped.
    path = testing::TempDir() + "remote_flat_" + std::to_string(::getpid()) +
           ".gshs";
    EXPECT_TRUE(store::EmbeddingStore::write(matrix, path, {}).is_ok());
  }
  ~FlatFixture() { std::remove(path.c_str()); }

  ServeOptions options() const {
    ServeOptions serve;
    serve.store_path = path;
    serve.strategy = "exact";
    serve.k = 5;
    return serve;
  }
};

/// A loopback port that is bound, then released — nothing answers there.
unsigned short dead_port(const FlatFixture& fx) {
  ChildServer ephemeral(fx.options());
  return ephemeral.port();
}

TEST(ReplicaSet, RetriesOntoASecondBackend) {
  FlatFixture fx;
  ChildServer live(fx.options());
  const unsigned short dead = dead_port(fx);

  ReplicaOptions options;
  options.deadline_ms = 3000;
  options.retries = 2;
  options.hedge_after_ms = 0;
  options.probe_interval_ms = 0;
  MetricsRegistry metrics;
  // Round-robin starts at the dead backend, so the first attempt fails
  // (connection refused) and the retry must land on the live replica.
  ReplicaSet set({Endpoint{"127.0.0.1", dead}, live.endpoint()}, options,
                 &metrics);
  CallStats stats;
  auto response = set.call("/v1/query", kQueryBody, &stats);
  ASSERT_TRUE(response.ok()) << response.status().to_string();
  EXPECT_EQ(response.value().status, 200);
  EXPECT_GE(stats.retries, 1u);
  EXPECT_EQ(stats.backend, live.endpoint().label());
  EXPECT_TRUE(stats.error.empty());
  EXPECT_GE(metrics.counter("gosh_remote_retries_total").value(), 1u);
}

TEST(ReplicaSet, BreakerOpensAndShedsTrafficFast) {
  FlatFixture fx;
  const unsigned short dead = dead_port(fx);

  ReplicaOptions options;
  options.deadline_ms = 500;
  options.retries = 0;
  options.breaker_failures = 2;
  options.breaker_cooldown_ms = 60000;  // stays open for the whole test
  options.probe_interval_ms = 0;
  MetricsRegistry metrics;
  ReplicaSet set({Endpoint{"127.0.0.1", dead}}, options, &metrics);

  EXPECT_FALSE(set.call("/v1/query", kQueryBody).ok());
  EXPECT_FALSE(set.call("/v1/query", kQueryBody).ok());
  EXPECT_EQ(set.breaker_state(0), CircuitBreaker::State::kOpen);
  EXPECT_EQ(metrics.counter("gosh_remote_breaker_open_total").value(), 1u);

  // With the only breaker open, calls shed without dialing at all.
  CallStats stats;
  auto shed = set.call("/v1/query", kQueryBody, &stats);
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), api::StatusCode::kUnavailable);
}

TEST(ReplicaSet, HedgesOntoAQuietBackend) {
  FlatFixture fx;
  // Backend 0 stalls every request (deterministic chaos); backend 1 is
  // healthy. The hedge must rescue the call well inside the deadline.
  ChildServer stalled(fx.options(), net::FaultOptions{.stall_rate = 1.0});
  ChildServer fast(fx.options());

  ReplicaOptions options;
  options.deadline_ms = 1500;
  options.retries = 0;
  options.hedge_after_ms = 40;
  options.probe_interval_ms = 0;
  MetricsRegistry metrics;
  ReplicaSet set({stalled.endpoint(), fast.endpoint()}, options, &metrics);
  CallStats stats;
  auto response = set.call("/v1/query", kQueryBody, &stats);
  ASSERT_TRUE(response.ok()) << response.status().to_string();
  EXPECT_EQ(response.value().status, 200);
  EXPECT_TRUE(stats.hedged);
  EXPECT_EQ(stats.backend, fast.endpoint().label());
  EXPECT_EQ(metrics.counter("gosh_remote_hedges_total").value(), 1u);
}

TEST(ReplicaSet, ProbeLoopMarksDeadBackendsUnhealthy) {
  FlatFixture fx;
  ChildServer live(fx.options());
  const unsigned short dead = dead_port(fx);

  ReplicaOptions options;
  options.deadline_ms = 300;
  options.probe_interval_ms = 0;  // drive probes by hand, deterministically
  options.breaker_failures = 1;
  options.breaker_cooldown_ms = 60000;
  ReplicaSet set({Endpoint{"127.0.0.1", dead}, live.endpoint()}, options,
                 nullptr);
  EXPECT_EQ(set.healthy_count(), 2u);  // optimistic until probed
  set.probe_now();
  EXPECT_EQ(set.healthy_count(), 1u);
  EXPECT_EQ(set.breaker_state(0), CircuitBreaker::State::kOpen);
  EXPECT_EQ(set.breaker_state(1), CircuitBreaker::State::kClosed);
}

// ---- RemoteService --------------------------------------------------------

void expect_identical(const std::vector<query::Neighbor>& got,
                      const std::vector<query::Neighbor>& expected,
                      const std::string& what) {
  ASSERT_EQ(got.size(), expected.size()) << what;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(got[i].id, expected[i].id) << what << " rank " << i;
    EXPECT_FLOAT_EQ(got[i].score, expected[i].score) << what << " rank " << i;
  }
}

TEST(RemoteService, AnswersBitIdenticalToTheLocalStrategy) {
  FlatFixture fx;
  ChildServer child(fx.options());

  ServeOptions options = fx.options();
  options.remote_deadline_ms = 3000;
  auto remote = RemoteService::open({child.endpoint()}, options, nullptr);
  ASSERT_TRUE(remote.ok()) << remote.status().to_string();
  // Geometry was learned from the child's /healthz.
  EXPECT_EQ(remote.value()->rows(), fx.rows);
  EXPECT_EQ(remote.value()->dim(), fx.dim);
  EXPECT_EQ(remote.value()->strategy_name(), "remote");

  auto exact = make_service(fx.options());
  ASSERT_TRUE(exact.ok());

  for (const vid_t probe : {0u, 7u, 19u, 39u}) {
    auto over_the_wire = remote.value()->top_k_vertex(probe, 5);
    auto local = exact.value()->top_k_vertex(probe, 5);
    ASSERT_TRUE(over_the_wire.ok()) << over_the_wire.status().to_string();
    ASSERT_TRUE(local.ok());
    // float -> JSON double -> float is exact, so the wire changes nothing.
    expect_identical(over_the_wire.value(), local.value(),
                     "vertex " + std::to_string(probe));
  }

  auto vec = exact.value()->row_vector(11);
  ASSERT_TRUE(vec.ok());
  auto a = remote.value()->top_k(vec.value(), 5);
  auto b = exact.value()->top_k(vec.value(), 5);
  ASSERT_TRUE(a.ok() && b.ok());
  expect_identical(a.value(), b.value(), "raw vector");
}

TEST(RemoteService, ForwardsRangeFiltersAndRejectsOpaqueOnes) {
  FlatFixture fx;
  ChildServer child(fx.options());
  ServeOptions options = fx.options();
  options.remote_deadline_ms = 3000;
  auto remote = RemoteService::open({child.endpoint()}, options, nullptr);
  ASSERT_TRUE(remote.ok()) << remote.status().to_string();
  auto exact = make_service(fx.options());
  ASSERT_TRUE(exact.ok());

  QueryRequest request = QueryRequest::for_vertex(3, 5);
  request.filter = [](vid_t v) { return v >= 10 && v < 30; };
  request.filter_begin = 10;
  request.filter_end = 30;
  auto got = remote.value()->serve(request);
  auto expected = exact.value()->serve(request);
  ASSERT_TRUE(got.ok()) << got.status().to_string();
  ASSERT_TRUE(expected.ok());
  expect_identical(got.value().results.front(),
                   expected.value().results.front(), "range filter");
  EXPECT_FALSE(got.value().degraded);
  ASSERT_EQ(got.value().shards.size(), 1u);
  EXPECT_TRUE(got.value().shards.front().ok);
  EXPECT_EQ(got.value().shards.front().backend, child.endpoint().label());

  // An arbitrary predicate without its range does not serialize.
  QueryRequest opaque = QueryRequest::for_vertex(3, 5);
  opaque.filter = [](vid_t v) { return v % 2 == 0; };
  auto refused = remote.value()->serve(opaque);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), api::StatusCode::kInvalidArgument);
}

TEST(RemoteService, RegistryPrefixFormComposes) {
  FlatFixture fx;
  ChildServer child(fx.options());

  ServeOptions options = fx.options();
  options.strategy = "remote:127.0.0.1:" + std::to_string(child.port());
  options.remote_deadline_ms = 3000;
  auto service = make_service(options);
  ASSERT_TRUE(service.ok()) << service.status().to_string();
  EXPECT_EQ(service.value()->strategy_name(), "remote");
  auto answer = service.value()->top_k_vertex(2, 4);
  ASSERT_TRUE(answer.ok()) << answer.status().to_string();
  EXPECT_EQ(answer.value().size(), 4u);

  // The sugar without endpoints is diagnosed, not crashed on.
  ServeOptions bare = fx.options();
  bare.strategy = "remote:";
  EXPECT_FALSE(make_service(bare).ok());
}

TEST(RemoteService, FailsUnavailableWhenEveryReplicaIsDown) {
  FlatFixture fx;
  const unsigned short dead = dead_port(fx);
  ServeOptions options = fx.options();
  options.remote_deadline_ms = 400;
  options.remote_retries = 0;
  options.probe_interval_ms = 0;
  auto remote =
      RemoteService::open({Endpoint{"127.0.0.1", dead}}, options, nullptr);
  // Geometry comes from the local store when no backend answers /healthz,
  // so open() still succeeds — serving is what degrades.
  ASSERT_TRUE(remote.ok()) << remote.status().to_string();
  EXPECT_EQ(remote.value()->rows(), fx.rows);
  auto answer = remote.value()->top_k_vertex(1, 3);
  ASSERT_FALSE(answer.ok());
  EXPECT_EQ(answer.status().code(), api::StatusCode::kUnavailable);
}

}  // namespace
}  // namespace gosh::serving
