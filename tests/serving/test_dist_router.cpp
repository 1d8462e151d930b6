// DistRouter — scatter to remote shard children must be indistinguishable
// from one exact scan of the unsharded store when every shard answers
// (same ids, same scores, same (score desc, id asc) tie handling, under
// every metric), degrade to an annotated partial merge when one dies, and
// recover bit-identically once the child is back (suite DistRouter* is in
// the TSan CI filter).
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "child_server.hpp"
#include "gosh/serving/dist_router.hpp"

namespace gosh::serving {
namespace {

/// One matrix written sharded (3 shards: [0, 34), [34, 68), [68, 99)) and
/// flat, with deliberate cross-shard duplicate rows so merges carry score
/// ties the (score desc, id asc) order must break identically on both
/// sides of the wire: whichever shard served a tie, the lower id wins.
struct DistFixture {
  std::string sharded_path;
  std::string flat_path;
  std::uint32_t shard_count;
  vid_t rows;
  unsigned dim;

  explicit DistFixture(vid_t rows_in = 99, unsigned dim_in = 7)
      : rows(rows_in), dim(dim_in) {
    embedding::EmbeddingMatrix matrix(rows, dim);
    matrix.initialize_random(31);
    const vid_t third = rows / 3;
    for (vid_t v = 0; v + third < rows; v += 10) {
      const auto src = matrix.row(v);
      auto dst = matrix.row(v + third);
      std::copy(src.begin(), src.end(), dst.begin());
    }
    // getpid(): concurrent `ctest -j` test processes must not rewrite
    // (truncate) a store another one has mapped.
    const std::string base =
        testing::TempDir() + "dist_router_" + std::to_string(::getpid());
    sharded_path = base + ".sharded.gshs";
    flat_path = base + ".flat.gshs";
    const std::uint64_t per_shard = rows / 3 + 1;
    shard_count =
        static_cast<std::uint32_t>((rows + per_shard - 1) / per_shard);
    EXPECT_TRUE(store::EmbeddingStore::write(matrix, sharded_path,
                                             {.rows_per_shard = per_shard})
                    .is_ok());
    EXPECT_TRUE(store::EmbeddingStore::write(matrix, flat_path, {}).is_ok());
  }

  ~DistFixture() {
    for (std::uint32_t s = 0; s < shard_count; ++s) {
      std::remove(
          store::EmbeddingStore::shard_path(sharded_path, s, shard_count)
              .c_str());
    }
    std::remove(flat_path.c_str());
  }

  /// What one shard child serves: its slice of the sharded store, in
  /// LOCAL ids — exactly `gosh_serve --shard s/N`.
  ServeOptions child_options(unsigned shard) const {
    ServeOptions serve;
    serve.store_path = sharded_path;
    serve.strategy = "exact";
    serve.shard_index = shard;
    serve.shard_count = shard_count;
    serve.k = 12;
    return serve;
  }

  /// The reference: one exact engine over the unsharded store.
  ServeOptions flat_options() const {
    ServeOptions serve;
    serve.store_path = flat_path;
    serve.strategy = "exact";
    serve.k = 12;
    return serve;
  }

  /// The dist-router parent's options; timings tuned so a dead child
  /// fails fast and the breaker can be closed again within a test.
  ServeOptions parent_options() const {
    ServeOptions serve;
    serve.store_path = sharded_path;
    serve.k = 12;
    serve.remote_deadline_ms = 3000;
    serve.remote_retries = 0;
    serve.breaker_failures = 1;
    serve.breaker_cooldown_ms = 50;
    serve.probe_interval_ms = 0;  // recovery is driven by probe_now()
    return serve;
  }
};

/// The three in-process shard children most tests scatter over.
struct ChildSet {
  std::vector<std::unique_ptr<ChildServer>> children;

  explicit ChildSet(const DistFixture& fx, unsigned http_threads = 2) {
    for (std::uint32_t s = 0; s < fx.shard_count; ++s) {
      children.push_back(std::make_unique<ChildServer>(
          fx.child_options(s), net::FaultOptions{}, http_threads));
    }
  }

  std::vector<std::vector<Endpoint>> groups() const {
    std::vector<std::vector<Endpoint>> groups;
    for (const auto& child : children) {
      groups.push_back({child->endpoint()});
    }
    return groups;
  }

  std::string backends_spec() const {
    std::string spec;
    for (const auto& child : children) {
      if (!spec.empty()) spec += ",";
      spec += child->endpoint().label();
    }
    return spec;
  }
};

void expect_identical(const std::vector<query::Neighbor>& got,
                      const std::vector<query::Neighbor>& expected,
                      const std::string& what) {
  ASSERT_EQ(got.size(), expected.size()) << what;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(got[i].id, expected[i].id) << what << " rank " << i;
    EXPECT_FLOAT_EQ(got[i].score, expected[i].score) << what << " rank " << i;
  }
}

/// Tie-heavy vertex probes (duplicated rows 0/33, 10/43) and shard-edge
/// ids.
constexpr vid_t kProbes[] = {0, 10, 32, 33, 43, 98};

TEST(DistRouter, MatchesTheExactScanBitIdentically) {
  DistFixture fx;
  ChildSet set(fx);
  MetricsRegistry metrics;
  auto dist = DistRouter::open(set.groups(), fx.parent_options(), &metrics);
  ASSERT_TRUE(dist.ok()) << dist.status().to_string();
  EXPECT_EQ(dist.value()->shard_count(), fx.shard_count);
  EXPECT_EQ(dist.value()->rows(), fx.rows);
  EXPECT_EQ(dist.value()->dim(), fx.dim);

  auto exact = make_service(fx.flat_options());
  ASSERT_TRUE(exact.ok()) << exact.status().to_string();

  // Rows resolve from the owning shard's file on both sides of each edge.
  auto flat = store::EmbeddingStore::open(fx.flat_path);
  ASSERT_TRUE(flat.ok()) << flat.status().to_string();
  for (const vid_t v : {0u, 33u, 34u, 67u, 68u, 98u}) {
    auto row = dist.value()->row_vector(v);
    ASSERT_TRUE(row.ok()) << "vertex " << v;
    const auto expected = flat.value().row(v);
    ASSERT_EQ(row.value().size(), expected.size());
    for (std::size_t d = 0; d < expected.size(); ++d) {
      EXPECT_EQ(row.value()[d], expected[d]) << "vertex " << v;
    }
  }
  EXPECT_FALSE(dist.value()->row_vector(fx.rows).ok());

  // Every metric rides request.metric to the children; each request
  // scatters to every shard exactly once.
  Counter& scatters = metrics.counter("gosh_serving_router_scatters_total");
  const auto expect_same = [&](const QueryRequest& request,
                               const std::string& what) {
    const std::uint64_t before = scatters.value();
    auto remote = dist.value()->serve(request);
    auto local = exact.value()->serve(request);
    ASSERT_TRUE(remote.ok()) << what << ": " << remote.status().to_string();
    ASSERT_TRUE(local.ok()) << what << ": " << local.status().to_string();
    EXPECT_FALSE(remote.value().degraded) << what;
    expect_identical(remote.value().results.front(),
                     local.value().results.front(), what);
    EXPECT_EQ(scatters.value(), before + fx.shard_count) << what;
  };
  auto vec = exact.value()->row_vector(50);
  ASSERT_TRUE(vec.ok());
  for (const query::Metric metric :
       {query::Metric::kCosine, query::Metric::kDot, query::Metric::kL2}) {
    const std::string name(query::metric_name(metric));
    for (const vid_t probe : kProbes) {
      QueryRequest request = QueryRequest::for_vertex(probe, 12);
      request.metric = metric;
      expect_same(request, name + " vertex " + std::to_string(probe));
    }
    QueryRequest raw = QueryRequest::for_vector(vec.value(), 12);
    raw.metric = metric;
    expect_same(raw, name + " raw vector");
  }

  // A healthy scatter is not degraded, and says who answered each shard.
  auto response = dist.value()->serve(QueryRequest::for_vertex(5, 12));
  ASSERT_TRUE(response.ok());
  EXPECT_FALSE(response.value().degraded);
  ASSERT_EQ(response.value().shards.size(), fx.shard_count);
  for (std::uint32_t s = 0; s < fx.shard_count; ++s) {
    EXPECT_TRUE(response.value().shards[s].ok) << "shard " << s;
    EXPECT_EQ(response.value().shards[s].backend,
              set.children[s]->endpoint().label());
  }
  EXPECT_EQ(metrics.counter("gosh_remote_degraded_responses_total").value(),
            0u);
}

TEST(DistRouter, ConcurrentServeMatchesTheExactScan) {
  constexpr int kSubmitters = 4;
  DistFixture fx;
  ChildSet set(fx, /*http_threads=*/kSubmitters);
  auto dist = DistRouter::open(set.groups(), fx.parent_options(), nullptr);
  ASSERT_TRUE(dist.ok()) << dist.status().to_string();
  auto exact = make_service(fx.flat_options());
  ASSERT_TRUE(exact.ok()) << exact.status().to_string();

  std::vector<std::vector<query::Neighbor>> expected;
  for (const vid_t probe : kProbes) {
    auto answer = exact.value()->top_k_vertex(probe, 12);
    ASSERT_TRUE(answer.ok());
    expected.push_back(std::move(answer).value());
  }

  // The submitters share the router and its replica sets; every answer
  // must still be the exact scan's.
  std::vector<std::thread> threads;
  for (int t = 0; t < kSubmitters; ++t) {
    threads.emplace_back([&dist, &expected, t] {
      for (int round = 0; round < 5; ++round) {
        for (std::size_t p = 0; p < std::size(kProbes); ++p) {
          auto answer = dist.value()->top_k_vertex(kProbes[p], 12);
          ASSERT_TRUE(answer.ok()) << answer.status().to_string();
          expect_identical(answer.value(), expected[p],
                           "thread " + std::to_string(t) + " vertex " +
                               std::to_string(kProbes[p]));
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
}

TEST(DistRouter, FiltersSpanningShardBoundariesSpeakGlobalIds) {
  DistFixture fx;
  ChildSet set(fx);
  auto dist = DistRouter::open(set.groups(), fx.parent_options(), nullptr);
  ASSERT_TRUE(dist.ok()) << dist.status().to_string();
  auto exact = make_service(fx.flat_options());
  ASSERT_TRUE(exact.ok());

  // [40, 80) straddles shard 1 and shard 2; the scatter must rebase the
  // range per child and skip shard 0 entirely.
  QueryRequest request = QueryRequest::for_vertex(2, 20);
  request.filter = [](vid_t v) { return v >= 40 && v < 80; };
  request.filter_begin = 40;
  request.filter_end = 80;
  auto got = dist.value()->serve(request);
  auto expected = exact.value()->serve(request);
  ASSERT_TRUE(got.ok()) << got.status().to_string();
  ASSERT_TRUE(expected.ok());
  EXPECT_FALSE(got.value().degraded);
  expect_identical(got.value().results.front(),
                   expected.value().results.front(), "boundary filter");
  for (const query::Neighbor& n : got.value().results.front()) {
    EXPECT_GE(n.id, 40u);
    EXPECT_LT(n.id, 80u);
  }
}

TEST(DistRouter, MultiVectorAndMetricOverridesForward) {
  DistFixture fx;
  ChildSet set(fx);
  auto dist = DistRouter::open(set.groups(), fx.parent_options(), nullptr);
  ASSERT_TRUE(dist.ok()) << dist.status().to_string();
  auto exact = make_service(fx.flat_options());
  ASSERT_TRUE(exact.ok());

  auto a = exact.value()->row_vector(8);
  auto b = exact.value()->row_vector(70);
  ASSERT_TRUE(a.ok() && b.ok());
  std::vector<float> joint = a.value();
  joint.insert(joint.end(), b.value().begin(), b.value().end());

  QueryRequest request;
  request.queries.push_back(Query::multi(joint, 2));
  request.queries.push_back(Query::vertex(70));
  request.k = 9;
  request.aggregate = Aggregate::kMean;
  request.metric = query::Metric::kDot;
  auto got = dist.value()->serve(request);
  auto expected = exact.value()->serve(request);
  ASSERT_TRUE(got.ok()) << got.status().to_string();
  ASSERT_TRUE(expected.ok());
  for (std::size_t q = 0; q < expected.value().results.size(); ++q) {
    expect_identical(got.value().results[q], expected.value().results[q],
                     "query " + std::to_string(q));
  }
}

TEST(DistRouter, GroupCountMustMatchTheStoreShardCount) {
  DistFixture fx;
  ChildSet set(fx);
  auto groups = set.groups();
  groups.pop_back();  // 2 groups against a 3-shard store
  auto dist = DistRouter::open(std::move(groups), fx.parent_options(),
                               nullptr);
  ASSERT_FALSE(dist.ok());
  EXPECT_EQ(dist.status().code(), api::StatusCode::kInvalidArgument);
}

TEST(DistRouter, RegistryStrategyWiresThroughBackends) {
  DistFixture fx;
  ChildSet set(fx);
  ServeOptions options = fx.parent_options();
  options.strategy = "dist-router";
  options.backends = set.backends_spec();
  auto service = make_service(options);
  ASSERT_TRUE(service.ok()) << service.status().to_string();
  EXPECT_EQ(service.value()->strategy_name(), "dist-router");
  auto answer = service.value()->top_k_vertex(1, 6);
  ASSERT_TRUE(answer.ok()) << answer.status().to_string();
  EXPECT_EQ(answer.value().size(), 6u);
}

// The registry hands its metrics registry to the dist-router: one request
// counts once and scatters to every shard.
TEST(Router, RecordsScatterMetrics) {
  DistFixture fx;
  ChildSet set(fx);
  MetricsRegistry metrics;
  ServeOptions options = fx.parent_options();
  options.strategy = "dist-router";
  options.backends = set.backends_spec();
  auto router = make_service(options, &metrics);
  ASSERT_TRUE(router.ok()) << router.status().to_string();
  ASSERT_TRUE(router.value()->top_k_vertex(1, 5).ok());
  EXPECT_EQ(metrics.counter("gosh_serving_requests_total").value(), 1u);
  EXPECT_EQ(metrics.counter("gosh_serving_router_scatters_total").value(),
            fx.shard_count);
}

TEST(DistRouter, DegradesThenRecoversBitIdentically) {
  DistFixture fx;
  ChildSet set(fx);
  MetricsRegistry metrics;
  ServeOptions options = fx.parent_options();
  options.remote_deadline_ms = 400;  // a dead child must not stall the merge
  auto dist = DistRouter::open(set.groups(), options, &metrics);
  ASSERT_TRUE(dist.ok()) << dist.status().to_string();
  auto exact = make_service(fx.flat_options());
  ASSERT_TRUE(exact.ok());

  const QueryRequest request = QueryRequest::for_vertex(5, 12);
  auto healthy = dist.value()->serve(request);
  ASSERT_TRUE(healthy.ok());
  ASSERT_FALSE(healthy.value().degraded);

  // Kill shard 1 mid-flight. The scatter keeps answering — a partial
  // merge over shards 0 and 2, annotated per shard.
  set.children[1]->stop();
  auto degraded = dist.value()->serve(request);
  ASSERT_TRUE(degraded.ok()) << degraded.status().to_string();
  EXPECT_TRUE(degraded.value().degraded);
  ASSERT_EQ(degraded.value().shards.size(), 3u);
  EXPECT_TRUE(degraded.value().shards[0].ok);
  EXPECT_FALSE(degraded.value().shards[1].ok);
  EXPECT_FALSE(degraded.value().shards[1].error.empty());
  EXPECT_TRUE(degraded.value().shards[2].ok);
  // Shard 1 owns [34, 68) — none of its rows can appear in the partial.
  ASSERT_FALSE(degraded.value().results.front().empty());
  for (const query::Neighbor& n : degraded.value().results.front()) {
    EXPECT_TRUE(n.id < 34u || n.id >= 68u) << "ghost row " << n.id;
  }
  EXPECT_GE(metrics.counter("gosh_remote_degraded_responses_total").value(),
            1u);
  EXPECT_GE(metrics.counter("gosh_remote_breaker_open_total").value(), 1u);

  // With the breaker open, the next degraded answer sheds the dead shard
  // without dialing it — still annotated the same way.
  auto shed = dist.value()->serve(request);
  ASSERT_TRUE(shed.ok());
  EXPECT_TRUE(shed.value().degraded);
  EXPECT_FALSE(shed.value().shards[1].ok);

  // Restart the child on its pinned port; once the cooldown lapses one
  // half-open probe closes the breaker and the merge is whole — and
  // bit-identical to the exact scan — again.
  set.children[1]->start();
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  dist.value()->replicas(1).probe_now();
  EXPECT_EQ(dist.value()->replicas(1).breaker_state(0),
            CircuitBreaker::State::kClosed);
  auto recovered = dist.value()->serve(request);
  ASSERT_TRUE(recovered.ok()) << recovered.status().to_string();
  EXPECT_FALSE(recovered.value().degraded);
  auto expected = exact.value()->serve(request);
  ASSERT_TRUE(expected.ok());
  expect_identical(recovered.value().results.front(),
                   expected.value().results.front(), "recovered merge");
}

TEST(DistRouter, RequireAllShardsRefusesPartialMerges) {
  DistFixture fx;
  ChildSet set(fx);
  ServeOptions options = fx.parent_options();
  options.remote_deadline_ms = 400;
  options.require_all_shards = true;
  auto dist = DistRouter::open(set.groups(), options, nullptr);
  ASSERT_TRUE(dist.ok()) << dist.status().to_string();

  set.children[2]->stop();
  auto refused = dist.value()->serve(QueryRequest::for_vertex(5, 12));
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), api::StatusCode::kUnavailable);
  // The diagnosis names the missing shard.
  EXPECT_NE(refused.status().to_string().find("shard 2"), std::string::npos);
}

TEST(DistRouter, ChaosStalledShardDegradesInsideTheDeadline) {
  DistFixture fx;
  // Shard 0 stalls every request; the deadline, not the stall, bounds the
  // response time.
  std::vector<std::unique_ptr<ChildServer>> children;
  children.push_back(std::make_unique<ChildServer>(
      fx.child_options(0), net::FaultOptions{.stall_rate = 1.0}));
  children.push_back(std::make_unique<ChildServer>(fx.child_options(1)));
  children.push_back(std::make_unique<ChildServer>(fx.child_options(2)));
  std::vector<std::vector<Endpoint>> groups;
  for (const auto& child : children) groups.push_back({child->endpoint()});

  MetricsRegistry metrics;
  ServeOptions options = fx.parent_options();
  options.remote_deadline_ms = 300;
  auto dist = DistRouter::open(std::move(groups), options, &metrics);
  ASSERT_TRUE(dist.ok()) << dist.status().to_string();

  const auto start = std::chrono::steady_clock::now();
  auto response = dist.value()->serve(QueryRequest::for_vertex(70, 12));
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - start)
                           .count();
  ASSERT_TRUE(response.ok()) << response.status().to_string();
  EXPECT_TRUE(response.value().degraded);
  EXPECT_FALSE(response.value().shards[0].ok);
  EXPECT_TRUE(response.value().shards[1].ok);
  EXPECT_TRUE(response.value().shards[2].ok);
  // Bounded: the 300 ms budget plus scheduling slack, nowhere near a
  // stall-forever.
  EXPECT_LT(elapsed, 1500);
}

}  // namespace
}  // namespace gosh::serving
