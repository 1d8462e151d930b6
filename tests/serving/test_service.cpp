// QueryService — the serving facade's request model over every registry
// strategy: exact vs reference, per-request overrides, multi-vector and
// filtered queries, hnsw agreement, the batched alias, registry policies,
// concurrent serving and the single-query helpers' refusal of partial
// merges; EngineService — what open() refuses: degenerate scan settings,
// a missing index and an index that does not fit the store or metric
// (suites QueryService* and EngineService* are in the TSan CI filter).
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "gosh/net/options.hpp"
#include "gosh/query/brute_force.hpp"
#include "gosh/serving/registry.hpp"
#include "stub_service.hpp"

namespace gosh::serving {
namespace {

/// A 3-shard store of random rows plus its HNSW index, cleaned up on exit.
struct Fixture {
  std::string store_path;
  std::uint32_t shard_count;
  vid_t rows;
  unsigned dim;

  explicit Fixture(vid_t rows_in = 120, unsigned dim_in = 8,
                   std::uint64_t seed = 29)
      : rows(rows_in), dim(dim_in) {
    embedding::EmbeddingMatrix matrix(rows, dim);
    matrix.initialize_random(seed);
    store_path = testing::TempDir() + "service_" +
                 std::to_string(::getpid()) + "_" + std::to_string(rows) +
                 "_" + std::to_string(seed) + ".gshs";
    const std::uint64_t per_shard = rows / 3 + 1;
    shard_count =
        static_cast<std::uint32_t>((rows + per_shard - 1) / per_shard);
    EXPECT_TRUE(store::EmbeddingStore::write(matrix, store_path,
                                             {.rows_per_shard = per_shard})
                    .is_ok());
  }

  ServeOptions options() const {
    ServeOptions serve;
    serve.store_path = store_path;
    serve.k = 10;
    return serve;
  }

  void build_hnsw_index(unsigned ef_construction = 200) {
    ServeOptions serve = options();
    serve.ef_construction = ef_construction;
    auto report = serving::build_index(serve);
    ASSERT_TRUE(report.ok()) << report.status().to_string();
  }

  ~Fixture() {
    for (std::uint32_t s = 0; s < shard_count; ++s) {
      std::remove(
          store::EmbeddingStore::shard_path(store_path, s, shard_count)
              .c_str());
    }
    std::remove((store_path + ".hnsw").c_str());
  }
};

std::vector<query::Neighbor> reference_top_k(const std::string& store_path,
                                             std::span<const float> vec,
                                             unsigned k, query::Metric metric) {
  auto opened = store::EmbeddingStore::open(store_path);
  EXPECT_TRUE(opened.ok());
  const auto inv = query::row_inverse_norms(opened.value(), metric);
  return query::scan_top_k(opened.value(), vec, k, metric, inv).value();
}

TEST(QueryService, ExactServiceMatchesTheRawScan) {
  Fixture fx;
  ServeOptions options = fx.options();
  options.strategy = "exact";
  auto service = make_service(options);
  ASSERT_TRUE(service.ok()) << service.status().to_string();
  EXPECT_EQ(service.value()->rows(), fx.rows);
  EXPECT_EQ(service.value()->strategy_name(), "exact");

  auto row = service.value()->row_vector(42);
  ASSERT_TRUE(row.ok());
  const auto expected =
      reference_top_k(fx.store_path, row.value(), 10, query::Metric::kCosine);
  auto got = service.value()->top_k(row.value(), 10);
  ASSERT_TRUE(got.ok()) << got.status().to_string();
  ASSERT_EQ(got.value().size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(got.value()[i].id, expected[i].id) << "rank " << i;
  }
}

TEST(QueryService, VertexQueriesExcludeTheProbeItself) {
  Fixture fx;
  auto service = make_service(fx.options());
  ASSERT_TRUE(service.ok());
  auto top = service.value()->top_k_vertex(17, 10);
  ASSERT_TRUE(top.ok());
  EXPECT_EQ(top.value().size(), 10u);
  for (const query::Neighbor& n : top.value()) EXPECT_NE(n.id, 17u);
}

TEST(QueryService, PerRequestKEfAndMetricOverridesApply) {
  Fixture fx;
  ServeOptions options = fx.options();
  options.strategy = "exact";
  options.metric = query::Metric::kCosine;
  auto service = make_service(options);
  ASSERT_TRUE(service.ok());

  auto row = service.value()->row_vector(3);
  ASSERT_TRUE(row.ok());

  // k override: the request beats the service default.
  QueryRequest request = QueryRequest::for_vector(row.value(), 4);
  auto small = service.value()->serve(request);
  ASSERT_TRUE(small.ok());
  EXPECT_EQ(small.value().results.front().size(), 4u);

  // metric override: an L2 request against a cosine engine matches the
  // raw L2 scan.
  request.k = 6;
  request.metric = query::Metric::kL2;
  auto l2 = service.value()->serve(request);
  ASSERT_TRUE(l2.ok());
  const auto expected =
      reference_top_k(fx.store_path, row.value(), 6, query::Metric::kL2);
  ASSERT_EQ(l2.value().results.front().size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(l2.value().results.front()[i].id, expected[i].id);
  }

  // ...and the reverse direction: a cosine override on an L2 engine (the
  // construction-time norm cache covers it).
  ServeOptions l2_options = fx.options();
  l2_options.strategy = "exact";
  l2_options.metric = query::Metric::kL2;
  auto l2_service = make_service(l2_options);
  ASSERT_TRUE(l2_service.ok());
  QueryRequest cosine_request = QueryRequest::for_vector(row.value(), 6);
  cosine_request.metric = query::Metric::kCosine;
  auto cosine = l2_service.value()->serve(cosine_request);
  ASSERT_TRUE(cosine.ok());
  const auto cosine_expected =
      reference_top_k(fx.store_path, row.value(), 6, query::Metric::kCosine);
  for (std::size_t i = 0; i < cosine_expected.size(); ++i) {
    EXPECT_EQ(cosine.value().results.front()[i].id, cosine_expected[i].id);
  }
}

TEST(QueryService, FilteredAnswersOnlyContainPassingIds) {
  Fixture fx;
  auto service = make_service(fx.options());
  ASSERT_TRUE(service.ok());
  QueryRequest request = QueryRequest::for_vertex(5, 15);
  request.filter = [](vid_t v) { return v >= 60; };
  auto response = service.value()->serve(request);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response.value().results.front().size(), 15u);
  for (const query::Neighbor& n : response.value().results.front()) {
    EXPECT_GE(n.id, 60u);
  }
}

TEST(QueryService, MultiVectorQueriesAggregate) {
  Fixture fx;
  auto service = make_service(fx.options());
  ASSERT_TRUE(service.ok());
  auto a = service.value()->row_vector(10);
  auto b = service.value()->row_vector(90);
  ASSERT_TRUE(a.ok() && b.ok());
  std::vector<float> joint = a.value();
  joint.insert(joint.end(), b.value().begin(), b.value().end());

  QueryRequest request;
  request.queries.push_back(Query::multi(joint, 2));
  request.k = 2;
  request.aggregate = Aggregate::kMax;
  auto response = service.value()->serve(request);
  ASSERT_TRUE(response.ok());
  // Under kMax both probe rows score 1.0 (cosine with themselves), so the
  // top-2 must be exactly {10, 90}.
  std::vector<vid_t> ids;
  for (const query::Neighbor& n : response.value().results.front()) {
    ids.push_back(n.id);
  }
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(ids, (std::vector<vid_t>{10, 90}));
}

TEST(QueryService, HnswServiceAgreesUnderExhaustiveBeam) {
  Fixture fx;
  fx.build_hnsw_index();
  ServeOptions options = fx.options();
  options.strategy = "hnsw";
  options.ef_search = 4 * fx.rows;  // beam covers the whole graph
  auto hnsw = make_service(options);
  ASSERT_TRUE(hnsw.ok()) << hnsw.status().to_string();
  EXPECT_EQ(hnsw.value()->strategy_name(), "hnsw");

  options.strategy = "exact";
  auto exact = make_service(options);
  ASSERT_TRUE(exact.ok());

  for (const vid_t probe : {0u, 41u, 119u}) {
    auto approx = hnsw.value()->top_k_vertex(probe, 8);
    auto truth = exact.value()->top_k_vertex(probe, 8);
    ASSERT_TRUE(approx.ok() && truth.ok());
    ASSERT_EQ(approx.value().size(), truth.value().size());
    for (std::size_t i = 0; i < truth.value().size(); ++i) {
      EXPECT_EQ(approx.value()[i].id, truth.value()[i].id)
          << "probe " << probe << " rank " << i;
    }
  }

  // Filtered hnsw requests only return passing ids too.
  QueryRequest request = QueryRequest::for_vertex(7, 5);
  request.filter = [](vid_t v) { return v % 3 == 0; };
  auto filtered = hnsw.value()->serve(request);
  ASSERT_TRUE(filtered.ok());
  for (const query::Neighbor& n : filtered.value().results.front()) {
    EXPECT_EQ(n.id % 3, 0u);
  }

  // A metric the index was not built for is a clean rejection.
  QueryRequest wrong = QueryRequest::for_vertex(7, 5);
  wrong.metric = query::Metric::kDot;
  auto rejected = hnsw.value()->serve(wrong);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), api::StatusCode::kInvalidArgument);
}

TEST(QueryService, BatchedServiceAgreesWithExactAndHandlesFallthrough) {
  Fixture fx;
  ServeOptions options = fx.options();
  options.strategy = "exact";
  options.max_batch = 16;
  auto exact = make_service(options);
  ASSERT_TRUE(exact.ok());

  // "batched" is an alias of "auto": exact without an index beside the
  // store, since coalescing is built into the exact strategy. "router" is
  // an alias of "exact": one engine already scans every shard.
  for (const char* alias : {"batched", "router"}) {
    options.strategy = alias;
    auto batched = make_service(options);
    ASSERT_TRUE(batched.ok()) << alias << ": "
                              << batched.status().to_string();
    EXPECT_EQ(batched.value()->strategy_name(), "exact") << alias;

    // A batch of vertex queries at the default k.
    QueryRequest request;
    for (vid_t v = 0; v < 40; ++v) {
      request.queries.push_back(Query::vertex(v));
    }
    auto coalesced = batched.value()->serve(request);
    auto direct = exact.value()->serve(request);
    ASSERT_TRUE(coalesced.ok() && direct.ok()) << alias;
    ASSERT_EQ(coalesced.value().results.size(),
              direct.value().results.size());
    for (std::size_t q = 0; q < direct.value().results.size(); ++q) {
      ASSERT_EQ(coalesced.value().results[q].size(),
                direct.value().results[q].size())
          << alias;
      for (std::size_t i = 0; i < direct.value().results[q].size(); ++i) {
        EXPECT_EQ(coalesced.value().results[q][i].id,
                  direct.value().results[q][i].id)
            << alias;
      }
    }

    // A filtered request scans alone; it must still be honored.
    QueryRequest filtered = QueryRequest::for_vertex(11, 5);
    filtered.filter = [](vid_t v) { return v < 30; };
    auto fallthrough = batched.value()->serve(filtered);
    ASSERT_TRUE(fallthrough.ok()) << alias;
    for (const query::Neighbor& n : fallthrough.value().results.front()) {
      EXPECT_LT(n.id, 30u) << alias;
    }
  }
}

TEST(QueryService, MalformedRequestsAreRejectedWholesale) {
  Fixture fx;
  auto service = make_service(fx.options());
  ASSERT_TRUE(service.ok());

  QueryRequest out_of_range = QueryRequest::for_vertex(fx.rows + 5, 3);
  EXPECT_EQ(service.value()->serve(out_of_range).status().code(),
            api::StatusCode::kInvalidArgument);

  QueryRequest bad_dim =
      QueryRequest::for_vector(std::vector<float>(fx.dim + 1, 0.5f), 3);
  EXPECT_EQ(service.value()->serve(bad_dim).status().code(),
            api::StatusCode::kInvalidArgument);

  QueryRequest empty_multi;
  empty_multi.queries.push_back(Query::multi({}, 0));
  EXPECT_EQ(service.value()->serve(empty_multi).status().code(),
            api::StatusCode::kInvalidArgument);

  EXPECT_FALSE(service.value()->row_vector(fx.rows).ok());
}

TEST(QueryService, RegistryEnumeratesStrategiesAndRejectsUnknown) {
  const std::vector<std::string> names = ServiceRegistry::instance().names();
  for (const char* expected : {"auto", "batched", "exact", "hnsw", "router"}) {
    EXPECT_TRUE(ServiceRegistry::instance().contains(expected)) << expected;
  }

  Fixture fx;
  ServeOptions options = fx.options();
  auto unknown = ServiceRegistry::instance().create("warp", options);
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), api::StatusCode::kNotFound);
  // kNotFound enumerates every registered name, like BackendRegistry.
  for (const std::string& name : names) {
    EXPECT_NE(unknown.status().message().find(name), std::string::npos)
        << name;
  }

  EXPECT_EQ(
      ServiceRegistry::instance().add("", [](const ServeOptions&,
                                             MetricsRegistry*)
                                              -> api::Result<
                                                  std::unique_ptr<QueryService>> {
        return api::Status::internal("unreachable");
      }).code(),
      api::StatusCode::kInvalidArgument);
  EXPECT_EQ(ServiceRegistry::instance().add("exact", nullptr).code(),
            api::StatusCode::kInvalidArgument);
}

TEST(QueryService, AutoStrategyFollowsTheIndexPresentPolicy) {
  Fixture fx;
  auto without = make_service(fx.options());
  ASSERT_TRUE(without.ok());
  EXPECT_EQ(without.value()->strategy_name(), "exact");

  fx.build_hnsw_index(64);
  auto with = make_service(fx.options());
  ASSERT_TRUE(with.ok());
  EXPECT_EQ(with.value()->strategy_name(), "hnsw");
}

TEST(QueryService, ServicesRecordIntoTheMetricsRegistry) {
  Fixture fx;
  MetricsRegistry metrics;
  ServeOptions options = fx.options();
  options.strategy = "exact";
  auto service = make_service(options, &metrics);
  ASSERT_TRUE(service.ok());
  QueryRequest request;
  request.queries.push_back(Query::vertex(1));
  request.queries.push_back(Query::vertex(2));
  ASSERT_TRUE(service.value()->serve(request).ok());
  EXPECT_EQ(metrics.counter("gosh_serving_requests_total").value(), 1u);
  EXPECT_EQ(metrics.counter("gosh_serving_queries_total").value(), 2u);
  EXPECT_EQ(metrics.histogram("gosh_serving_request_seconds").count(), 1u);
  // The exact strategy's one pass over the store, and its request.
  EXPECT_EQ(metrics.counter("gosh_serving_batches_total").value(), 1u);
  EXPECT_EQ(metrics.counter("gosh_serving_batch_queries_total").value(), 2u);
  EXPECT_EQ(metrics.histogram("gosh_serving_batch_seconds").count(), 1u);
  EXPECT_EQ(
      metrics.histogram("gosh_serving_request_latency_seconds").count(), 1u);
}

TEST(QueryService, ConcurrentServeIsSafe) {
  Fixture fx(90, 6);
  for (const char* strategy : {"exact", "batched"}) {
    ServeOptions options = fx.options();
    options.strategy = strategy;
    options.threads = 2;
    options.max_batch = 8;
    auto service = make_service(options);
    ASSERT_TRUE(service.ok()) << strategy;
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
      threads.emplace_back([&service, t] {
        for (int i = 0; i < 25; ++i) {
          const vid_t probe = static_cast<vid_t>((t * 25 + i) % 90);
          auto top = service.value()->top_k_vertex(probe, 5);
          ASSERT_TRUE(top.ok());
          EXPECT_EQ(top.value().size(), 5u);
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
}

TEST(QueryService, SingleQueryHelpersRefusePartialMerges) {
  StubService service;
  const std::vector<float> vector(service.dim(), 1.0f);
  auto whole = service.top_k_vertex(7, 5);
  ASSERT_TRUE(whole.ok()) << whole.status().to_string();
  EXPECT_EQ(whole.value().size(), 1u);

  service.degraded = true;
  for (const auto& answer :
       {service.top_k_vertex(7, 5), service.top_k(vector, 5)}) {
    ASSERT_FALSE(answer.ok());
    EXPECT_EQ(answer.status().code(), api::StatusCode::kUnavailable);
    // Names the missing shard, its backend and its error; not the others.
    const std::string message = answer.status().message();
    EXPECT_NE(message.find("shard 1 (127.0.0.1:7002): deadline exceeded"),
              std::string::npos)
        << message;
    EXPECT_EQ(message.find("shard 0"), std::string::npos) << message;
  }
}

/// EngineService::open's verdict on the fixture's store under `options`.
api::Status open_status(const ServeOptions& options,
                        Strategy strategy = Strategy::kExact) {
  return EngineService::open(options, strategy).status();
}

TEST(EngineService, ZeroBlockRowsIsInvalidArgument) {
  Fixture fx;
  ServeOptions options = fx.options();
  options.block_rows = 0;
  const api::Status status = open_status(options);
  EXPECT_EQ(status.code(), api::StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("block-rows"), std::string::npos)
      << status.to_string();
}

TEST(EngineService, ZeroEfSearchIsInvalidArgument) {
  Fixture fx;
  ServeOptions options = fx.options();
  options.ef_search = 0;
  const api::Status status = open_status(options, Strategy::kHnsw);
  EXPECT_EQ(status.code(), api::StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("ef"), std::string::npos)
      << status.to_string();
}

TEST(EngineService, AbsurdThreadCountIsInvalidArgument) {
  Fixture fx;
  ServeOptions options = fx.options();
  options.threads = 100000;
  EXPECT_EQ(open_status(options).code(), api::StatusCode::kInvalidArgument);
  // Refused alike by gosh_query's --threads and gosh_serve's
  // --scan-threads.
  EXPECT_EQ(ServeOptions().set("threads", "100000").code(),
            api::StatusCode::kInvalidArgument);
  EXPECT_EQ(net::NetOptions().set("scan-threads", "100000").code(),
            api::StatusCode::kInvalidArgument);
}

TEST(EngineService, MissingIndexFileIsAnIoError) {
  Fixture fx;
  EXPECT_EQ(open_status(fx.options(), Strategy::kHnsw).code(),
            api::StatusCode::kIoError);
}

TEST(EngineService, RejectsIndexBuiltForAnotherMetricOrStore) {
  Fixture fx;
  fx.build_hnsw_index(64);  // cosine
  ServeOptions l2 = fx.options();
  l2.metric = query::Metric::kL2;
  const api::Status wrong_metric = open_status(l2, Strategy::kHnsw);
  EXPECT_EQ(wrong_metric.code(), api::StatusCode::kInvalidArgument);
  EXPECT_NE(wrong_metric.message().find("metric"), std::string::npos)
      << wrong_metric.to_string();

  // Shape mismatch: an index over a smaller store.
  Fixture tiny(10, fx.dim, 31);
  tiny.build_hnsw_index(64);
  ServeOptions mismatched = fx.options();
  mismatched.index_path = tiny.store_path + ".hnsw";
  const api::Status wrong_shape = open_status(mismatched, Strategy::kHnsw);
  EXPECT_EQ(wrong_shape.code(), api::StatusCode::kInvalidArgument);
  EXPECT_NE(wrong_shape.message().find("shape"), std::string::npos)
      << wrong_shape.to_string();
}

}  // namespace
}  // namespace gosh::serving
