// ScanCombiner — concurrent exact-scan requests sharing passes: one pass
// at a time, who may share a pass, the max_batch cap, failure fan-out,
// pool workers never waiting, and combined answers bit-identical to the
// same requests served alone (suite ScanCombiner* is in the TSan CI
// filter; ConcurrentServeMatchesServedAlone is its stress test).
//
// Most cases hold the combiner with a gated first pass so that later
// requests queue in a known order, then release it and read back which
// passes ran.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdio>
#include <functional>
#include <future>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "gosh/common/sync.hpp"
#include "gosh/common/thread_pool.hpp"
#include "gosh/query/brute_force.hpp"
#include "gosh/serving/registry.hpp"
#include "gosh/serving/scan_combiner.hpp"

namespace gosh::serving {
namespace {

using query::Aggregate;
using query::Metric;

constexpr ScanKey kKey{Metric::kCosine, Aggregate::kMax, 10};

/// One pass as the scan function saw it: its key, one tag per query (the
/// query's first float) and whether it carried a filter.
struct Pass {
  ScanKey key;
  std::vector<float> tags;
  bool filtered = false;
};

/// A fake scan over 1-float "vectors" whose first call blocks until
/// release(). Each query's answer is one neighbor whose id is the query's
/// tag, so every member can check it got its own answers back. A tag of
/// 666 makes the pass return an error, 777 makes it throw.
class GatedScan {
 public:
  ScanFunction function() {
    return [this](const ScanKey& key, std::span<const float> vectors,
                  std::span<const std::size_t> counts,
                  const query::RowFilter& filter) -> api::Result<ScanAnswers> {
      if (calls_.fetch_add(1) == 0) {
        while (held_.load()) std::this_thread::yield();
      }
      const int running = running_.fetch_add(1) + 1;
      int seen = max_running_.load();
      while (running > seen && !max_running_.compare_exchange_weak(seen, running)) {
      }
      Pass pass;
      pass.key = key;
      pass.filtered = static_cast<bool>(filter);
      ScanAnswers answers;
      std::size_t first = 0;
      for (const std::size_t count : counts) {
        pass.tags.push_back(vectors[first]);
        answers.push_back({{static_cast<vid_t>(vectors[first]),
                            static_cast<float>(key.k)}});
        first += count;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(50));
      {
        common::MutexLock lock(mutex_);
        passes_.push_back(pass);
      }
      running_.fetch_sub(1);
      for (const float tag : pass.tags) {
        if (tag == 666.0f) return api::Status::internal("planted failure");
        if (tag == 777.0f) throw std::runtime_error("planted throw");
      }
      return answers;
    };
  }

  void release() { held_.store(false); }
  int calls() const { return calls_.load(); }
  int max_running() const { return max_running_.load(); }
  std::vector<Pass> passes() const {
    common::MutexLock lock(mutex_);
    return passes_;
  }

 private:
  std::atomic<bool> held_{true};
  std::atomic<int> calls_{0};
  std::atomic<int> running_{0};
  std::atomic<int> max_running_{0};
  mutable common::Mutex mutex_;
  std::vector<Pass> passes_ GOSH_GUARDED_BY(mutex_);
};

/// One request of `queries` 1-float vectors, all equal to `tag`.
struct Submission {
  std::vector<float> vectors;
  std::vector<std::size_t> counts;
  api::Result<ScanAnswers> result = api::Status::internal("not run");
  std::thread thread;

  Submission(float tag, std::size_t queries)
      : vectors(queries, tag), counts(queries, 1) {}
};

/// Starts `submission` on its own thread and returns once it is queued
/// (waiting() reached `expected_waiting`), so submissions queue in order.
void submit(ScanCombiner& combiner, Submission& submission, ScanKey key,
            std::size_t expected_waiting, query::RowFilter filter = {}) {
  submission.thread = std::thread([&combiner, &submission, key, filter] {
    submission.result =
        combiner.scan(key, submission.vectors, submission.counts, filter);
  });
  while (combiner.waiting() < expected_waiting) std::this_thread::yield();
}

/// Starts the request whose gated pass holds the combiner.
void hold(ScanCombiner& combiner, GatedScan& gate, Submission& leader) {
  leader.thread = std::thread([&combiner, &leader] {
    leader.result = combiner.scan(kKey, leader.vectors, leader.counts);
  });
  while (gate.calls() == 0) std::this_thread::yield();
}

void expect_own_answers(const Submission& submission, float tag) {
  ASSERT_TRUE(submission.result.ok()) << submission.result.status().to_string();
  const ScanAnswers& answers = submission.result.value();
  ASSERT_EQ(answers.size(), submission.counts.size());
  for (const auto& answer : answers) {
    ASSERT_EQ(answer.size(), 1u);
    EXPECT_EQ(answer[0].id, static_cast<vid_t>(tag));
  }
}

TEST(ScanCombiner, OnlyCompatibleRequestsShareAPass) {
  GatedScan gate;
  ScanCombiner combiner(gate.function(), 64);
  Submission a(1, 1), b(2, 1), c(3, 1), d(4, 2), e(5, 1), f(6, 1);
  hold(combiner, gate, a);
  submit(combiner, b, kKey, 1);
  submit(combiner, c, {Metric::kL2, Aggregate::kMax, 10}, 2);
  submit(combiner, d, kKey, 3);
  submit(combiner, e, {Metric::kCosine, Aggregate::kMean, 10}, 4);
  submit(combiner, f, {Metric::kCosine, Aggregate::kMax, 11}, 5);
  gate.release();
  for (Submission* s : {&a, &b, &c, &d, &e, &f}) s->thread.join();

  // b leads the second pass and takes d, the only other waiter with its
  // key; c, e and f differ in metric, aggregate and k and scan alone.
  const std::vector<Pass> passes = gate.passes();
  ASSERT_EQ(passes.size(), 5u);
  EXPECT_EQ(passes[0].tags, (std::vector<float>{1}));
  EXPECT_EQ(passes[1].tags, (std::vector<float>{2, 4, 4}));
  EXPECT_EQ(passes[2].tags, (std::vector<float>{3}));
  EXPECT_EQ(passes[2].key.metric, Metric::kL2);
  EXPECT_EQ(passes[3].tags, (std::vector<float>{5}));
  EXPECT_EQ(passes[3].key.aggregate, Aggregate::kMean);
  EXPECT_EQ(passes[4].tags, (std::vector<float>{6}));
  EXPECT_EQ(passes[4].key.k, 11u);
  expect_own_answers(a, 1);
  expect_own_answers(b, 2);
  expect_own_answers(c, 3);
  expect_own_answers(d, 4);
  expect_own_answers(e, 5);
  expect_own_answers(f, 6);
  EXPECT_EQ(gate.max_running(), 1);
}

TEST(ScanCombiner, FilteredRequestScansAlone) {
  GatedScan gate;
  ScanCombiner combiner(gate.function(), 64);
  Submission a(1, 1), b(2, 1), c(3, 1), d(4, 1);
  hold(combiner, gate, a);
  submit(combiner, b, kKey, 1);
  submit(combiner, c, kKey, 2, [](vid_t v) { return v % 2 == 0; });
  submit(combiner, d, kKey, 3);
  gate.release();
  for (Submission* s : {&a, &b, &c, &d}) s->thread.join();

  const std::vector<Pass> passes = gate.passes();
  ASSERT_EQ(passes.size(), 3u);
  EXPECT_EQ(passes[1].tags, (std::vector<float>{2, 4}));
  EXPECT_FALSE(passes[1].filtered);
  EXPECT_EQ(passes[2].tags, (std::vector<float>{3}));
  EXPECT_TRUE(passes[2].filtered);
  expect_own_answers(b, 2);
  expect_own_answers(c, 3);
  expect_own_answers(d, 4);
}

TEST(ScanCombiner, NoPassHoldsMoreThanMaxBatchQueries) {
  GatedScan gate;
  ScanCombiner combiner(gate.function(), 4);
  Submission a(1, 1), b(2, 1), c(3, 2), d(4, 1), e(5, 1), f(6, 3), g(7, 6);
  hold(combiner, gate, a);
  submit(combiner, b, kKey, 1);
  submit(combiner, c, kKey, 2);
  submit(combiner, d, kKey, 3);
  submit(combiner, e, kKey, 4);
  submit(combiner, f, kKey, 5);
  submit(combiner, g, kKey, 6);
  gate.release();
  for (Submission* s : {&a, &b, &c, &d, &e, &f, &g}) s->thread.join();

  // b + c + d fill 4 queries; e leads the next pass and f's 3 fill it; g
  // alone holds more than max_batch and so scans as a pass of its own.
  const std::vector<Pass> passes = gate.passes();
  ASSERT_EQ(passes.size(), 4u);
  EXPECT_EQ(passes[1].tags, (std::vector<float>{2, 3, 3, 4}));
  EXPECT_EQ(passes[2].tags, (std::vector<float>{5, 6, 6, 6}));
  EXPECT_EQ(passes[3].tags, (std::vector<float>(6, 7)));
  expect_own_answers(c, 3);
  expect_own_answers(f, 6);
  expect_own_answers(g, 7);
}

TEST(ScanCombiner, FailedOrThrowingPassFailsEveryMemberAndFreesTheNextLeader) {
  GatedScan gate;
  ScanCombiner combiner(gate.function(), 64);
  const ScanKey other{Metric::kDot, Aggregate::kMax, 10};
  const ScanKey third{Metric::kL2, Aggregate::kMax, 10};
  Submission a(1, 1), b(666, 1), c(3, 1), d(777, 1), e(5, 1), f(6, 1);
  hold(combiner, gate, a);
  submit(combiner, b, kKey, 1);
  submit(combiner, c, kKey, 2);
  submit(combiner, d, other, 3);
  submit(combiner, e, other, 4);
  submit(combiner, f, third, 5);
  gate.release();
  for (Submission* s : {&a, &b, &c, &d, &e, &f}) s->thread.join();

  expect_own_answers(a, 1);
  for (const Submission* failed : {&b, &c}) {
    ASSERT_FALSE(failed->result.ok());
    EXPECT_EQ(failed->result.status().code(), api::StatusCode::kInternal);
    EXPECT_NE(failed->result.status().message().find("planted failure"),
              std::string::npos);
  }
  for (const Submission* thrown : {&d, &e}) {
    ASSERT_FALSE(thrown->result.ok());
    EXPECT_EQ(thrown->result.status().code(), api::StatusCode::kInternal);
    EXPECT_NE(thrown->result.status().message().find("planted throw"),
              std::string::npos);
  }
  // Leadership moved on past both failed passes.
  expect_own_answers(f, 6);
  Submission after(8, 1);
  after.result = combiner.scan(kKey, after.vectors, after.counts);
  expect_own_answers(after, 8);
  EXPECT_EQ(combiner.waiting(), 0u);
}

TEST(ScanCombiner, PoolWorkersScanWithoutWaiting) {
  GatedScan gate;
  ScanCombiner combiner(gate.function(), 64);
  Submission a(1, 1), worker(2, 1);
  hold(combiner, gate, a);
  // A pass holds the combiner; a request made on a global-pool worker must
  // not queue behind it, or a leader's parallel_for could starve.
  auto done = global_pool().submit([&combiner, &worker] {
    worker.result = combiner.scan(kKey, worker.vectors, worker.counts);
  });
  EXPECT_EQ(done.wait_for(std::chrono::seconds(30)),
            std::future_status::ready);
  EXPECT_EQ(combiner.waiting(), 0u);
  gate.release();
  a.thread.join();
  done.wait();
  expect_own_answers(worker, 2);
  expect_own_answers(a, 1);
}

TEST(ScanCombiner, StressedPassesNeverOverlap) {
  GatedScan gate;
  gate.release();
  ScanCombiner combiner(gate.function(), 3);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 40;
  std::vector<std::thread> threads;
  std::atomic<int> wrong{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&combiner, &wrong, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const float tag = static_cast<float>(t * 1000 + i);
        const std::vector<float> vectors(1 + i % 2, tag);
        const std::vector<std::size_t> counts(vectors.size(), 1);
        auto result = combiner.scan(kKey, vectors, counts);
        if (!result.ok() || result.value().size() != counts.size() ||
            result.value()[0][0].id != static_cast<vid_t>(tag)) {
          wrong.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_EQ(gate.max_running(), 1);
  for (const Pass& pass : gate.passes()) EXPECT_LE(pass.tags.size(), 3u);
}

// ---- Real scans: combined answers equal solo answers, bit for bit. ------

struct StoreFixture {
  std::string path;
  store::EmbeddingStore store;
  std::vector<float> cosine_norms;

  StoreFixture() {
    embedding::EmbeddingMatrix matrix(300, 16);
    matrix.initialize_random(41);
    // Planted ties: rows 200..209 repeat row 7, so equal scores must still
    // rank by id inside a combined pass.
    for (vid_t v = 200; v < 210; ++v) {
      const auto source = matrix.row(7);
      std::copy(source.begin(), source.end(), matrix.row(v).begin());
    }
    path = testing::TempDir() + "scan_combiner_" + std::to_string(::getpid()) +
           ".gshs";
    EXPECT_TRUE(store::EmbeddingStore::write(matrix, path,
                                             {.rows_per_shard = 110})
                    .is_ok());
    auto opened = store::EmbeddingStore::open(path);
    EXPECT_TRUE(opened.ok()) << opened.status().to_string();
    store = std::move(opened).value();
    cosine_norms = query::row_inverse_norms(store, Metric::kCosine);
  }
  ~StoreFixture() {
    for (std::uint32_t s = 0; s < 3; ++s) {
      std::remove(store::EmbeddingStore::shard_path(path, s, 3).c_str());
    }
  }
};

/// A request for the mixed workload: key, vectors, counts and an optional
/// filter.
struct MixedRequest {
  ScanKey key;
  std::vector<float> vectors;
  std::vector<std::size_t> counts;
  query::RowFilter filter;
};

std::vector<MixedRequest> mixed_requests(const store::EmbeddingStore& store) {
  std::vector<MixedRequest> requests;
  const auto row = [&store](vid_t v) {
    const auto r = store.row(v);
    return std::vector<float>(r.begin(), r.end());
  };
  for (int i = 0; i < 16; ++i) {
    MixedRequest request;
    request.key.metric = i % 3 == 0   ? Metric::kCosine
                         : i % 3 == 1 ? Metric::kDot
                                      : Metric::kL2;
    request.key.aggregate = i % 4 < 2 ? Aggregate::kMax : Aggregate::kMean;
    request.key.k = i % 2 == 0 ? 5 : 11;
    // One to three queries, some of them multi-vector.
    for (int q = 0; q <= i % 3; ++q) {
      const std::size_t vectors = (i + q) % 4 == 0 ? 3 : 1;
      for (std::size_t j = 0; j < vectors; ++j) {
        const std::vector<float> r =
            row(static_cast<vid_t>((i * 37 + q * 11 + j * 5) % 300));
        request.vectors.insert(request.vectors.end(), r.begin(), r.end());
      }
      request.counts.push_back(vectors);
    }
    if (i % 5 == 4) request.filter = [](vid_t v) { return v % 3 != 1; };
    requests.push_back(std::move(request));
  }
  return requests;
}

void expect_bit_identical(const ScanAnswers& got, const ScanAnswers& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t q = 0; q < want.size(); ++q) {
    ASSERT_EQ(got[q].size(), want[q].size()) << "query " << q;
    for (std::size_t i = 0; i < want[q].size(); ++i) {
      EXPECT_EQ(got[q][i].id, want[q][i].id) << "query " << q << " rank " << i;
      EXPECT_EQ(std::bit_cast<std::uint32_t>(got[q][i].score),
                std::bit_cast<std::uint32_t>(want[q][i].score))
          << "query " << q << " rank " << i;
    }
  }
}

TEST(ScanCombiner, CombinedAnswersMatchSoloScansBitForBit) {
  StoreFixture fx;
  const auto scan = [&fx](const ScanKey& key, std::span<const float> vectors,
                          std::span<const std::size_t> counts,
                          const query::RowFilter& filter) {
    return query::scan_top_k_multi(
        fx.store, vectors, counts, key.k, key.metric,
        key.metric == Metric::kCosine ? std::span<const float>(fx.cosine_norms)
                                      : std::span<const float>(),
        key.aggregate, filter, {.threads = 2, .block_rows = 64});
  };
  const std::vector<MixedRequest> requests = mixed_requests(fx.store);
  std::vector<ScanAnswers> solo;
  for (const MixedRequest& request : requests) {
    auto answers =
        scan(request.key, request.vectors, request.counts, request.filter);
    ASSERT_TRUE(answers.ok()) << answers.status().to_string();
    solo.push_back(std::move(answers).value());
  }

  // Every request queues behind a held pass, so each compatible group is
  // answered by one combined scan.
  std::atomic<bool> held{true};
  std::atomic<int> calls{0};
  MetricsRegistry metrics;
  ScanCombiner combiner(
      [&](const ScanKey& key, std::span<const float> vectors,
          std::span<const std::size_t> counts, const query::RowFilter& filter) {
        if (calls.fetch_add(1) == 0) {
          while (held.load()) std::this_thread::yield();
        }
        return scan(key, vectors, counts, filter);
      },
      64, &metrics);
  std::vector<api::Result<ScanAnswers>> results(
      requests.size(), api::Status::internal("not run"));
  std::vector<std::thread> threads;
  const std::vector<float> holder_vector(16, 0.25f);
  const std::vector<std::size_t> holder_count{1};
  threads.emplace_back([&] {
    (void)combiner.scan(kKey, holder_vector, holder_count);
  });
  while (calls.load() == 0) std::this_thread::yield();
  for (std::size_t i = 0; i < requests.size(); ++i) {
    threads.emplace_back([&, i] {
      results[i] = combiner.scan(requests[i].key, requests[i].vectors,
                                 requests[i].counts, requests[i].filter);
    });
    while (combiner.waiting() < i + 1) std::this_thread::yield();
  }
  held.store(false);
  for (std::thread& t : threads) t.join();

  for (std::size_t i = 0; i < requests.size(); ++i) {
    ASSERT_TRUE(results[i].ok()) << results[i].status().to_string();
    expect_bit_identical(results[i].value(), solo[i]);
  }
  // Fewer passes than requests: compatible requests really shared.
  const std::uint64_t passes =
      metrics.counter("gosh_serving_batches_total").value();
  EXPECT_LT(passes, requests.size() + 1);
  std::uint64_t queries = 1;
  for (const MixedRequest& request : requests) queries += request.counts.size();
  EXPECT_EQ(metrics.counter("gosh_serving_batch_queries_total").value(),
            queries);
  EXPECT_EQ(metrics.histogram("gosh_serving_batch_seconds").count(), passes);
  EXPECT_EQ(
      metrics.histogram("gosh_serving_request_latency_seconds").count(),
      requests.size() + 1);
}

TEST(ScanCombiner, ConcurrentServeMatchesServedAlone) {
  StoreFixture fx;
  ServeOptions options;
  options.store_path = fx.path;
  options.strategy = "exact";
  options.threads = 2;
  options.block_rows = 64;
  options.max_batch = 6;
  MetricsRegistry metrics;
  auto service = make_service(options, &metrics);
  ASSERT_TRUE(service.ok()) << service.status().to_string();

  // Vertex, raw, multi-vector and filtered requests under every metric and
  // aggregate, at two k.
  std::vector<QueryRequest> requests;
  for (int i = 0; i < 24; ++i) {
    QueryRequest request;
    request.k = i % 2 == 0 ? 4 : 9;
    if (i % 3 != 0) {
      request.metric = i % 3 == 1 ? Metric::kDot : Metric::kL2;
    }
    request.aggregate = i % 4 < 2 ? Aggregate::kMax : Aggregate::kMean;
    const auto v = static_cast<vid_t>((i * 53) % 300);
    switch (i % 4) {
      case 0:
        request.queries.push_back(Query::vertex(v));
        break;
      case 1: {
        auto row = service.value()->row_vector(v);
        ASSERT_TRUE(row.ok());
        request.queries.push_back(Query::vector(std::move(row).value()));
        break;
      }
      case 2: {
        std::vector<float> values;
        for (const vid_t u : {v, static_cast<vid_t>((v + 101) % 300)}) {
          auto row = service.value()->row_vector(u);
          ASSERT_TRUE(row.ok());
          values.insert(values.end(), row.value().begin(), row.value().end());
        }
        request.queries.push_back(Query::multi(std::move(values), 2));
        request.queries.push_back(Query::vertex((v + 7) % 300));
        break;
      }
      default:
        request.queries.push_back(Query::vertex(v));
        request.filter = [](vid_t u) { return u % 4 != 0; };
        break;
    }
    requests.push_back(std::move(request));
  }
  std::vector<ScanAnswers> alone;
  for (const QueryRequest& request : requests) {
    auto response = service.value()->serve(request);
    ASSERT_TRUE(response.ok()) << response.status().to_string();
    alone.push_back(std::move(response).value().results);
  }

  constexpr int kThreads = 8;
  constexpr int kRounds = 6;
  std::vector<std::thread> threads;
  std::vector<ScanAnswers> got(kThreads * kRounds * requests.size());
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int r = 0; r < kRounds; ++r) {
        for (std::size_t j = 0; j < requests.size(); ++j) {
          // Each thread walks the list from its own offset.
          const std::size_t i = (j + static_cast<std::size_t>(t) * 5 +
                                 static_cast<std::size_t>(r)) %
                                requests.size();
          auto response = service.value()->serve(requests[i]);
          if (!response.ok()) {
            failures.fetch_add(1);
            continue;
          }
          got[(static_cast<std::size_t>(t) * kRounds + r) * requests.size() +
              i] = std::move(response).value().results;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  ASSERT_EQ(failures.load(), 0);
  for (std::size_t slot = 0; slot < got.size(); ++slot) {
    expect_bit_identical(got[slot], alone[slot % requests.size()]);
  }
  // Every query was answered by exactly one pass.
  std::uint64_t queries = 0;
  for (const QueryRequest& request : requests) queries += request.queries.size();
  const std::uint64_t rounds = 1 + kThreads * kRounds;
  EXPECT_EQ(metrics.counter("gosh_serving_batch_queries_total").value(),
            rounds * queries);
  const Histogram& batch_seconds =
      metrics.histogram("gosh_serving_batch_seconds");
  EXPECT_EQ(batch_seconds.count(),
            metrics.counter("gosh_serving_batches_total").value());
  EXPECT_EQ(
      metrics.histogram("gosh_serving_request_latency_seconds").count(),
      rounds * requests.size());
}

}  // namespace
}  // namespace gosh::serving
