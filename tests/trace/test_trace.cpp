// gosh::trace — spans, sampling, the completed-trace ring, and the Chrome
// trace_event export. The cross-thread and concurrent-writer tests run
// under the ThreadSanitizer CI job (suite names Trace* are in the TSan
// filter). Every Tracer here is a local instance, but configure() flips
// the process-wide enabled() gate, so each test restores a disabled state
// on the way out (TracerGuard).
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "gosh/net/json.hpp"
#include "gosh/query/brute_force.hpp"
#include "gosh/serving/scan_combiner.hpp"
#include "gosh/trace/trace.hpp"

namespace gosh::trace {
namespace {

/// Restores the disabled default on scope exit: configure() is last-wins
/// on the global gate, and a test leaking enabled()=true would make every
/// later suite pay tracing costs (and record into dead traces).
struct TracerGuard {
  ~TracerGuard() { set_enabled(false); }
};

TraceOptions sample_all() {
  TraceOptions options;
  options.sample_rate = 1.0;
  return options;
}

TEST(Trace, SpansNestAndRecordInCompletionOrder) {
  TracerGuard guard;
  Tracer tracer(sample_all());
  std::shared_ptr<Trace> trace = tracer.begin("req-1");
  ASSERT_NE(trace, nullptr);
  {
    ScopedTrace scope(trace);
    Span outer("outer");
    {
      Span inner("inner");
    }
    Span sibling("sibling");
  }
  tracer.finish(trace);

  const std::vector<SpanRecord> spans = trace->spans();
  ASSERT_EQ(spans.size(), 3u);
  // RAII records at destruction: inner completes first, outer last.
  EXPECT_EQ(spans[0].name, "inner");
  EXPECT_EQ(spans[1].name, "sibling");
  EXPECT_EQ(spans[2].name, "outer");
  EXPECT_EQ(spans[2].depth, 0u);
  EXPECT_EQ(spans[0].depth, 1u);
  EXPECT_EQ(spans[1].depth, 1u);
  // Containment: outer spans both children on the clock.
  EXPECT_LE(spans[2].begin_ns, spans[0].begin_ns);
  EXPECT_GE(spans[2].end_ns, spans[1].end_ns);
  EXPECT_EQ(tracer.kept(), 1u);
}

TEST(Trace, SpansAreInertWithoutAnInstalledTrace) {
  TracerGuard guard;
  Tracer tracer(sample_all());  // enabled, but no ScopedTrace installed
  {
    Span span("orphan");
  }
  set_enabled(false);
  {
    TRACE_SPAN("disabled");
  }
  EXPECT_EQ(tracer.kept(), 0u);
}

TEST(Trace, BatchQueueHandoffRecordsQueueWaitAndScanIntoTheTrace) {
  TracerGuard guard;
  // The serving shape end to end: a traced caller's exact scan is answered
  // by a shared pass that another request's thread leads, and that leader
  // records queue-wait/scan spans into the caller's trace across the
  // thread handoff.
  embedding::EmbeddingMatrix matrix(64, 8);
  matrix.initialize_random(23);
  const std::string path = ::testing::TempDir() + "trace_queue_" +
                           std::to_string(::getpid()) + ".gshs";
  ASSERT_TRUE(store::EmbeddingStore::write(matrix, path).is_ok());
  auto opened = store::EmbeddingStore::open(path);
  ASSERT_TRUE(opened.ok()) << opened.status().to_string();
  const store::EmbeddingStore& store = opened.value();
  const std::vector<float> norms =
      query::row_inverse_norms(store, query::Metric::kCosine);

  // The first pass holds the combiner until two more requests wait: an
  // untraced one, which leads the second pass, then the traced caller,
  // which that pass takes along.
  std::atomic<bool> held{true};
  std::atomic<int> calls{0};
  serving::ScanCombiner combiner(
      [&](const serving::ScanKey& key, std::span<const float> vectors,
          std::span<const std::size_t> counts,
          const query::RowFilter& filter) {
        if (calls.fetch_add(1) == 0) {
          while (held.load()) std::this_thread::yield();
        }
        return query::scan_top_k_multi(store, vectors, counts, key.k,
                                       key.metric, norms, key.aggregate,
                                       filter);
      },
      64);
  const serving::ScanKey key{query::Metric::kCosine, query::Aggregate::kMax,
                             10};
  const std::vector<float> probe(8, 0.5f);
  const std::vector<std::size_t> one{1};
  std::thread first([&] { (void)combiner.scan(key, probe, one); });
  while (calls.load() == 0) std::this_thread::yield();
  std::thread second([&] { (void)combiner.scan(key, probe, one); });
  while (combiner.waiting() < 1) std::this_thread::yield();
  std::thread releaser([&] {
    while (combiner.waiting() < 2) std::this_thread::yield();
    held.store(false);
  });

  Tracer tracer(sample_all());
  std::shared_ptr<Trace> trace = tracer.begin("req-queue");
  ASSERT_NE(trace, nullptr);
  {
    ScopedTrace scope(trace);
    Span handler("handler");
    auto answers = combiner.scan(key, probe, one);
    ASSERT_TRUE(answers.ok()) << answers.status().to_string();
    EXPECT_EQ(answers.value().front().size(), 10u);
  }
  releaser.join();
  first.join();
  second.join();
  tracer.finish(trace);
  std::remove(path.c_str());

  std::set<std::string> names;
  std::uint32_t handler_thread = 0, scan_thread = 0;
  std::uint64_t wait_begin = 0, wait_end = 0, scan_begin = 0;
  for (const SpanRecord& span : trace->spans()) {
    names.insert(span.name);
    if (span.name == "handler") handler_thread = span.thread;
    if (span.name == "scan") {
      scan_thread = span.thread;
      scan_begin = span.begin_ns;
    }
    if (span.name == "queue-wait") {
      wait_begin = span.begin_ns;
      wait_end = span.end_ns;
    }
  }
  EXPECT_TRUE(names.count("handler"));
  ASSERT_TRUE(names.count("queue-wait"));
  ASSERT_TRUE(names.count("scan"));
  // The leader is a different thread, and the phases abut in order.
  EXPECT_NE(handler_thread, scan_thread);
  EXPECT_LE(wait_begin, wait_end);
  EXPECT_EQ(wait_end, scan_begin);
}

TEST(Trace, RingWrapsUnderConcurrentWriters) {
  TracerGuard guard;
  TraceOptions options = sample_all();
  options.capacity = 8;
  Tracer tracer(options);

  constexpr int kThreads = 4;
  constexpr int kPerThread = 25;
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&tracer, t] {
      for (int i = 0; i < kPerThread; ++i) {
        std::string id = "w";
        id += std::to_string(t);
        id += '-';
        id += std::to_string(i);
        std::shared_ptr<Trace> trace = tracer.begin(id);
        ASSERT_NE(trace, nullptr);
        ScopedTrace scope(trace);
        {
          TRACE_SPAN("work");
        }
        tracer.finish(trace);
      }
    });
  }
  for (std::thread& t : writers) t.join();

  EXPECT_EQ(tracer.finished(), kThreads * kPerThread);
  EXPECT_EQ(tracer.kept(), kThreads * kPerThread);
  const auto snapshot = tracer.snapshot();
  ASSERT_EQ(snapshot.size(), 8u);  // capacity, not everything kept
  for (const auto& trace : snapshot) {
    ASSERT_NE(trace, nullptr);
    EXPECT_EQ(trace->spans().size(), 1u);
    EXPECT_GT(trace->end_ns(), 0u);
  }
}

TEST(Trace, SeededSamplerIsDeterministicAndRespectsTheRate) {
  TracerGuard guard;
  TraceOptions options;
  options.sample_rate = 0.25;
  options.seed = 7;

  const auto decisions = [&options](std::size_t n) {
    Tracer tracer(options);
    std::vector<bool> kept;
    for (std::size_t i = 0; i < n; ++i) {
      std::string id = "r";
      id += std::to_string(i);
      std::shared_ptr<Trace> trace = tracer.begin(id);
      kept.push_back(trace != nullptr);
      tracer.finish(trace);  // null-safe
    }
    return kept;
  };

  const std::vector<bool> first = decisions(400);
  EXPECT_EQ(first, decisions(400));  // same seed + order -> same picks

  const std::size_t picked =
      static_cast<std::size_t>(std::count(first.begin(), first.end(), true));
  EXPECT_GT(picked, 50u);   // ~100 expected at rate 0.25
  EXPECT_LT(picked, 160u);

  options.seed = 8;
  EXPECT_NE(first, decisions(400));  // a different seed picks differently
}

TEST(Trace, SlowRequestsAreKeptEvenWhenSamplingSaysNo) {
  TracerGuard guard;
  TraceOptions options;
  options.sample_rate = 0.0;
  options.slow_ms = 0.0001;  // everything is "slow" at 100ns
  Tracer tracer(options);

  std::shared_ptr<Trace> trace = tracer.begin("slow-1");
  ASSERT_NE(trace, nullptr);  // slow_ms keeps the trace alive past begin()
  EXPECT_FALSE(trace->sampled());
  tracer.finish(trace);
  EXPECT_EQ(tracer.kept(), 1u);
}

TEST(Trace, ExportIsStrictJsonEvenWithHostileRequestIds) {
  TracerGuard guard;
  Tracer tracer(sample_all());
  // sanitize_request_id is the wire-facing guard; the export must still be
  // valid JSON for whatever string a direct caller passes.
  std::shared_ptr<Trace> trace =
      tracer.begin("quote\"back\\slash\x01tab\tid");
  ASSERT_NE(trace, nullptr);
  trace->set_label("POST /v1/query");
  {
    ScopedTrace scope(trace);
    TRACE_SPAN("scan");
  }
  tracer.finish(trace);

  const std::string exported = tracer.export_chrome_json();
  auto parsed = net::json::Value::parse(exported);
  ASSERT_TRUE(parsed.ok()) << parsed.status().to_string() << "\n" << exported;
  const net::json::Value& root = parsed.value();
  ASSERT_NE(root.find("displayTimeUnit"), nullptr);
  const net::json::Value* events = root.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  // process_name metadata + root request event + one span.
  ASSERT_EQ(events->size(), 3u);
  for (std::size_t i = 0; i < events->size(); ++i) {
    const net::json::Value& event = (*events)[i];
    ASSERT_NE(event.find("ph"), nullptr);
    ASSERT_NE(event.find("pid"), nullptr);
    if (event.find("ph")->as_string() == "X") {
      ASSERT_NE(event.find("ts"), nullptr);
      ASSERT_NE(event.find("dur"), nullptr);
      EXPECT_GE(event.find("dur")->as_number(), 0.0);
      ASSERT_NE(event.find("args"), nullptr);
      ASSERT_NE(event.find("args")->find("request_id"), nullptr);
    }
  }
  // The hostile id survived the round-trip (escaped, not mangled).
  EXPECT_NE(exported.find("quote\\\"back\\\\slash"), std::string::npos);
}

TEST(Trace, SanitizeRequestIdScrubsAndCaps) {
  EXPECT_EQ(sanitize_request_id("plain-id-42"), "plain-id-42");
  EXPECT_EQ(sanitize_request_id("a b\"c\\d\x7fz"), "a_b_c_d_z");
  EXPECT_EQ(sanitize_request_id(std::string(300, 'x')).size(), 128u);
  // Empty mints instead of passing emptiness through.
  EXPECT_EQ(sanitize_request_id("").substr(0, 5), "gosh-");
}

TEST(Trace, MintedRequestIdsAreUnique) {
  std::set<std::string> ids;
  for (int i = 0; i < 1000; ++i) ids.insert(mint_request_id());
  EXPECT_EQ(ids.size(), 1000u);
}

TEST(Trace, PerTraceSpanCapSurfacesAsDroppedCount) {
  TracerGuard guard;
  Tracer tracer(sample_all());
  std::shared_ptr<Trace> trace = tracer.begin("cap");
  ASSERT_NE(trace, nullptr);
  for (std::size_t i = 0; i < Trace::kMaxSpans + 10; ++i) {
    trace->record("s", 1, 2);
  }
  tracer.finish(trace);
  EXPECT_EQ(trace->spans().size(), Trace::kMaxSpans);
  EXPECT_EQ(trace->dropped(), 10u);
  // The export names the truncation.
  EXPECT_NE(tracer.export_chrome_json().find("\"dropped_spans\":10"),
            std::string::npos);
}

}  // namespace
}  // namespace gosh::trace
