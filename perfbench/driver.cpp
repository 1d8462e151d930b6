// perfbench_driver — runs one benchmark workload through the public gosh
// surfaces (gosh::api, gosh::serving, gosh::net, gosh::trace) and writes
// what it measured as one JSON document. run.py turns that document into
// the benchmark's metrics; all percentile, lateness and self-time math
// lives there, next to its self-tests. This file only times, records and
// checks.
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                    --work-dir DIR --out FILE
//
// Workloads (why each exists: perfbench/README.md):
//   train-resident     LFR youtube analog, 2^15 vertices, 512 MiB device
//   train-partitioned  LFR soc-sinaweibo analog, 2^17 vertices, 12 MiB
//   serve-direct       32768 x 128 store, one HttpServer, exact strategy
//   serve-scatter      same store in 3 shards, 3 shard children behind a
//                      dist-router parent, all on loopback in-process
//
// With --trace 1 the run also installs trace::Tracer::global() at sample
// rate 1 and dumps every kept trace as Chrome JSON into the work dir.
#include <malloc.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "gosh/api/api.hpp"
#include "gosh/common/zipf.hpp"
#include "gosh/trace/trace.hpp"

namespace {

using namespace gosh;
using net::json::Value;

// ---- Small utilities. -----------------------------------------------------

double seconds_since(std::uint64_t begin_ns) {
  return static_cast<double>(trace::now_ns() - begin_ns) * 1e-9;
}

/// CPU time (user + system) this process has used, in seconds.
double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) *
             1e-6;
}

/// CPU time the calling thread has used, in seconds.
double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Peak resident set of this process (VmHWM), in MiB.
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

/// Resets this process's peak RSS (VmHWM) to its current RSS, so the next
/// peak_rss_mib() reads the peak of what follows.
void reset_peak_rss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
}

Value number(double x) { return Value(x); }

Value numbers(const std::vector<double>& xs) {
  Value array = Value::array();
  for (const double x : xs) array.push_back(Value(x));
  return array;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;
  std::string out;
};

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      auto parsed = api::parse_unsigned(value);
      if (!parsed.ok()) return false;
      args.seed = parsed.value();
    } else if (key == "--seconds") {
      auto parsed = api::parse_real(value);
      if (!parsed.ok() || parsed.value() <= 0.0) return false;
      args.seconds = parsed.value();
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      args.trace = value == "1";
    } else if (key == "--work-dir") {
      args.work_dir = value;
    } else if (key == "--out") {
      args.out = value;
    } else {
      return false;
    }
  }
  return (argc % 2) == 1 && !args.workload.empty() && !args.work_dir.empty() &&
         !args.out.empty();
}

/// Records kept traces for the traced run: a ring large enough that no
/// trace of the run is overwritten.
void enable_tracing(double sample_rate) {
  trace::TraceOptions knobs;
  knobs.sample_rate = sample_rate;
  knobs.capacity = std::size_t{1} << 18;
  trace::Tracer::global().configure(knobs);
}

/// A benchmark-owned trace holding spans the benchmark records itself.
std::shared_ptr<trace::Trace> begin_bench_trace(const std::string& id,
                                                const std::string& label) {
  auto tr = trace::Tracer::global().begin(id);
  if (tr != nullptr) tr->set_label(label);
  return tr;
}

// ---- Training workloads. --------------------------------------------------

struct TrainSpec {
  unsigned vertex_scale = 15;
  double average_degree = 8.68;
  bool large_scale = false;
  unsigned device_mib = 512;
};

/// Per-embed observer: level boundaries and pair ticks, on the benchmark's
/// clock. With a trace installed it also records the "level-N" spans into
/// the current trace and every pair tick-to-tick interval as a "pair" span
/// into `pairs` (a trace of its own, so the pipeline trace stays properly
/// nested).
class BenchObserver final : public api::ProgressObserver {
 public:
  struct Level {
    std::size_t level = 0;
    std::uint64_t begin_ns = 0;
    std::uint64_t end_ns = 0;
    std::vector<double> pair_intervals_s;
  };

  explicit BenchObserver(std::shared_ptr<trace::Trace> pairs)
      : pairs_(std::move(pairs)) {}

  void on_level_begin(const api::LevelInfo& info) override {
    Level level;
    level.level = info.level;
    level.begin_ns = trace::now_ns();
    last_tick_ns_ = level.begin_ns;
    levels_.push_back(std::move(level));
  }
  void on_pair(std::size_t, unsigned, std::size_t, std::size_t) override {
    if (levels_.empty()) return;
    const std::uint64_t now = trace::now_ns();
    levels_.back().pair_intervals_s.push_back(
        static_cast<double>(now - last_tick_ns_) * 1e-9);
    if (pairs_ != nullptr) pairs_->record("pair", last_tick_ns_, now);
    last_tick_ns_ = now;
  }
  void on_level_end(const api::LevelInfo& info, double) override {
    if (levels_.empty()) return;
    Level& level = levels_.back();
    level.end_ns = trace::now_ns();
    if (trace::Trace* current = trace::current()) {
      current->record("level-" + std::to_string(info.level), level.begin_ns,
                      level.end_ns, /*depth=*/1, trace::thread_ordinal());
    }
  }

  const std::vector<Level>& levels() const noexcept { return levels_; }

 private:
  std::shared_ptr<trace::Trace> pairs_;
  std::vector<Level> levels_;
  std::uint64_t last_tick_ns_ = 0;
};

/// Count of non-finite values in an embedding (the finiteness gate's input).
std::size_t count_non_finite(const embedding::EmbeddingMatrix& m) {
  std::size_t non_finite = 0;
  for (vid_t v = 0; v < m.rows(); ++v) {
    for (const float x : m.row(v)) {
      if (!std::isfinite(x)) ++non_finite;
    }
  }
  return non_finite;
}

Value embed_record(const api::EmbedResult& result, double wall_s,
                   const BenchObserver& observer, unsigned negative_samples,
                   unsigned batch_B) {
  Value record = Value::object();
  record.set("wall_s", number(wall_s));
  record.set("coarsening_s", number(result.coarsening_seconds));
  record.set("negative_samples", number(negative_samples));
  record.set("batch_B", number(batch_B));
  Value levels = Value::array();
  for (std::size_t i = 0; i < result.levels.size(); ++i) {
    const embedding::LevelReport& report = result.levels[i];
    Value level = Value::object();
    level.set("level", number(static_cast<double>(i)));
    level.set("vertices", number(report.vertices));
    level.set("passes", number(report.passes));
    level.set("partitioned", Value(report.used_large_graph_path));
    level.set("train_s", number(report.train_seconds));
    level.set("partitions", number(report.partitions));
    level.set("rotations", number(report.rotations));
    level.set("pair_kernels",
              number(static_cast<double>(report.pair_kernels)));
    level.set("switches",
              number(static_cast<double>(report.submatrix_switches)));
    levels.push_back(std::move(level));
  }
  record.set("levels", std::move(levels));
  Value events = Value::array();
  for (const BenchObserver::Level& level : observer.levels()) {
    Value event = Value::object();
    event.set("level", number(static_cast<double>(level.level)));
    event.set("begin_ns", number(static_cast<double>(level.begin_ns)));
    event.set("end_ns", number(static_cast<double>(level.end_ns)));
    event.set("pair_intervals_s", numbers(level.pair_intervals_s));
    events.push_back(std::move(event));
  }
  record.set("observer_levels", std::move(events));
  Value device = Value::object();
  const simt::MetricsSnapshot& metrics = result.device_metrics;
  device.set("kernels",
             number(static_cast<double>(metrics.kernels_launched)));
  device.set("h2d_bytes", number(static_cast<double>(metrics.h2d_bytes)));
  device.set("d2h_bytes", number(static_cast<double>(metrics.d2h_bytes)));
  record.set("device", std::move(device));
  return record;
}

int run_train(const Args& args, const TrainSpec& spec, Value& out) {
  // ---- Set-up: graph generation and the 80/20 split, several times. ----
  const vid_t n = vid_t{1} << spec.vertex_scale;
  graph::LfrParams params;
  params.average_degree = spec.average_degree;
  params.communities = std::max<vid_t>(4, n / 64);
  params.mixing = 0.15;
  constexpr int kSetups = 5;
  std::vector<double> setup_s, generate_s, split_s;
  graph::LinkPredictionSplit split;
  for (int rep = 0; rep < kSetups; ++rep) {
    const std::uint64_t t0 = trace::now_ns();
    graph::Graph g = graph::lfr_like(n, params, args.seed);
    const std::uint64_t t1 = trace::now_ns();
    split = graph::split_for_link_prediction(g, {.seed = args.seed});
    const std::uint64_t t2 = trace::now_ns();
    generate_s.push_back(static_cast<double>(t1 - t0) * 1e-9);
    split_s.push_back(static_cast<double>(t2 - t1) * 1e-9);
    setup_s.push_back(static_cast<double>(t2 - t0) * 1e-9);
  }
  out.set("setup_s", numbers(setup_s));
  out.set("generate_s", numbers(generate_s));
  out.set("split_s", numbers(split_s));
  out.set("train_vertices", number(split.train.num_vertices()));
  out.set("train_edges",
          number(static_cast<double>(split.train.num_edges_undirected())));
  out.set("test_edges", number(static_cast<double>(split.test_edges.size())));

  api::Options options;
  for (const auto& [key, value] :
       std::vector<std::pair<std::string, std::string>>{
           {"preset", "normal"},
           {"large-scale", spec.large_scale ? "true" : "false"},
           {"dim", "128"},
           {"device-mib", std::to_string(spec.device_mib)}}) {
    if (api::Status status = options.set(key, value); !status.is_ok()) {
      std::fprintf(stderr, "error: %s\n", status.to_string().c_str());
      return 1;
    }
  }
  if (api::Status status = options.validate(); !status.is_ok()) {
    std::fprintf(stderr, "error: %s\n", status.to_string().c_str());
    return 1;
  }
  const unsigned negative_samples = options.train().negative_samples;
  const unsigned batch_B = options.gosh.large_graph.batch_B;

  // ---- Timed phase: back-to-back embeds of the train split. -------------
  // The untraced run repeats api::embed until --seconds have passed; the
  // traced run does one untraced embed (the overhead baseline) and one
  // traced embed.
  Value embeds = Value::array();
  embedding::EmbeddingMatrix last;
  std::shared_ptr<trace::Trace> profile;
  std::shared_ptr<trace::Trace> pairs;
  const std::uint64_t phase_begin = trace::now_ns();
  for (int i = 0;; ++i) {
    const bool traced = args.trace && i == 1;
    if (traced) {
      enable_tracing(1.0);
      profile = begin_bench_trace("pb-train", "train");
      pairs = begin_bench_trace("pb-pairs", "pairs");
    }
    BenchObserver observer(traced ? pairs : nullptr);
    trace::ScopedTrace scope(traced ? profile : nullptr);
    // Every embed starts from the same memory state: the previous result
    // released and the allocator's free pages returned, so its peak RSS is
    // that of a fresh process embedding once.
    last = embedding::EmbeddingMatrix();
    malloc_trim(0);
    reset_peak_rss();
    const std::uint64_t t0 = trace::now_ns();
    const double cpu0 = process_cpu_s();
    api::Result<api::EmbedResult> embedded = [&] {
      trace::Span span("embed");
      return api::embed(split.train, options, &observer);
    }();
    const double wall_s = seconds_since(t0);
    const double cpu_s = process_cpu_s() - cpu0;
    const double embed_peak_rss_mib = peak_rss_mib();
    Value record = Value::object();
    if (embedded.ok()) {
      record = embed_record(embedded.value(), wall_s, observer,
                            negative_samples, batch_B);
      const std::size_t non_finite =
          count_non_finite(embedded.value().embedding);
      record.set("non_finite", number(static_cast<double>(non_finite)));
      last = std::move(embedded.value().embedding);
    }
    record.set("cpu_s", number(cpu_s));
    record.set("peak_rss_mib", number(embed_peak_rss_mib));
    record.set("ok", Value(embedded.ok()));
    record.set("status", Value(embedded.status().to_string()));
    record.set("traced", Value(traced));
    embeds.push_back(std::move(record));
    if (args.trace ? i == 1 : seconds_since(phase_begin) >= args.seconds) {
      break;
    }
  }
  out.set("embeds", std::move(embeds));

  // ---- Evaluation of the last embedding (outside the timed phase). ------
  // One bounded setting for every run: the SGD solver on at most 20000
  // train positives.
  eval::LinkPredictionOptions eval_options;
  eval_options.logreg.solver = eval::LogRegConfig::Solver::kSgd;
  eval_options.logreg.max_iterations = 10;
  eval_options.max_train_edges = 20000;
  eval_options.negative_seed = args.seed + 99;
  double auc = 0.0;
  double eval_s = 0.0;
  if (last.rows() == split.train.num_vertices() && last.rows() > 0) {
    trace::ScopedTrace scope(profile);
    const std::uint64_t t0 = trace::now_ns();
    trace::Span span("eval");
    const eval::LinkPredictionReport report =
        eval::evaluate_link_prediction(last, split, eval_options);
    eval_s = seconds_since(t0);
    auc = report.auc_roc;
  }
  out.set("auc", number(auc));
  out.set("eval_s", number(eval_s));

  if (args.trace) {
    trace::Tracer& tracer = trace::Tracer::global();
    tracer.finish(profile);
    tracer.finish(pairs);
    const std::string path =
        (std::filesystem::path(args.work_dir) / "trace.json").string();
    if (api::Status status = trace::write_chrome_json(tracer, path);
        !status.is_ok()) {
      std::fprintf(stderr, "error: %s\n", status.to_string().c_str());
      return 1;
    }
    out.set("chrome_trace", Value(path));
  }
  return 0;
}

// ---- Serving workloads. ---------------------------------------------------

constexpr vid_t kRows = 32768;
constexpr unsigned kDim = 128;
constexpr unsigned kK = 10;
constexpr unsigned kShards = 3;
constexpr unsigned kClients = 4;

/// One served endpoint: a QueryService behind its own HttpServer.
struct Node {
  serving::MetricsRegistry metrics;
  std::unique_ptr<serving::QueryService> service;
  std::unique_ptr<net::QueryHandler> handler;
  net::HealthState health;
  std::unique_ptr<net::HttpServer> server;
};

/// The whole serving topology of one workload, shut down in reverse order
/// (front first, so no request is in flight towards a stopped child).
struct Topology {
  std::vector<std::unique_ptr<Node>> children;
  std::unique_ptr<Node> front;

  ~Topology() {
    if (front != nullptr && front->server != nullptr) front->server->shutdown();
    for (auto& child : children) {
      if (child->server != nullptr) child->server->shutdown();
    }
  }
};

struct SetupTimes {
  double write_s = 0.0;
  double open_s = 0.0;
  double start_s = 0.0;
  double warm_s = 0.0;
  double total_s = 0.0;
};

net::NetOptions net_options(bool traced) {
  net::NetOptions options;
  options.host = "127.0.0.1";
  options.port = 0;
  if (traced) options.trace_sample_rate = 1.0;
  return options;
}

api::Status open_node(Node& node, const serving::ServeOptions& options) {
  auto service = serving::make_service(options, &node.metrics);
  if (!service.ok()) return service.status();
  node.service = std::move(service.value());
  return api::Status::ok();
}

api::Status start_node(Node& node, bool traced, std::uint64_t rows,
                       unsigned shards) {
  node.handler = std::make_unique<net::QueryHandler>(*node.service);
  node.server =
      std::make_unique<net::HttpServer>(net_options(traced), &node.metrics);
  net::QueryHandler* handler = node.handler.get();
  node.server->handle("POST", "/v1/query",
                      [handler](const net::HttpRequest& request) {
                        return handler->handle(request);
                      });
  net::add_builtin_routes(*node.server, node.metrics, nullptr, &node.health);
  if (api::Status status = node.server->start(); !status.is_ok()) {
    return status;
  }
  node.health.rows.store(rows, std::memory_order_relaxed);
  node.health.dim.store(kDim, std::memory_order_relaxed);
  node.health.shards.store(shards, std::memory_order_relaxed);
  node.health.ready.store(true, std::memory_order_release);
  return api::Status::ok();
}

api::Status wait_ready(unsigned short port) {
  net::HttpClient client("127.0.0.1", port);
  for (int attempt = 0; attempt < 200; ++attempt) {
    auto health = client.get("/readyz");
    if (health.ok() && health.value().status == 200) {
      return api::Status::ok();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return api::Status::unavailable("server on port " + std::to_string(port) +
                                  " never became ready");
}

std::string query_body(vid_t probe) {
  return "{\"queries\":[{\"vertex\":" + std::to_string(probe) +
         "}],\"k\":" + std::to_string(kK) + "}";
}

/// Per-request answer codes, judged by run.py: every answer must be a 200
/// with one list of exactly k neighbours that is not degraded.
enum AnswerCode : int {
  kAnswerOk = 0,
  kTransportError = 1,
  kNon200 = 2,
  kUnparsable = 3,
  kDegraded = 4,
  kWrongCount = 5,
};

AnswerCode check_answer(int status, const std::string& text,
                        serving::QueryResponse* parsed_out) {
  if (status == 0) return kTransportError;
  if (status != 200) return kNon200;
  auto body = Value::parse(text);
  if (!body.ok()) return kUnparsable;
  auto parsed = net::QueryHandler::parse_response(body.value());
  if (!parsed.ok()) return kUnparsable;
  if (parsed.value().degraded) return kDegraded;
  if (parsed.value().results.size() != 1 ||
      parsed.value().results[0].size() != kK) {
    return kWrongCount;
  }
  if (parsed_out != nullptr) *parsed_out = std::move(parsed.value());
  return kAnswerOk;
}

/// Neighbours as [[id, score bits], ...] so run.py can compare them bit
/// for bit.
Value neighbour_bits(const std::vector<serving::Neighbor>& neighbours) {
  Value list = Value::array();
  for (const serving::Neighbor& n : neighbours) {
    std::uint32_t bits = 0;
    std::memcpy(&bits, &n.score, sizeof bits);
    Value pair = Value::array();
    pair.push_back(Value(static_cast<double>(n.id)));
    pair.push_back(Value(static_cast<double>(bits)));
    list.push_back(std::move(pair));
  }
  return list;
}

/// One request as the load generator saw it. Times are trace::now_ns().
/// The answer is checked as it lands; only sampled answers are kept, for
/// the bit-identity comparison after the timed phase.
struct Exchange {
  std::uint64_t scheduled_ns = 0;  ///< open loop only; else = sent_ns
  std::uint64_t sent_ns = 0;
  std::uint64_t done_ns = 0;
  std::uint64_t seq = 0;  ///< position in the probe sequence
  vid_t probe = 0;
  AnswerCode code = kTransportError;
  bool sampled = false;
  std::vector<serving::Neighbor> got;  ///< sampled answers only
};

/// Seeded choice of the answers compared bit for bit: about one in 64.
bool sampled_for_check(std::uint64_t seed, std::uint64_t seq) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + seq + 1;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return ((z ^ (z >> 31)) & 63) == 0;
}

/// POSTs one probe under the benchmark's request id and checks the answer
/// once the response has been timed.
void exchange(net::HttpClient& client, const std::string& id, Exchange& ex) {
  ex.sent_ns = trace::now_ns();
  auto response = client.request(
      "POST", "/v1/query", query_body(ex.probe),
      {{"Content-Type", "application/json"}, {"X-Request-Id", id}});
  ex.done_ns = trace::now_ns();
  serving::QueryResponse answer;
  ex.code = response.ok() ? check_answer(response.value().status,
                                         response.value().body, &answer)
                          : kTransportError;
  if (ex.code == kAnswerOk && ex.sampled) ex.got = std::move(answer.results[0]);
}

/// Open loop: arrivals evenly spaced at `rate` for `seconds`, shared by
/// kClients threads, each owning one keep-alive connection. A request is
/// sent by whichever thread is free once it is due; its latency counts
/// from when it was due.
std::vector<Exchange> open_loop(std::vector<net::HttpClient*> clients,
                                const std::vector<vid_t>& probes,
                                std::uint64_t seed, std::size_t& cursor,
                                double rate, double seconds,
                                const std::string& id_prefix) {
  const std::size_t count = static_cast<std::size_t>(rate * seconds);
  std::vector<Exchange> exchanges(count);
  const std::uint64_t start = trace::now_ns() + 2'000'000;  // 2 ms lead
  const double interval_ns = 1e9 / rate;
  for (std::size_t i = 0; i < count; ++i) {
    exchanges[i].scheduled_ns =
        start +
        static_cast<std::uint64_t>(interval_ns * static_cast<double>(i));
    exchanges[i].seq = cursor + i;
    exchanges[i].probe = probes[exchanges[i].seq % probes.size()];
    exchanges[i].sampled = sampled_for_check(seed, exchanges[i].seq);
  }
  cursor += count;
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> threads;
  for (net::HttpClient* client : clients) {
    threads.emplace_back([&, client] {
      for (;;) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= count) return;
        Exchange& ex = exchanges[i];
        const std::uint64_t now = trace::now_ns();
        if (ex.scheduled_ns > now) {
          std::this_thread::sleep_for(
              std::chrono::nanoseconds(ex.scheduled_ns - now));
        }
        exchange(*client, id_prefix + std::to_string(i), ex);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return exchanges;
}

/// One CPU sample of the closed loop: the process's CPU time and the part
/// of it the load generator's own threads used, at time `at_s`.
struct CpuSample {
  double at_s = 0.0;
  double process_s = 0.0;
  double loadgen_s = 0.0;
};

/// Closed loop: every client thread sends its next request the moment its
/// previous answer lands, until `seconds` have passed. Meanwhile the
/// calling thread samples CPU time every 250 ms, so run.py can charge the
/// serving system (the process minus the load generator) per window.
std::vector<Exchange> closed_loop(std::vector<net::HttpClient*> clients,
                                  const std::vector<vid_t>& probes,
                                  std::uint64_t seed, std::size_t& cursor,
                                  double seconds, std::uint64_t& start_ns,
                                  double& elapsed_s,
                                  std::vector<CpuSample>& cpu) {
  std::vector<std::vector<Exchange>> per_client(clients.size());
  std::atomic<std::size_t> next{cursor};
  const std::uint64_t start = trace::now_ns();
  start_ns = start;
  const std::uint64_t deadline =
      start + static_cast<std::uint64_t>(seconds * 1e9);
  // Per-thread load-generator CPU, published after every request.
  std::vector<std::atomic<double>> loadgen_cpu(clients.size());
  for (auto& x : loadgen_cpu) x.store(0.0);
  const auto sample = [&] {
    CpuSample at;
    at.at_s = static_cast<double>(trace::now_ns()) * 1e-9;
    at.process_s = process_cpu_s();
    for (const auto& x : loadgen_cpu) {
      at.loadgen_s += x.load(std::memory_order_relaxed);
    }
    cpu.push_back(at);
  };
  sample();
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients.size(); ++c) {
    threads.emplace_back([&, c] {
      const double base = thread_cpu_s();
      while (trace::now_ns() < deadline) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        Exchange ex;
        ex.seq = i;
        ex.probe = probes[i % probes.size()];
        ex.sampled = sampled_for_check(seed, i);
        exchange(*clients[c], "pb-closed-" + std::to_string(i), ex);
        ex.scheduled_ns = ex.sent_ns;
        per_client[c].push_back(std::move(ex));
        loadgen_cpu[c].store(thread_cpu_s() - base,
                             std::memory_order_relaxed);
      }
    });
  }
  while (trace::now_ns() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(250));
    sample();
  }
  for (std::thread& t : threads) t.join();
  sample();
  elapsed_s = seconds_since(start);
  cursor = next.load();
  std::vector<Exchange> all;
  for (auto& list : per_client) {
    for (Exchange& ex : list) all.push_back(std::move(ex));
  }
  return all;
}

/// Reads one sample (`name value`) from a Prometheus text exposition; 0
/// when the series is absent.
double prometheus_sample(const std::string& text, const std::string& name) {
  const std::string needle = "\n" + name + " ";
  const std::size_t at = text.find(needle);
  if (at == std::string::npos) return 0.0;
  return std::strtod(text.c_str() + at + needle.size(), nullptr);
}

/// The counters the benchmark reads from a node's /metrics exposition.
/// The text comes from the node's registry in-process, the same text the
/// /metrics route serves, so reading it opens no connection of its own.
Value scrape_counters(const Node& node) {
  const std::string text = "\n" + node.metrics.expose();
  Value counters = Value::object();
  for (const char* name :
       {"gosh_http_connections_total", "gosh_remote_retries_total",
        "gosh_remote_hedges_total", "gosh_remote_breaker_open_total",
        "gosh_remote_degraded_responses_total",
        "gosh_serving_requests_total"}) {
    counters.set(name, number(prometheus_sample(text, name)));
  }
  return counters;
}

/// Counters of every server in the topology, front and children.
Value scrape_topology(const Topology& topo) {
  Value counters = Value::object();
  counters.set("front", scrape_counters(*topo.front));
  Value children = Value::array();
  for (const auto& child : topo.children) {
    children.push_back(scrape_counters(*child));
  }
  counters.set("children", std::move(children));
  return counters;
}

Value exchanges_record(const std::vector<Exchange>& exchanges) {
  Value record = Value::object();
  std::vector<double> scheduled, sent, done;
  for (const Exchange& ex : exchanges) {
    scheduled.push_back(static_cast<double>(ex.scheduled_ns) * 1e-9);
    sent.push_back(static_cast<double>(ex.sent_ns) * 1e-9);
    done.push_back(static_cast<double>(ex.done_ns) * 1e-9);
  }
  record.set("scheduled_s", numbers(scheduled));
  record.set("sent_s", numbers(sent));
  record.set("done_s", numbers(done));
  return record;
}

/// Builds the serving topology once: store writes, service opens (with
/// the default checksum verification), server starts, readiness, warm-up.
api::Status build_topology(const Args& args, bool scatter,
                           const embedding::EmbeddingMatrix& matrix,
                           const std::vector<vid_t>& probes, Topology& topo,
                           SetupTimes& times) {
  const std::uint64_t t0 = trace::now_ns();
  const std::filesystem::path dir(args.work_dir);
  const std::string store_path =
      (dir / (scatter ? "sharded.gshs" : "whole.gshs")).string();
  store::StoreOptions layout;
  if (scatter) layout.rows_per_shard = (kRows + kShards - 1) / kShards;
  if (api::Status status = store::EmbeddingStore::write(matrix, store_path,
                                                        layout);
      !status.is_ok()) {
    return status;
  }
  const std::uint64_t t1 = trace::now_ns();

  serving::ServeOptions base;
  base.store_path = store_path;
  base.strategy = "exact";
  base.k = kK;
  std::string backends;
  if (scatter) {
    for (unsigned s = 0; s < kShards; ++s) {
      auto child = std::make_unique<Node>();
      serving::ServeOptions child_options = base;
      child_options.shard_index = s;
      child_options.shard_count = kShards;
      if (api::Status status = open_node(*child, child_options);
          !status.is_ok()) {
        return status;
      }
      topo.children.push_back(std::move(child));
    }
  }
  auto front = std::make_unique<Node>();
  std::uint64_t child_start_ns = 0;
  if (scatter) {
    // Children must listen before the dist-router opens: it discovers the
    // shard layout from the store and probes each backend's /healthz.
    const std::uint64_t c0 = trace::now_ns();
    for (unsigned s = 0; s < kShards; ++s) {
      Node& child = *topo.children[s];
      const std::uint64_t begin = std::uint64_t{s} * layout.rows_per_shard;
      const std::uint64_t shard_rows =
          std::min<std::uint64_t>(layout.rows_per_shard, kRows - begin);
      if (api::Status status = start_node(child, args.trace, shard_rows, 1);
          !status.is_ok()) {
        return status;
      }
      if (api::Status status = wait_ready(child.server->port());
          !status.is_ok()) {
        return status;
      }
      if (!backends.empty()) backends += ",";
      backends += "127.0.0.1:" + std::to_string(child.server->port());
    }
    child_start_ns = trace::now_ns() - c0;
    serving::ServeOptions router = base;
    router.strategy = "dist-router";
    router.backends = backends;
    if (api::Status status = open_node(*front, router); !status.is_ok()) {
      return status;
    }
  } else {
    if (api::Status status = open_node(*front, base); !status.is_ok()) {
      return status;
    }
  }
  const std::uint64_t t2 = trace::now_ns();
  if (api::Status status =
          start_node(*front, args.trace, kRows, scatter ? kShards : 1);
      !status.is_ok()) {
    return status;
  }
  if (api::Status status = wait_ready(front->server->port());
      !status.is_ok()) {
    return status;
  }
  topo.front = std::move(front);
  const std::uint64_t t3 = trace::now_ns();

  // Warm-up: a fixed closed-loop batch through the front so lazy set-up
  // (page faults on the mapped store, connection pools) is paid here.
  {
    std::vector<std::unique_ptr<net::HttpClient>> owned;
    std::vector<net::HttpClient*> clients;
    for (unsigned c = 0; c < kClients; ++c) {
      owned.push_back(std::make_unique<net::HttpClient>(
          "127.0.0.1", topo.front->server->port()));
      clients.push_back(owned.back().get());
    }
    std::atomic<std::size_t> next{0};
    std::atomic<bool> ok{true};
    std::vector<std::thread> threads;
    for (net::HttpClient* client : clients) {
      threads.emplace_back([&, client] {
        for (std::size_t i = next.fetch_add(1); i < 400;
             i = next.fetch_add(1)) {
          Exchange ex;
          ex.probe = probes[(probes.size() - 1 - i) % probes.size()];
          exchange(*client, "pb-warm-" + std::to_string(i), ex);
          if (ex.code != kAnswerOk) ok.store(false);
        }
      });
    }
    for (std::thread& t : threads) t.join();
    if (!ok.load()) return api::Status::unavailable("warm-up answers failed");
  }
  const std::uint64_t t4 = trace::now_ns();
  times.write_s = static_cast<double>(t1 - t0) * 1e-9;
  times.open_s = static_cast<double>(t2 - t1 - child_start_ns) * 1e-9;
  times.start_s = static_cast<double>(t3 - t2 + child_start_ns) * 1e-9;
  times.warm_s = static_cast<double>(t4 - t3) * 1e-9;
  times.total_s = static_cast<double>(t4 - t0) * 1e-9;
  return api::Status::ok();
}

int run_serve(const Args& args, bool scatter, Value& out) {
  const double rate = scatter ? 300.0 : 600.0;

  // Inputs from the seed: the store matrix and the Zipf(1.0) probe order.
  embedding::EmbeddingMatrix matrix(kRows, kDim);
  matrix.initialize_random(args.seed);
  Rng rng(args.seed * 7919 + 1);
  ZipfSampler zipf(kRows, 1.0, rng);
  std::vector<vid_t> probes(1 << 16);
  for (vid_t& probe : probes) probe = zipf.sample(rng);

  if (args.trace) {
    // Servers pick the global tracer up at construction; it stays
    // inactive until the traced phase.
    enable_tracing(0.0);
  }

  // ---- Set-up, several times; the last topology is measured. ------------
  constexpr int kSetups = 5;
  std::vector<double> setup_s, write_s, open_s, start_s, warm_s;
  std::unique_ptr<Topology> topo;
  for (int rep = 0; rep < kSetups; ++rep) {
    topo.reset();
    topo = std::make_unique<Topology>();
    SetupTimes times;
    if (api::Status status =
            build_topology(args, scatter, matrix, probes, *topo, times);
        !status.is_ok()) {
      std::fprintf(stderr, "error: set-up: %s\n", status.to_string().c_str());
      return 1;
    }
    setup_s.push_back(times.total_s);
    write_s.push_back(times.write_s);
    open_s.push_back(times.open_s);
    start_s.push_back(times.start_s);
    warm_s.push_back(times.warm_s);
  }
  if (args.trace) enable_tracing(0.0);
  out.set("setup_s", numbers(setup_s));
  out.set("store_write_s", numbers(write_s));
  out.set("store_open_s", numbers(open_s));
  out.set("server_start_s", numbers(start_s));
  out.set("warm_up_s", numbers(warm_s));

  const unsigned short port = topo->front->server->port();
  std::vector<std::unique_ptr<net::HttpClient>> owned;
  std::vector<net::HttpClient*> clients;
  for (unsigned c = 0; c < kClients; ++c) {
    owned.push_back(std::make_unique<net::HttpClient>("127.0.0.1", port));
    clients.push_back(owned.back().get());
    auto connected = clients.back()->get("/healthz");
    if (!connected.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   connected.status().to_string().c_str());
      return 1;
    }
  }

  // ---- Timed phase: open loop at the workload's rate, then closed loop. -
  // The traced run measures the open loop twice, untraced then traced,
  // and replaces the closed loop by the in-process baselines.
  Value after_setup = scrape_topology(*topo);
  std::size_t cursor = 0;
  const double open_seconds = args.trace ? 5.0 : args.seconds * 0.4;
  const double closed_seconds = args.seconds - open_seconds;
  std::vector<Exchange> open =
      open_loop(clients, probes, args.seed, cursor, rate, open_seconds,
                "pb-open-");
  Value after_open = scrape_topology(*topo);
  std::vector<Exchange> closed;
  double closed_elapsed = 0.0;
  std::uint64_t closed_start = 0;
  std::vector<CpuSample> closed_cpu;
  std::vector<Exchange> traced;
  if (!args.trace) {
    closed = closed_loop(clients, probes, args.seed, cursor, closed_seconds,
                         closed_start, closed_elapsed, closed_cpu);
  } else {
    enable_tracing(1.0);
    traced = open_loop(clients, probes, args.seed, cursor, rate,
                       open_seconds, "pb-traced-");
    trace::Tracer& tracer = trace::Tracer::global();
    for (std::size_t i = 0; i < traced.size(); ++i) {
      auto tr =
          begin_bench_trace("pb-traced-" + std::to_string(i), "loadgen");
      if (tr == nullptr) continue;
      tr->record("client", traced[i].sent_ns, traced[i].done_ns);
      tracer.finish(tr);
    }
  }
  out.set("peak_rss_mib", number(peak_rss_mib()));

  Value counters = Value::object();
  counters.set("after_setup", std::move(after_setup));
  counters.set("after_open", std::move(after_open));
  counters.set("end", scrape_topology(*topo));
  out.set("counters", std::move(counters));

  // ---- In-process baselines (traced run): the front QueryService called
  // ---- directly with the same probes, one caller, then kClients callers.
  if (args.trace) {
    serving::QueryService& service = *topo->front->service;
    std::vector<double> inproc_s;
    const std::uint64_t t0 = trace::now_ns();
    for (std::size_t i = 0; seconds_since(t0) < 2.0; ++i) {
      auto tr =
          begin_bench_trace("pb-inproc-" + std::to_string(i), "inproc");
      trace::ScopedTrace scope(tr);
      const std::uint64_t b = trace::now_ns();
      {
        trace::Span span("inproc-serve");
        auto response = service.serve(
            serving::QueryRequest::for_vertex(probes[i % probes.size()], kK));
        if (!response.ok()) {
          std::fprintf(stderr, "error: in-process serve: %s\n",
                       response.status().to_string().c_str());
          return 1;
        }
      }
      inproc_s.push_back(seconds_since(b));
      trace::Tracer::global().finish(tr);
    }
    out.set("inproc_latency_s", numbers(inproc_s));
    enable_tracing(0.0);
    std::atomic<std::size_t> served{0};
    std::atomic<bool> ok{true};
    const std::uint64_t start = trace::now_ns();
    const std::uint64_t deadline = start + 2'000'000'000;
    std::vector<std::thread> threads;
    for (unsigned c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        for (std::size_t i = c; trace::now_ns() < deadline; i += kClients) {
          auto response = service.serve(serving::QueryRequest::for_vertex(
              probes[i % probes.size()], kK));
          if (!response.ok()) ok.store(false);
          served.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    for (std::thread& t : threads) t.join();
    if (!ok.load()) {
      std::fprintf(stderr, "error: in-process serve failed\n");
      return 1;
    }
    const double elapsed = seconds_since(start);
    out.set("inproc_qps",
            number(static_cast<double>(served.load()) / elapsed));
  }

  // ---- Correctness: every answer, and a seeded sample bit-identical to an
  // ---- in-process exact service over the unsharded store. ----------------
  std::vector<Exchange*> all;
  for (auto* list : {&open, &closed, &traced}) {
    for (Exchange& ex : *list) all.push_back(&ex);
  }
  const std::string whole_path =
      (std::filesystem::path(args.work_dir) / "whole.gshs").string();
  if (scatter) {
    if (api::Status status =
            store::EmbeddingStore::write(matrix, whole_path, {});
        !status.is_ok()) {
      std::fprintf(stderr, "error: %s\n", status.to_string().c_str());
      return 1;
    }
  }
  serving::ServeOptions reference_options;
  reference_options.store_path = whole_path;
  reference_options.strategy = "exact";
  reference_options.k = kK;
  auto reference = serving::make_service(reference_options);
  if (!reference.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 reference.status().to_string().c_str());
    return 1;
  }
  Value codes = Value::array();
  Value sample = Value::array();
  for (const Exchange* ex : all) {
    codes.push_back(Value(static_cast<int>(ex->code)));
    if (ex->code != kAnswerOk || !ex->sampled) continue;
    auto expected = reference.value()->serve(
        serving::QueryRequest::for_vertex(ex->probe, kK));
    Value entry = Value::object();
    entry.set("request", number(static_cast<double>(ex->seq)));
    entry.set("probe", number(ex->probe));
    entry.set("got", neighbour_bits(ex->got));
    entry.set("want", expected.ok() && expected.value().results.size() == 1
                          ? neighbour_bits(expected.value().results[0])
                          : Value::array());
    sample.push_back(std::move(entry));
  }
  out.set("answer_codes", std::move(codes));
  out.set("sample", std::move(sample));

  out.set("rate_qps", number(rate));
  out.set("open", exchanges_record(open));
  if (!args.trace) {
    Value closed_record = exchanges_record(closed);
    closed_record.set("start_s",
                      number(static_cast<double>(closed_start) * 1e-9));
    closed_record.set("elapsed_s", number(closed_elapsed));
    Value at = Value::array(), process = Value::array(),
          loadgen = Value::array();
    for (const CpuSample& sample : closed_cpu) {
      at.push_back(number(sample.at_s));
      process.push_back(number(sample.process_s));
      loadgen.push_back(number(sample.loadgen_s));
    }
    Value cpu = Value::object();
    cpu.set("at_s", std::move(at));
    cpu.set("process_s", std::move(process));
    cpu.set("loadgen_s", std::move(loadgen));
    closed_record.set("cpu", std::move(cpu));
    out.set("closed", std::move(closed_record));
  } else {
    Value traced_record = exchanges_record(traced);
    Value ids = Value::array();
    for (std::size_t i = 0; i < traced.size(); ++i) {
      ids.push_back(Value("pb-traced-" + std::to_string(i)));
    }
    traced_record.set("ids", std::move(ids));
    out.set("traced", std::move(traced_record));
    const std::string path =
        (std::filesystem::path(args.work_dir) / "trace.json").string();
    if (api::Status status =
            trace::write_chrome_json(trace::Tracer::global(), path);
        !status.is_ok()) {
      std::fprintf(stderr, "error: %s\n", status.to_string().c_str());
      return 1;
    }
    out.set("chrome_trace", Value(path));
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload NAME --seed N "
                 "--seconds S --trace 0|1 --work-dir DIR --out FILE\n");
    return 2;
  }
  std::filesystem::create_directories(args.work_dir);

  Value out = Value::object();
  out.set("workload", Value(args.workload));
  out.set("seed", number(static_cast<double>(args.seed)));
  out.set("trace", Value(args.trace));
  out.set("simd_isa",
          Value(std::string(simd::isa_name(simd::active_isa()))));
  out.set("compiler", Value(std::string(PERFBENCH_COMPILER)));
  out.set("build_type", Value(std::string(PERFBENCH_BUILD_TYPE)));
  out.set("hardware_concurrency",
          number(std::thread::hardware_concurrency()));

  int rc = 0;
  if (args.workload == "train-resident") {
    TrainSpec spec;
    spec.vertex_scale = 15;
    spec.average_degree = 8.68;
    spec.device_mib = 512;
    rc = run_train(args, spec, out);
  } else if (args.workload == "train-partitioned") {
    TrainSpec spec;
    spec.vertex_scale = 17;
    spec.average_degree = 8.92;
    spec.large_scale = true;
    spec.device_mib = 12;
    rc = run_train(args, spec, out);
  } else if (args.workload == "serve-direct" ||
             args.workload == "serve-scatter") {
    rc = run_serve(args, args.workload == "serve-scatter", out);
  } else {
    std::fprintf(stderr, "error: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  if (rc != 0) return rc;

  std::ofstream file(args.out);
  file << out.dump() << "\n";
  file.close();
  if (!file) {
    std::fprintf(stderr, "error: cannot write %s\n", args.out.c_str());
    return 1;
  }
  return 0;
}
