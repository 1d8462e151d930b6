#include "gosh/serving/registry.hpp"

#include <algorithm>
#include <exception>
#include <filesystem>
#include <new>

#include "gosh/cache/cached_service.hpp"
#include "gosh/serving/dist_router.hpp"
#include "gosh/serving/remote.hpp"

namespace gosh::serving {

namespace {

void register_builtin_services(ServiceRegistry& registry) {
  const auto engine_factory = [](Strategy strategy) {
    return [strategy](const ServeOptions& options, MetricsRegistry* metrics)
               -> api::Result<std::unique_ptr<QueryService>> {
      auto service = EngineService::open(options, strategy, metrics);
      if (!service.ok()) return service.status();
      return std::unique_ptr<QueryService>(std::move(service).value());
    };
  };
  (void)registry.add("exact", engine_factory(Strategy::kExact));
  (void)registry.add("hnsw", engine_factory(Strategy::kHnsw));
  // "router" names the exact scan: one engine already scans every shard
  // of a sharded store, so an in-process scatter would only repeat it.
  (void)registry.add("router", engine_factory(Strategy::kExact));
  // "remote" forwards to replicas of one logical backend over HTTP; the
  // endpoint list comes from --backends (the "remote:<host:port,...>"
  // prefix form is resolved in ServiceRegistry::create before this
  // factory runs, by rewriting options.backends).
  (void)registry.add(
      "remote",
      [](const ServeOptions& options, MetricsRegistry* metrics)
          -> api::Result<std::unique_ptr<QueryService>> {
        auto groups = parse_backends(options.backends);
        if (!groups.ok()) return groups.status();
        // Every entry is a replica of the same store here; ',' and '|'
        // both flatten.
        std::vector<Endpoint> replicas;
        for (std::vector<Endpoint>& group : groups.value()) {
          for (Endpoint& endpoint : group) {
            replicas.push_back(std::move(endpoint));
          }
        }
        auto service = RemoteService::open(std::move(replicas), options,
                                           metrics);
        if (!service.ok()) return service.status();
        return std::unique_ptr<QueryService>(std::move(service).value());
      });
  // "dist-router" scatters to remote shard children (one --backends group
  // per shard) and k-way merges their partials into the exact answer.
  (void)registry.add(
      "dist-router",
      [](const ServeOptions& options, MetricsRegistry* metrics)
          -> api::Result<std::unique_ptr<QueryService>> {
        auto groups = parse_backends(options.backends);
        if (!groups.ok()) return groups.status();
        auto service =
            DistRouter::open(std::move(groups).value(), options, metrics);
        if (!service.ok()) return service.status();
        return std::unique_ptr<QueryService>(std::move(service).value());
      });
  // "auto" = the index-present policy: serve approximate when the offline
  // build has been done, exact otherwise — the serving analog of the
  // training facade's fits-in-memory backend policy. "batched" names the
  // same policy: request coalescing is built into the exact strategy.
  const auto index_present_policy =
      [](const ServeOptions& options, MetricsRegistry* metrics)
      -> api::Result<std::unique_ptr<QueryService>> {
    const bool indexed =
        std::filesystem::exists(options.resolved_index_path());
    return ServiceRegistry::instance().create(indexed ? "hnsw" : "exact",
                                              options, metrics);
  };
  (void)registry.add("auto", index_present_policy);
  (void)registry.add("batched", index_present_policy);
}

}  // namespace

ServiceRegistry& ServiceRegistry::instance() {
  // Leaked on purpose, like BackendRegistry: factories registered by other
  // static objects stay valid through program exit.
  static ServiceRegistry* registry = [] {
    auto* storage = new ServiceRegistry();
    register_builtin_services(*storage);
    return storage;
  }();
  return *registry;
}

api::Status ServiceRegistry::add(std::string name, ServiceFactory factory) {
  if (name.empty())
    return api::Status::invalid_argument("strategy name must be non-empty");
  if (factory == nullptr)
    return api::Status::invalid_argument("strategy " + name + ": null factory");
  if (contains(name))
    return api::Status::invalid_argument("strategy " + name +
                                         " is already registered");
  entries_.push_back({std::move(name), std::move(factory)});
  return api::Status::ok();
}

bool ServiceRegistry::contains(std::string_view name) const {
  return std::any_of(entries_.begin(), entries_.end(),
                     [name](const Entry& entry) { return entry.name == name; });
}

std::vector<std::string> ServiceRegistry::names() const {
  std::vector<std::string> names;
  names.reserve(entries_.size());
  for (const Entry& entry : entries_) names.push_back(entry.name);
  std::sort(names.begin(), names.end());
  return names;
}

api::Result<std::unique_ptr<QueryService>> ServiceRegistry::create(
    std::string_view name, const ServeOptions& options,
    MetricsRegistry* metrics) const {
  // "cached:<inner>" composes rather than registers: resolve the inner
  // strategy through the registry (so cached:auto, cached:hnsw etc. all
  // work), then wrap it behind the semantic cache. One level only — a
  // second cache layer would double-count every hit.
  // "remote:<host:port,...>" is the endpoint-in-the-name sugar: rewrite
  // it onto options.backends and resolve plain "remote". Same shape as
  // the cached: prefix — compose, don't register per endpoint list.
  constexpr std::string_view kRemotePrefix = "remote:";
  if (name.starts_with(kRemotePrefix)) {
    const std::string_view endpoints = name.substr(kRemotePrefix.size());
    if (endpoints.empty()) {
      return api::Status::invalid_argument(
          "strategy '" + std::string(name) +
          "': expected remote:<host:port[,host:port...]>");
    }
    ServeOptions rewritten = options;
    rewritten.backends = std::string(endpoints);
    return create("remote", rewritten, metrics);
  }
  constexpr std::string_view kCachedPrefix = "cached:";
  if (name.starts_with(kCachedPrefix)) {
    const std::string_view inner_name = name.substr(kCachedPrefix.size());
    if (inner_name.empty() || inner_name.starts_with(kCachedPrefix)) {
      return api::Status::invalid_argument(
          "strategy '" + std::string(name) +
          "': expected cached:<inner> with a non-cached inner strategy");
    }
    auto inner = create(inner_name, options, metrics);
    if (!inner.ok()) return inner.status();
    try {
      return cache::wrap_with_cache(std::move(inner).value(), options,
                                    metrics);
    } catch (const std::bad_alloc&) {
      return api::Status::out_of_memory("strategy " + std::string(name) +
                                        ": construction failed (allocation)");
    } catch (const std::exception& error) {
      return api::Status::internal("strategy " + std::string(name) +
                                   ": construction failed: " + error.what());
    }
  }
  for (const Entry& entry : entries_) {
    if (entry.name != name) continue;
    // Factories open stores and start probe threads; keep the facade's
    // never-throws promise even when construction fails.
    try {
      return entry.factory(options, metrics);
    } catch (const std::bad_alloc&) {
      return api::Status::out_of_memory("strategy " + std::string(name) +
                                        ": construction failed (allocation)");
    } catch (const std::exception& error) {
      return api::Status::internal("strategy " + std::string(name) +
                                   ": construction failed: " + error.what());
    }
  }
  std::string known;
  for (const std::string& candidate : names()) {
    if (!known.empty()) known += ", ";
    known += candidate;
  }
  return api::Status::not_found("unknown serving strategy '" +
                                std::string(name) + "' (registered: " + known +
                                ")");
}

api::Result<std::unique_ptr<QueryService>> make_service(
    const ServeOptions& options, MetricsRegistry* metrics) {
  // The --cache knob is sugar for the cached: prefix, so tools turn the
  // cache on without learning a new strategy name.
  std::string strategy = options.strategy;
  if (options.cache_enabled && !strategy.starts_with("cached:")) {
    strategy = "cached:" + strategy;
  }
  return ServiceRegistry::instance().create(strategy, options, metrics);
}

}  // namespace gosh::serving
