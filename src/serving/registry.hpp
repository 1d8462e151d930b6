// ServiceRegistry — string-keyed factory table for QueryService
// strategies, the serving twin of api::BackendRegistry.
//
// Built-ins:
//   "exact"   — blocked parallel brute-force scan (ground truth);
//               concurrent requests share passes over the store
//   "hnsw"    — the persisted HNSW index (build it offline first)
//   "router"  — one engine per store shard group, scatter + k-way merge
//   "auto"    — index-present policy: "hnsw" when the index file exists
//               beside the store, "exact" otherwise
//   "batched" — alias of "auto", kept so existing configs keep working
// External code may add its own factories under new names — the seam a
// future network front-end or tiered-cache strategy plugs into instead of
// growing a new entry point.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "gosh/serving/service.hpp"

namespace gosh::serving {

using ServiceFactory = std::function<api::Result<std::unique_ptr<QueryService>>(
    const ServeOptions&, MetricsRegistry*)>;

class ServiceRegistry {
 public:
  /// The process-wide registry, with built-ins already registered.
  static ServiceRegistry& instance();

  /// Registers `factory` under `name`. Duplicate or empty names are
  /// rejected (kInvalidArgument) — built-ins cannot be shadowed.
  api::Status add(std::string name, ServiceFactory factory);

  bool contains(std::string_view name) const;
  /// All registered names, sorted.
  std::vector<std::string> names() const;

  /// Constructs the named strategy from `options` (which must have passed
  /// validate()). Unknown names return kNotFound enumerating what is
  /// registered; `metrics` (optional) is threaded to the service.
  api::Result<std::unique_ptr<QueryService>> create(
      std::string_view name, const ServeOptions& options,
      MetricsRegistry* metrics = nullptr) const;

 private:
  ServiceRegistry() = default;

  struct Entry {
    std::string name;
    ServiceFactory factory;
  };
  std::vector<Entry> entries_;
};

/// Resolves options.strategy through the registry ("auto" included) and
/// constructs it — the one call serving tools need.
api::Result<std::unique_ptr<QueryService>> make_service(
    const ServeOptions& options, MetricsRegistry* metrics = nullptr);

}  // namespace gosh::serving
