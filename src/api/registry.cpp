#include "gosh/api/registry.hpp"

#include <algorithm>
#include <exception>
#include <new>

namespace gosh::api {

namespace detail {
// Defined in embedder.cpp, next to the backend classes.
void register_builtin_backends(BackendRegistry& registry);
}  // namespace detail

BackendRegistry& BackendRegistry::instance() {
  // Leaked on purpose: never destroyed, so backends registered by other
  // static objects stay valid through program exit.
  static BackendRegistry* registry = [] {
    auto* storage = new BackendRegistry();
    detail::register_builtin_backends(*storage);
    return storage;
  }();
  return *registry;
}

Status BackendRegistry::add(std::string name, EmbedderFactory factory) {
  if (name.empty())
    return Status::invalid_argument("backend name must be non-empty");
  if (factory == nullptr)
    return Status::invalid_argument("backend " + name + ": null factory");
  if (contains(name))
    return Status::invalid_argument("backend " + name +
                                    " is already registered");
  entries_.push_back({std::move(name), std::move(factory)});
  return Status::ok();
}

bool BackendRegistry::contains(std::string_view name) const {
  return std::any_of(entries_.begin(), entries_.end(),
                     [name](const Entry& entry) { return entry.name == name; });
}

Status BackendRegistry::check(std::string_view name) const {
  if (contains(name)) return Status::ok();
  std::string known;
  for (const std::string& candidate : names()) {
    if (!known.empty()) known += ", ";
    known += candidate;
  }
  return Status::not_found("unknown backend '" + std::string(name) +
                           "' (registered: " + known + ")");
}

std::vector<std::string> BackendRegistry::names() const {
  std::vector<std::string> names;
  names.reserve(entries_.size());
  for (const Entry& entry : entries_) names.push_back(entry.name);
  std::sort(names.begin(), names.end());
  return names;
}

Result<std::unique_ptr<Embedder>> BackendRegistry::create(
    std::string_view name, const Options& options) const {
  for (const Entry& entry : entries_) {
    if (entry.name != name) continue;
    // Factories construct devices (worker threads, allocations); keep the
    // facade's never-throws promise even when construction fails.
    try {
      return entry.factory(options);
    } catch (const std::bad_alloc&) {
      return Status::out_of_memory("backend " + std::string(name) +
                                   ": construction failed (allocation)");
    } catch (const std::exception& error) {
      return Status::internal("backend " + std::string(name) +
                              ": construction failed: " + error.what());
    }
  }
  return check(name);
}

std::string select_backend(const Options& options, const graph::Graph& graph) {
  // The Algorithm 2 fits-check applied up front to the ORIGINAL graph: if
  // level 0 (the biggest level) trains resident, the whole pipeline does.
  const auto budget = static_cast<std::size_t>(
      static_cast<double>(options.device.memory_bytes) *
      options.gosh.device_memory_fraction);
  return embedding::fits_on_device(graph, options.gosh.train.dim, budget)
             ? "device"
             : "largegraph";
}

Result<std::unique_ptr<Embedder>> make_embedder(const Options& options,
                                                const graph::Graph& graph) {
  const std::string name = options.backend == "auto"
                               ? select_backend(options, graph)
                               : options.backend;
  return BackendRegistry::instance().create(name, options);
}

}  // namespace gosh::api
