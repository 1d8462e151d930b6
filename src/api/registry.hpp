// BackendRegistry — string-keyed factory table for Embedder backends.
//
// Built-ins ("device", "largegraph", "verse-cpu", "line-device", "mile")
// are registered the first time the singleton is
// touched; external code may add its own factories under new names — the
// seam every future engine (sharded, async, real-CUDA) plugs into.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "gosh/api/embedder.hpp"

namespace gosh::api {

using EmbedderFactory =
    std::function<Result<std::unique_ptr<Embedder>>(const Options&)>;

class BackendRegistry {
 public:
  /// The process-wide registry, with built-ins already registered.
  static BackendRegistry& instance();

  /// Registers `factory` under `name`. Duplicate or empty names are
  /// rejected (kInvalidArgument) — built-ins cannot be shadowed.
  Status add(std::string name, EmbedderFactory factory);

  bool contains(std::string_view name) const;
  /// Ok when `name` is registered, else kNotFound listing what is.
  Status check(std::string_view name) const;
  /// All registered names, sorted.
  std::vector<std::string> names() const;

  /// Constructs the named backend from `options`. Unknown names return
  /// check()'s kNotFound.
  Result<std::unique_ptr<Embedder>> create(std::string_view name,
                                           const Options& options) const;

 private:
  BackendRegistry() = default;

  struct Entry {
    std::string name;
    EmbedderFactory factory;
  };
  std::vector<Entry> entries_;
};

/// The default backend policy: "device" when the original graph's CSR plus
/// its embedding matrix fit in the options' planned device budget
/// (memory_bytes * memory-fraction), "largegraph" otherwise — the same
/// fits-check Algorithm 2 applies per level, applied up front to pick the
/// engine.
std::string select_backend(const Options& options, const graph::Graph& graph);

/// Resolves Options::backend ("auto" => select_backend) and constructs it.
Result<std::unique_ptr<Embedder>> make_embedder(const Options& options,
                                                const graph::Graph& graph);

}  // namespace gosh::api
