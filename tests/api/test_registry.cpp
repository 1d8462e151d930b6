// gosh::api::BackendRegistry — registration, lookup, auto-selection, and
// the every-backend-constructible guarantee the facade promises.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "gosh/api/api.hpp"

namespace gosh::api {
namespace {

graph::Graph small_graph() {
  graph::LfrParams params;
  params.average_degree = 8.0;
  params.communities = 8;
  return graph::lfr_like(512, params, 17);
}

/// Small everything: budgets a 1-core CI can absorb across all backends.
Options smoke_options() {
  Options options;
  options.gosh.total_epochs = 5;
  options.train().dim = 8;
  options.device.memory_bytes = 64u << 20;
  options.device.workers = 1;
  return options;
}

TEST(Registry, BuiltinsAreRegistered) {
  auto& registry = BackendRegistry::instance();
  for (const char* name :
       {"device", "largegraph", "verse-cpu", "line-device", "mile"}) {
    EXPECT_TRUE(registry.contains(name)) << name;
  }
  EXPECT_FALSE(registry.contains("nope"));
  EXPECT_FALSE(registry.contains("multidevice"));
  EXPECT_GE(registry.names().size(), 5u);
}

TEST(Registry, EveryBuiltinIsConstructibleByName) {
  auto& registry = BackendRegistry::instance();
  const Options options = smoke_options();
  for (const std::string& name : registry.names()) {
    auto embedder = registry.create(name, options);
    ASSERT_TRUE(embedder.ok()) << name << ": "
                               << embedder.status().to_string();
    EXPECT_EQ(embedder.value()->name(), name);
  }
}

TEST(Registry, UnknownBackendIsNotFound) {
  auto embedder =
      BackendRegistry::instance().create("warp-drive", smoke_options());
  ASSERT_FALSE(embedder.ok());
  EXPECT_EQ(embedder.status().code(), StatusCode::kNotFound);
  // The error names what IS available, for CLI ergonomics.
  EXPECT_NE(embedder.status().message().find("device"), std::string::npos);
}

TEST(Registry, RejectsDuplicateAndEmptyNames) {
  auto& registry = BackendRegistry::instance();
  EXPECT_EQ(registry
                .add("device",
                     [](const Options&) -> Result<std::unique_ptr<Embedder>> {
                       return Status::internal("never called");
                     })
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(registry
                .add("",
                     [](const Options&) -> Result<std::unique_ptr<Embedder>> {
                       return Status::internal("never called");
                     })
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(Registry, ExternalBackendsPlugIn) {
  // The seam future engines use: register under a new name, resolve it
  // through the same create() path as the built-ins. The registry is a
  // process-wide singleton, so a repeated run finds the name taken; the
  // embedder names itself by its key, as every built-in does.
  class NullEmbedder final : public Embedder {
   public:
    std::string_view name() const noexcept override { return "test-null"; }
    Result<EmbedResult> embed(const graph::Graph& graph,
                              ProgressObserver*) override {
      EmbedResult result;
      result.backend = "test-null";
      result.embedding = embedding::EmbeddingMatrix(graph.num_vertices(), 4);
      return result;
    }
  };
  auto& registry = BackendRegistry::instance();
  if (!registry.contains("test-null")) {
    ASSERT_TRUE(
        registry
            .add("test-null",
                 [](const Options&) -> Result<std::unique_ptr<Embedder>> {
                   return std::unique_ptr<Embedder>(
                       std::make_unique<NullEmbedder>());
                 })
            .is_ok());
  }
  auto embedder = registry.create("test-null", smoke_options());
  ASSERT_TRUE(embedder.ok());
  const auto g = small_graph();
  auto result = embedder.value()->embed(g);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().embedding.rows(), g.num_vertices());
}

TEST(Registry, AutoSelectionFollowsTheFitsCheck) {
  const auto g = small_graph();
  Options options = smoke_options();

  // Plenty of device memory: the resident pipeline.
  EXPECT_EQ(select_backend(options, g), "device");

  // Matrix + CSR cannot fit: the partitioned pipeline. 512 vertices x
  // dim 8 x 4 B is ~16 KiB, so a 1 MiB device with a tiny fraction fails
  // the fits-check.
  options.device.memory_bytes = 1u << 20;
  options.gosh.device_memory_fraction = 0.01;
  EXPECT_EQ(select_backend(options, g), "largegraph");

  auto embedder = make_embedder(options, g);
  ASSERT_TRUE(embedder.ok()) << embedder.status().to_string();
  EXPECT_EQ(embedder.value()->name(), "largegraph");
}

TEST(Registry, FacadeEmbedValidatesOptionsFirst) {
  Options options = smoke_options();
  options.gosh.total_epochs = 0;  // invalid
  auto result = embed(small_graph(), options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(Registry, DeviceBackendEmbedsAndReportsLevels) {
  struct CountingObserver : ProgressObserver {
    int begins = 0, level_begins = 0, level_ends = 0, ends = 0;
    unsigned epoch_ticks = 0;
    void on_pipeline_begin(std::string_view, std::size_t) override {
      ++begins;
    }
    void on_level_begin(const LevelInfo&) override { ++level_begins; }
    void on_epoch(std::size_t, unsigned, unsigned) override { ++epoch_ticks; }
    void on_level_end(const LevelInfo&, double) override { ++level_ends; }
    void on_pipeline_end(double) override { ++ends; }
  };

  const auto g = small_graph();
  Options options = smoke_options();
  options.backend = "device";
  CountingObserver observer;
  auto result = embed(g, options, &observer);
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  EXPECT_EQ(result.value().backend, "device");
  EXPECT_EQ(result.value().embedding.rows(), g.num_vertices());
  EXPECT_EQ(result.value().embedding.dim(), 8u);
  EXPECT_FALSE(result.value().levels.empty());

  EXPECT_EQ(observer.begins, 1);
  EXPECT_EQ(observer.ends, 1);
  EXPECT_EQ(observer.level_begins,
            static_cast<int>(result.value().levels.size()));
  EXPECT_EQ(observer.level_ends, observer.level_begins);
  EXPECT_GT(observer.epoch_ticks, 0u);
}

TEST(Registry, FlatBackendsEmbedThroughTheFacade) {
  const auto g = small_graph();
  for (const char* name : {"verse-cpu", "line-device", "mile"}) {
    Options options = smoke_options();
    options.backend = name;
    auto result = embed(g, options);
    ASSERT_TRUE(result.ok()) << name << ": "
                             << result.status().to_string();
    EXPECT_EQ(result.value().backend, name);
    EXPECT_EQ(result.value().embedding.rows(), g.num_vertices());
    EXPECT_EQ(result.value().levels.size(), 1u);
  }
}

TEST(Registry, LargeGraphBackendKeepsCoarseLevelsResident) {
  // Forcing the partitioned engine applies to level 0 only; tiny coarse
  // levels still take the resident fast path (Algorithm 2's per-level
  // fits-check), so auto-selecting "largegraph" never slows them down.
  const auto g = small_graph();
  Options options = smoke_options();
  options.backend = "largegraph";
  auto result = embed(g, options);
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  const auto& levels = result.value().levels;
  ASSERT_GT(levels.size(), 1u);
  EXPECT_TRUE(levels[0].used_large_graph_path);
  for (std::size_t level = 1; level < levels.size(); ++level) {
    EXPECT_FALSE(levels[level].used_large_graph_path) << "level " << level;
  }
}

TEST(Registry, LineDeviceOutOfMemoryIsAStatusNotACrash) {
  // 8192 vertices x dim 64 x 4 B = 2 MiB of matrix alone on a 1 MiB
  // device: the GraphVite-like baseline must fail with a Status, exactly
  // like the paper's Table 7 OOM rows.
  graph::LfrParams params;
  params.average_degree = 8.0;
  params.communities = 32;
  const auto g = graph::lfr_like(8192, params, 21);
  Options options = smoke_options();
  options.backend = "line-device";
  options.train().dim = 64;
  options.device.memory_bytes = 1u << 20;
  auto result = embed(g, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kOutOfMemory);
}

}  // namespace
}  // namespace gosh::api
