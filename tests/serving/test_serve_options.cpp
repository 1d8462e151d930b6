// ServeOptions — set()/validate()/from_args()/from_file() parity with
// api::Options: strict parsing, no silent fallbacks, file-then-flags
// precedence.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "gosh/serving/options.hpp"

namespace gosh::serving {
namespace {

std::vector<char*> argv_of(std::vector<std::string>& args) {
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>("gosh_query"));
  for (std::string& arg : args) argv.push_back(arg.data());
  return argv;
}

TEST(ServeOptions, DefaultsValidateOnceStoreIsSet) {
  ServeOptions options;
  EXPECT_EQ(options.validate().code(), api::StatusCode::kInvalidArgument);
  options.store_path = "emb.store";
  EXPECT_TRUE(options.validate().is_ok());
  EXPECT_EQ(options.strategy, "auto");
  EXPECT_EQ(options.resolved_index_path(), "emb.store.hnsw");
}

TEST(ServeOptions, FromArgsParsesTheFullSurface) {
  std::vector<std::string> args = {
      "--store", "emb.store",  "--strategy",  "router", "--metric", "l2",
      "--k",     "25",         "--aggregate", "mean",   "--filter", "10:90",
      "--ef",    "128",        "--threads",   "3",      "--batch",  "32",
      "--M",     "12",         "--ef-construction",     "80",
      "--seed",  "9",          "--block-rows", "512",   "--no-verify",
      "--metrics"};
  auto argv = argv_of(args);
  auto parsed =
      ServeOptions::from_args(static_cast<int>(argv.size()), argv.data());
  ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
  const ServeOptions& options = parsed.value();
  EXPECT_EQ(options.store_path, "emb.store");
  EXPECT_EQ(options.strategy, "router");
  EXPECT_EQ(options.metric, query::Metric::kL2);
  EXPECT_EQ(options.k, 25u);
  EXPECT_EQ(options.aggregate_mode(), query::Aggregate::kMean);
  EXPECT_EQ(options.filter_begin, 10u);
  EXPECT_EQ(options.filter_end, 90u);
  EXPECT_EQ(options.ef_search, 128u);
  EXPECT_EQ(options.threads, 3u);
  EXPECT_EQ(options.max_batch, 32u);
  EXPECT_EQ(options.hnsw_m, 12u);
  EXPECT_EQ(options.ef_construction, 80u);
  EXPECT_EQ(options.seed, 9u);
  EXPECT_EQ(options.block_rows, 512u);
  EXPECT_FALSE(options.verify_checksums);
  EXPECT_TRUE(options.dump_metrics);

  // The filter predicate speaks the configured [LO, HI) range.
  const query::RowFilter filter = options.row_filter();
  ASSERT_TRUE(static_cast<bool>(filter));
  EXPECT_FALSE(filter(9));
  EXPECT_TRUE(filter(10));
  EXPECT_TRUE(filter(89));
  EXPECT_FALSE(filter(90));
}

TEST(ServeOptions, EngineAndHnswOptionsAreSubsumed) {
  ServeOptions options;
  // Named lvalue: assigning the short literal directly trips GCC 12's
  // -Wrestrict false positive on the inlined std::string replace (PR105651).
  const std::string store_path("s");
  options.store_path = store_path;
  options.metric = query::Metric::kDot;
  options.threads = 2;
  options.block_rows = 128;
  options.ef_search = 99;
  options.hnsw_m = 24;
  options.ef_construction = 333;
  options.seed = 5;
  // The scan shape is plain fields, checked by validate() itself.
  EXPECT_TRUE(options.validate().is_ok());
  const query::HnswOptions hnsw = options.hnsw_options();
  EXPECT_EQ(hnsw.M, 24u);
  EXPECT_EQ(hnsw.ef_construction, 333u);
  EXPECT_EQ(hnsw.seed, 5u);
  EXPECT_EQ(hnsw.metric, query::Metric::kDot);
}

TEST(ServeOptions, RejectsMalformedValuesWithClearErrors) {
  const auto expect_bad = [](std::vector<std::string> args,
                             const char* needle) {
    auto argv = argv_of(args);
    auto parsed =
        ServeOptions::from_args(static_cast<int>(argv.size()), argv.data());
    ASSERT_FALSE(parsed.ok()) << needle;
    EXPECT_NE(parsed.status().message().find(needle), std::string::npos)
        << parsed.status().to_string();
  };
  expect_bad({"--store", "s", "--k", "abc"}, "k");
  expect_bad({"--store", "s", "--k", "0"}, "k");
  expect_bad({"--store", "s", "--metric", "hamming"}, "cosine");
  expect_bad({"--store", "s", "--aggregate", "median"}, "max");
  expect_bad({"--store", "s", "--filter", "17"}, "LO:HI");
  expect_bad({"--store", "s", "--filter", "30:10"}, "LO < HI");
  expect_bad({"--store", "s", "--block-rows", "0"}, "block-rows");
  expect_bad({"--store", "s", "--ef", "0"}, "ef");
  expect_bad({"--store", "s", "--batch", "0"}, "batch");
  expect_bad({"--store", "s", "--bogus", "1"}, "unknown serving option");
  expect_bad({"stray"}, "stray");
}

TEST(ServeOptions, FromFileAppliesAndFlagsOverride) {
  const std::string path = testing::TempDir() + "serve_options_test.conf";
  {
    std::ofstream file(path);
    file << "# serving defaults\n"
         << "store = emb.store\n"
         << "strategy = exact\n"
         << "k = 7\n"
         << "metric = dot\n";
  }
  auto from_file = ServeOptions::from_file(path);
  ASSERT_TRUE(from_file.ok()) << from_file.status().to_string();
  EXPECT_EQ(from_file.value().k, 7u);
  EXPECT_EQ(from_file.value().metric, query::Metric::kDot);

  // --options FILE loads first, command-line flags win.
  std::vector<std::string> args = {"--options", path, "--k", "11"};
  auto argv = argv_of(args);
  auto merged =
      ServeOptions::from_args(static_cast<int>(argv.size()), argv.data());
  ASSERT_TRUE(merged.ok()) << merged.status().to_string();
  EXPECT_EQ(merged.value().k, 11u);
  EXPECT_EQ(merged.value().strategy, "exact");
  std::remove(path.c_str());
}

TEST(ServeOptions, HelpShortCircuits) {
  std::vector<std::string> args = {"--help"};
  auto argv = argv_of(args);
  auto parsed =
      ServeOptions::from_args(static_cast<int>(argv.size()), argv.data());
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed.value().show_help);
}

}  // namespace
}  // namespace gosh::serving
