// NetOptions — the HTTP front-end's options surface: net-key parsing, the
// ServeOptions delegation (one flag set across gosh_serve and gosh_query),
// the scan-threads rename, strict from_args, and file/flag layering.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "gosh/net/options.hpp"

namespace gosh::net {
namespace {

/// argv helper: from_args wants mutable char**.
api::Result<NetOptions> parse(std::vector<std::string> args) {
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>("gosh_serve"));
  for (std::string& arg : args) argv.push_back(arg.data());
  return NetOptions::from_args(static_cast<int>(argv.size()), argv.data());
}

TEST(NetOptions, DefaultsAreSaneButNeedAStore) {
  NetOptions options;
  EXPECT_EQ(options.host, "127.0.0.1");
  EXPECT_EQ(options.port, 8080u);
  EXPECT_EQ(options.threads, 4u);
  EXPECT_FALSE(options.allow_remote_shutdown);
  // validate() delegates to the embedded ServeOptions, which requires a
  // store path — the same contract gosh_query enforces.
  EXPECT_FALSE(options.validate().is_ok());
  options.serve.store_path = "emb.store";
  EXPECT_TRUE(options.validate().is_ok());
}

TEST(NetOptions, SetHandlesNetKeysAndDelegatesTheRest) {
  NetOptions options;
  EXPECT_TRUE(options.set("port", "0").is_ok());
  EXPECT_TRUE(options.set("threads", "2").is_ok());
  EXPECT_TRUE(options.set("max-body", "4096").is_ok());
  EXPECT_TRUE(options.set("rate-qps", "12.5").is_ok());
  EXPECT_TRUE(options.set("burst", "4").is_ok());
  EXPECT_TRUE(options.set("store", "emb.store").is_ok());
  EXPECT_TRUE(options.set("strategy", "exact").is_ok());
  EXPECT_TRUE(options.set("k", "7").is_ok());
  EXPECT_EQ(options.port, 0u);
  EXPECT_EQ(options.threads, 2u);
  EXPECT_EQ(options.max_body, 4096u);
  EXPECT_DOUBLE_EQ(options.rate_qps, 12.5);
  EXPECT_DOUBLE_EQ(options.burst, 4.0);
  EXPECT_EQ(options.serve.store_path, "emb.store");
  EXPECT_EQ(options.serve.strategy, "exact");
  EXPECT_EQ(options.serve.k, 7u);
  // A key neither layer knows stays an error.
  EXPECT_FALSE(options.set("warp-speed", "9").is_ok());
}

TEST(NetOptions, ScanThreadsNamesTheServeSidePool) {
  NetOptions options;
  ASSERT_TRUE(options.set("threads", "3").is_ok());
  ASSERT_TRUE(options.set("scan-threads", "5").is_ok());
  EXPECT_EQ(options.threads, 3u);        // connection workers
  EXPECT_EQ(options.serve.threads, 5u);  // scan parallelism
}

TEST(NetOptions, FromArgsParsesBooleansWithoutValues) {
  auto parsed = parse({"--store", "emb.store", "--port", "0",
                       "--allow-remote-shutdown", "--no-verify",
                       "--rate-qps", "100", "--burst", "10"});
  ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
  EXPECT_TRUE(parsed.value().allow_remote_shutdown);
  EXPECT_FALSE(parsed.value().serve.verify_checksums);
  EXPECT_DOUBLE_EQ(parsed.value().rate_qps, 100.0);
}

TEST(NetOptions, ServingBareFlagsTakeNoValue) {
  // The serving bare flags are bare on gosh_serve too: each parses with no
  // value and leaves the following flag to parse as itself.
  auto parsed = parse({"--store", "s", "--require-all-shards", "--port", "0"});
  ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
  EXPECT_TRUE(parsed.value().serve.require_all_shards);
  EXPECT_EQ(parsed.value().port, 0u);

  using Check = bool (*)(const NetOptions&);
  const std::pair<const char*, Check> kFlags[] = {
      {"--build-index", [](const NetOptions& o) { return o.serve.build_index; }},
      {"--metrics", [](const NetOptions& o) { return o.serve.dump_metrics; }},
      {"--cache", [](const NetOptions& o) { return o.serve.cache_enabled; }},
      {"--no-verify",
       [](const NetOptions& o) { return !o.serve.verify_checksums; }},
  };
  for (const auto& [flag, is_set] : kFlags) {
    auto bare = parse({"--store", "s", flag, "--port", "0"});
    ASSERT_TRUE(bare.ok()) << flag << ": " << bare.status().to_string();
    EXPECT_TRUE(is_set(bare.value())) << flag;
    EXPECT_EQ(bare.value().port, 0u) << flag;
  }
}

TEST(NetOptions, FromArgsRejectsWhatValidateRejects) {
  // Missing store.
  EXPECT_FALSE(parse({"--port", "0"}).ok());
  // Out-of-range port.
  EXPECT_FALSE(parse({"--store", "s", "--port", "70000"}).ok());
  // burst without a rate.
  EXPECT_FALSE(parse({"--store", "s", "--burst", "5"}).ok());
  // Negative rate (strict real parse).
  EXPECT_FALSE(parse({"--store", "s", "--rate-qps", "-3"}).ok());
  // Dangling flag.
  EXPECT_FALSE(parse({"--store", "s", "--port"}).ok());
  // Stray non-flag argument.
  EXPECT_FALSE(parse({"emb.store"}).ok());
  // Unknown flag (on either surface).
  EXPECT_FALSE(parse({"--store", "s", "--warp-speed", "9"}).ok());
}

TEST(NetOptions, OptionsFileLoadsFirstAndFlagsOverride) {
  const std::string path = testing::TempDir() + "net_options_" +
                           std::to_string(::getpid()) + ".conf";
  {
    std::ofstream out(path);
    out << "# serving front-end config\n"
        << "store = emb.store\n"
        << "port = 9999\n"
        << "threads = 8\n"
        << "rate-qps = 50\n";
  }
  auto parsed = parse({"--options", path, "--port", "0"});
  std::remove(path.c_str());
  ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
  EXPECT_EQ(parsed.value().port, 0u);       // the flag wins
  EXPECT_EQ(parsed.value().threads, 8u);    // the file holds
  EXPECT_DOUBLE_EQ(parsed.value().rate_qps, 50.0);
  EXPECT_EQ(parsed.value().serve.store_path, "emb.store");
}

TEST(NetOptions, FromFileMatchesSetSemantics) {
  const std::string path = testing::TempDir() + "net_options_file_" +
                           std::to_string(::getpid()) + ".conf";
  {
    std::ofstream out(path);
    out << "store = emb.store\nscan-threads = 6\nmax-header = 128\n";
  }
  auto parsed = NetOptions::from_file(path);
  std::remove(path.c_str());
  ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
  EXPECT_EQ(parsed.value().serve.threads, 6u);
  EXPECT_EQ(parsed.value().max_header, 128u);
}

TEST(NetOptions, HelpShortCircuits) {
  auto parsed = parse({"--help"});
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed.value().show_help);
}

}  // namespace
}  // namespace gosh::net
