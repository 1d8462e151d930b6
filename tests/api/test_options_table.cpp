// The options tables of api::Options, serving::ServeOptions and
// net::NetOptions, row by row: every key parses alike through set(), an
// options file and the command line; bare flags take no value and the
// others demand one; NetOptions takes every ServeOptions key; each
// surface's key set is pinned; --help lists every key; and no byte string
// makes a row throw or wrap an integer (this runs under ASan/UBSan in CI).
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "gosh/api/options.hpp"
#include "gosh/net/options.hpp"
#include "gosh/serving/options.hpp"

namespace gosh {
namespace {

using api::OptionRow;
using api::OptionTable;
using Pairs = std::vector<std::pair<std::string, std::string>>;

// One valid, non-default sample per set()/file key: the literal key list of
// each surface (no knob added or removed) and the value applied to it.
const Pairs kApiSamples = {
    {"input", "edges.txt"},        {"demo", "true"},
    {"output", "out.bin"},         {"format", "text"},
    {"rows-per-shard", "100"},     {"eval", "true"},
    {"verbose", "true"},           {"trace-out", "t.json"},
    {"backend", "largegraph"},     {"preset", "fast"},
    {"large-scale", "true"},       {"dim", "48"},
    {"negative-samples", "5"},     {"learning-rate", "0.5"},
    {"epochs", "123"},             {"smoothing", "0.7"},
    {"edge-epochs", "false"},      {"update-rule", "sequential"},
    {"positive-sampling", "ppr"},  {"seed", "7"},
    {"device-mib", "64"},          {"workers", "3"},
    {"memory-fraction", "0.5"},    {"coarsening", "false"},
    {"coarsening-threshold", "50"}, {"pgpu", "4"},
    {"sgpu", "6"},                 {"batch", "9"},
    {"mile-levels", "3"},          {"mile-refinement", "1"},
    {"verse-similarity", "adjacency"}, {"verse-lr", "0.01"},
};
const Pairs kServeSamples = {
    {"store", "emb.store"},        {"index", "emb.idx"},
    {"strategy", "router"},        {"shard", "1/4"},
    {"verify", "false"},           {"k", "25"},
    {"metric", "l2"},              {"aggregate", "mean"},
    {"filter", "10:90"},           {"ef", "128"},
    {"batch", "32"},               {"block-rows", "512"},
    {"threads", "3"},              {"cache", "true"},
    {"cache-threshold", "0.5"},    {"cache-capacity", "10"},
    {"cache-ttl-ms", "100"},       {"backends", "h:1,h:2"},
    {"remote-deadline-ms", "100"}, {"retries", "3"},
    {"hedge-after-ms", "5"},       {"breaker-failures", "2"},
    {"breaker-cooldown-ms", "50"}, {"probe-interval-ms", "0"},
    {"require-all-shards", "true"}, {"M", "12"},
    {"ef-construction", "80"},     {"seed", "9"},
    {"build-index", "true"},       {"queries", "q.txt"},
    {"eval", "10"},                {"recall-floor", "0.5"},
    {"metrics", "true"},
};
const Pairs kNetSamples = {
    {"host", "0.0.0.0"},          {"port", "0"},
    {"threads", "8"},             {"scan-threads", "5"},
    {"max-body", "4096"},         {"max-header", "128"},
    {"read-timeout-ms", "100"},   {"keepalive-requests", "0"},
    {"rate-qps", "12.5"},         {"burst", "4"},
    {"conn-rate-qps", "2"},       {"conn-burst", "3"},
    {"port-file", "p.txt"},       {"allow-remote-shutdown", "true"},
    {"chaos-drop-rate", "0.1"},   {"chaos-500-rate", "0.2"},
    {"chaos-stall", "0.3"},       {"chaos-delay-ms", "7"},
    {"chaos-seed", "11"},         {"trace-sample-rate", "0.25"},
    {"trace-slow-ms", "5"},       {"trace-out", "t.json"},
    {"access-log", "true"},
};

// Flags that take no value on the command line, per surface.
const std::vector<std::string> kApiBare = {"demo", "eval", "large-scale",
                                           "verbose"};
const std::vector<std::string> kServeBare = {
    "build-index", "cache", "metrics", "no-verify", "require-all-shards"};
const std::vector<std::string> kNetBare = {"access-log",
                                           "allow-remote-shutdown"};
// gosh_query's one-shot modes: ServeOptions keys gosh_serve refuses.
const std::vector<std::string> kQueryModes = {
    "build-index", "queries", "eval", "recall-floor", "metrics"};

bool is_query_mode(std::string_view key) {
  return std::find(kQueryModes.begin(), kQueryModes.end(), key) !=
         kQueryModes.end();
}

/// The ServeOptions bare flags gosh_serve takes too.
std::vector<std::string> net_bare_flags() {
  std::vector<std::string> bare = kNetBare;
  for (const std::string& key : kServeBare) {
    if (!is_query_mode(key)) bare.push_back(key);
  }
  std::sort(bare.begin(), bare.end());
  return bare;
}

// What every parse path starts from, so each sample alone validates
// (rows-per-shard needs the store format; burst needs a rate).
const Pairs kApiBase = {{"format", "store"}};
const Pairs kServeBase = {{"store", "s"}};
const Pairs kNetBase = {
    {"store", "s"}, {"rate-qps", "1"}, {"conn-rate-qps", "1"}};

template <typename T>
std::vector<const OptionRow<T>*> rows_of(const OptionTable<T>& table) {
  std::vector<const OptionRow<T>*> rows;
  for (const auto& group : table.groups) {
    for (const OptionRow<T>& row : group.rows) rows.push_back(&row);
  }
  return rows;
}

/// Every keyed field of `options`, as the rows show it: equal renders mean
/// equal structs as far as any key can tell.
template <typename T>
std::string render(const OptionTable<T>& table, const T& options) {
  std::string out;
  for (const OptionRow<T>* row : rows_of(table)) {
    if (!row->show) continue;
    out += std::string(row->key) + "=" + row->show(options) + "\n";
  }
  return out;
}

template <typename T>
api::Result<T> from_args(const OptionTable<T>& table,
                         std::vector<std::string> args) {
  std::vector<char*> argv = {const_cast<char*>("tool")};
  for (std::string& arg : args) argv.push_back(arg.data());
  return table.from_args(static_cast<int>(argv.size()), argv.data());
}

template <typename T>
api::Result<T> from_file(const OptionTable<T>& table, const Pairs& pairs) {
  const std::string path = testing::TempDir() + "options_table_" +
                           std::to_string(::getpid()) + ".conf";
  {
    std::ofstream out(path);
    for (const auto& [key, value] : pairs) out << key << " = " << value << "\n";
  }
  auto parsed = table.from_file(path, T{});
  std::remove(path.c_str());
  return parsed;
}

std::vector<std::string> flags_of(const Pairs& pairs,
                                  const std::vector<std::string>& bare) {
  std::vector<std::string> args;
  for (const auto& [key, value] : pairs) {
    args.push_back("--" + key);
    if (std::find(bare.begin(), bare.end(), key) == bare.end())
      args.push_back(value);
  }
  return args;
}

template <typename T>
void expect_key_sets(const OptionTable<T>& table, const Pairs& samples,
                     std::vector<std::string> cli_only) {
  std::vector<std::string> keys, expected, cli_keys;
  for (const OptionRow<T>* row : rows_of(table)) {
    (row->cli_only ? cli_keys : keys).emplace_back(row->key);
  }
  for (const auto& sample : samples) expected.push_back(sample.first);
  std::sort(keys.begin(), keys.end());
  std::sort(expected.begin(), expected.end());
  std::sort(cli_keys.begin(), cli_keys.end());
  EXPECT_EQ(keys, expected);
  EXPECT_EQ(cli_keys, cli_only);
}

TEST(OptionTables, KeySetsMatchTheirLiteralLists) {
  expect_key_sets(api::Options::table(), kApiSamples, {});
  expect_key_sets(serving::ServeOptions::table(), kServeSamples,
                  {"no-verify"});
  // NetOptions: its own keys plus every ServeOptions key but the shadowed
  // threads and gosh_query's modes.
  Pairs net = kNetSamples;
  for (const auto& sample : kServeSamples) {
    if (sample.first != "threads" && !is_query_mode(sample.first)) {
      net.push_back(sample);
    }
  }
  expect_key_sets(net::NetOptions::table(), net, {"no-verify"});
  EXPECT_EQ(kApiSamples.size(), 32u);
  EXPECT_EQ(kServeSamples.size(), 33u);
  EXPECT_EQ(kNetSamples.size(), 23u);
}

template <typename T>
void expect_parity(const OptionTable<T>& table, const Pairs& samples,
                   const Pairs& base, const std::vector<std::string>& bare) {
  for (const auto& sample : samples) {
    SCOPED_TRACE(sample.first + " = " + sample.second);
    Pairs pairs = base;
    pairs.push_back(sample);

    T by_base, by_set;
    for (const auto& [key, value] : base) {
      ASSERT_TRUE(table.set(by_base, key, value).is_ok());
    }
    for (const auto& [key, value] : pairs) {
      ASSERT_TRUE(table.set(by_set, key, value).is_ok());
    }
    ASSERT_TRUE(by_set.validate().is_ok()) << by_set.validate().to_string();
    auto by_file = from_file(table, pairs);
    ASSERT_TRUE(by_file.ok()) << by_file.status().to_string();
    auto by_args = from_args(table, flags_of(pairs, bare));
    ASSERT_TRUE(by_args.ok()) << by_args.status().to_string();

    const std::string expected = render(table, by_set);
    EXPECT_NE(expected, render(table, by_base));  // the sample took effect
    EXPECT_EQ(render(table, by_file.value()), expected);
    EXPECT_EQ(render(table, by_args.value()), expected);
  }
}

TEST(OptionTables, EveryKeyParsesAlikeThroughSetFileAndArgs) {
  expect_parity(api::Options::table(), kApiSamples, kApiBase, kApiBare);
  expect_parity(serving::ServeOptions::table(), kServeSamples, kServeBase,
                kServeBare);
  expect_parity(net::NetOptions::table(), kNetSamples, kNetBase,
                net_bare_flags());
}

template <typename T>
void expect_arity(const OptionTable<T>& table, const Pairs& base,
                  const std::vector<std::string>& bare) {
  std::vector<std::string> found;
  for (const OptionRow<T>* row : rows_of(table)) {
    SCOPED_TRACE(std::string(row->key));
    std::vector<std::string> args = flags_of(base, {});
    args.push_back("--" + std::string(row->key));
    auto parsed = from_args(table, args);
    if (row->value_name.empty()) {
      found.emplace_back(row->key);
      EXPECT_TRUE(parsed.ok()) << parsed.status().to_string();
    } else {
      ASSERT_FALSE(parsed.ok());
      EXPECT_NE(parsed.status().message().find("expects a value"),
                std::string::npos)
          << parsed.status().to_string();
    }
  }
  std::sort(found.begin(), found.end());
  EXPECT_EQ(found, bare);
}

TEST(OptionTables, BareFlagsTakeNoValueAndOthersDemandOne) {
  expect_arity(api::Options::table(), kApiBase, kApiBare);
  expect_arity(serving::ServeOptions::table(), kServeBase, kServeBare);
  expect_arity(net::NetOptions::table(), kNetBase, net_bare_flags());
}

TEST(OptionTables, NetOptionsTakesEveryServeKeyAlike) {
  const auto& serve = serving::ServeOptions::table();
  const auto& net = net::NetOptions::table();
  for (const OptionRow<serving::ServeOptions>* row : rows_of(serve)) {
    SCOPED_TRACE(std::string(row->key));
    const OptionRow<net::NetOptions>* twin = net.find(row->key, /*cli=*/true);
    if (is_query_mode(row->key)) {
      EXPECT_EQ(twin, nullptr);  // refused: NetOptions.QueryModesAreRefused
      continue;
    }
    ASSERT_NE(twin, nullptr);
    EXPECT_EQ(twin->value_name, row->value_name);
    EXPECT_EQ(twin->cli_only, row->cli_only);
    if (row->key == "threads") continue;  // shadowed: the connection pool
    EXPECT_EQ(twin->help, row->help);
  }
  // Every sample lands on the embedded ServeOptions exactly as on its own.
  for (const auto& [key, value] : kServeSamples) {
    if (is_query_mode(key)) continue;
    SCOPED_TRACE(key);
    serving::ServeOptions alone;
    net::NetOptions embedded;
    const std::string net_key = key == "threads" ? "scan-threads" : key;
    ASSERT_TRUE(serve.set(alone, key, value).is_ok());
    ASSERT_TRUE(net.set(embedded, net_key, value).is_ok());
    EXPECT_EQ(render(serve, embedded.serve), render(serve, alone));
  }
  net::NetOptions options;
  ASSERT_TRUE(net.set(options, "threads", "7").is_ok());
  EXPECT_EQ(options.threads, 7u);
  EXPECT_EQ(options.serve.threads, serving::ServeOptions{}.threads);
}

template <typename T>
void expect_help_lists_every_key(const OptionTable<T>& table) {
  const std::string help = table.help();
  for (const OptionRow<T>* row : rows_of(table)) {
    const std::string flag = "  --" + std::string(row->key) + " ";
    const std::size_t first = help.find(flag);
    EXPECT_NE(first, std::string::npos) << row->key;
    EXPECT_EQ(help.find(flag, first + 1), std::string::npos) << row->key;
  }
  std::size_t begin = 0;
  while (begin < help.size()) {
    const std::size_t end = help.find('\n', begin);
    EXPECT_LE(end - begin, 80u) << help.substr(begin, end - begin);
    begin = end + 1;
  }
}

TEST(OptionTables, HelpListsEveryKeyOnceWithin80Columns) {
  expect_help_lists_every_key(api::Options::table());
  expect_help_lists_every_key(serving::ServeOptions::table());
  expect_help_lists_every_key(net::NetOptions::table());
}

/// Decimal `digits` plus 2^32, so a value that wraps a 32-bit field lands
/// on the same struct as `digits` itself.
std::string plus_two_to_the_32(const std::string& digits) {
  const std::string addend = "4294967296";
  std::string out;
  int carry = 0;
  for (std::size_t i = 0; i < std::max(digits.size(), addend.size()) || carry;
       ++i) {
    int sum = carry;
    if (i < digits.size()) sum += digits[digits.size() - 1 - i] - '0';
    if (i < addend.size()) sum += addend[addend.size() - 1 - i] - '0';
    out.insert(out.begin(), static_cast<char>('0' + sum % 10));
    carry = sum / 10;
  }
  return out;
}

std::string random_value(std::mt19937_64& rng) {
  static const char* const kTokens[] = {
      "-", "+", ".", "e", "E", "e308", "e-400", "inf", "nan", "0x", ":", "/",
      "|", " ", "\t", "true", "1", "0", "4294967295", "18446744073709551615",
      "99999999999999999999", "1e39", "-0", "10:90", "1/4", "cosine"};
  std::string value;
  const int pieces = static_cast<int>(rng() % 5);
  for (int i = 0; i < pieces; ++i) {
    switch (rng() % 3) {
      case 0:
        value += kTokens[rng() % std::size(kTokens)];
        break;
      case 1:
        for (int n = static_cast<int>(rng() % 22); n > 0; --n)
          value += static_cast<char>('0' + rng() % 10);
        break;
      default:
        for (int n = static_cast<int>(rng() % 6); n > 0; --n)
          value += static_cast<char>(rng() % 256);
        break;
    }
  }
  return value;
}

template <typename T>
void fuzz(const OptionTable<T>& table, std::mt19937_64& rng) {
  constexpr int kCasesPerKey = 400;
  for (const OptionRow<T>* row : rows_of(table)) {
    for (int i = 0; i < kCasesPerKey; ++i) {
      const std::string value = random_value(rng);
      T options;
      api::Status status;
      // cli-only spellings are reachable through the row alone.
      EXPECT_NO_THROW(status = row->cli_only ? row->parse(options, value)
                                             : table.set(options, row->key,
                                                         value))
          << row->key << " = " << value;
      if (row->cli_only || value.empty() || value.size() > 20 ||
          !std::all_of(value.begin(), value.end(),
                       [](char c) { return c >= '0' && c <= '9'; }))
        continue;
      // An integer that wraps to a field's width would make two distinct
      // values yield the same struct. (Up to 20 digits: a double field
      // still tells N from N + 2^32 there.)
      T wrapped;
      if (status.is_ok() &&
          table.set(wrapped, row->key, plus_two_to_the_32(value)).is_ok()) {
        EXPECT_NE(render(table, options), render(table, wrapped))
            << row->key << " = " << value << " wrapped";
      }
    }
  }
}

TEST(OptionTables, RandomBytesNeverThrowOrWrap) {
  std::mt19937_64 rng(180219);
  fuzz(api::Options::table(), rng);
  fuzz(serving::ServeOptions::table(), rng);
  fuzz(net::NetOptions::table(), rng);
}

}  // namespace
}  // namespace gosh
