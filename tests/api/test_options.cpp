// gosh::api::Options — validation, arg/file parsing round-trips, and the
// strict-parsing rejections the seed CLI silently swallowed.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "gosh/api/options.hpp"
#include "gosh/api/registry.hpp"

namespace gosh::api {
namespace {

/// argv adapter: gtest-owned strings to the char** main() shape.
class Args {
 public:
  explicit Args(std::vector<std::string> args) : storage_(std::move(args)) {
    pointers_.push_back(const_cast<char*>("gosh_embed"));
    for (auto& arg : storage_) pointers_.push_back(arg.data());
  }
  int argc() const { return static_cast<int>(pointers_.size()); }
  char** argv() { return pointers_.data(); }

 private:
  std::vector<std::string> storage_;
  std::vector<char*> pointers_;
};

std::string temp_path(const char* name) {
  return testing::TempDir() + name;
}

TEST(Options, DefaultsValidate) {
  Options options;
  EXPECT_TRUE(options.validate().is_ok());
}

TEST(Options, ParseHelpersAcceptAndReject) {
  EXPECT_TRUE(parse_integer("42").ok());
  EXPECT_EQ(parse_integer(" -7 ").value(), -7);
  EXPECT_FALSE(parse_integer("12x").ok());
  EXPECT_FALSE(parse_integer("").ok());
  EXPECT_FALSE(parse_integer("abc").ok());

  EXPECT_EQ(parse_unsigned("17").value(), 17ull);
  EXPECT_FALSE(parse_unsigned("-1").ok());
  // The full uint64 range is legal (a 64-bit seed may use all of it).
  EXPECT_EQ(parse_unsigned("18446744073709551615").value(),
            18446744073709551615ull);

  EXPECT_DOUBLE_EQ(parse_real("0.5").value(), 0.5);
  EXPECT_TRUE(parse_real("1e3").ok());
  EXPECT_FALSE(parse_real("0.5.5").ok());
  EXPECT_FALSE(parse_real("nanx").ok());

  EXPECT_TRUE(parse_bool("true").value());
  EXPECT_FALSE(parse_bool("0").value());
  EXPECT_FALSE(parse_bool("yes").ok());
}

TEST(Options, FromArgsRoundTrip) {
  Args args({"--backend", "largegraph", "--preset", "fast", "--dim", "48",
             "--epochs", "123", "--seed", "7", "--device-mib", "64",
             "--negative-samples", "5", "--eval", "--demo", "--output",
             "out.bin", "--format", "text"});
  auto parsed = Options::from_args(args.argc(), args.argv());
  ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
  const Options& options = parsed.value();
  EXPECT_EQ(options.backend, "largegraph");
  EXPECT_EQ(options.preset, "fast");
  EXPECT_EQ(options.train().dim, 48u);
  EXPECT_EQ(options.gosh.total_epochs, 123u);
  EXPECT_EQ(options.train().seed, 7u);
  EXPECT_EQ(options.train().negative_samples, 5u);
  EXPECT_EQ(options.device.memory_bytes, std::size_t{64} << 20);
  EXPECT_TRUE(options.run_eval);
  EXPECT_TRUE(options.demo);
  EXPECT_EQ(options.output_path, "out.bin");
  EXPECT_EQ(options.output_format, "text");
}

TEST(Options, PresetAppliesBeforeOtherKeysRegardlessOfOrder) {
  // --epochs written BEFORE --preset must still override the preset's
  // budget: preset/large-scale are applied first by construction.
  Args args({"--epochs", "77", "--preset", "slow"});
  auto parsed = Options::from_args(args.argc(), args.argv());
  ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
  EXPECT_EQ(parsed.value().gosh.total_epochs, 77u);
  EXPECT_EQ(parsed.value().preset, "slow");
  // And the preset's learning rate did land.
  EXPECT_FLOAT_EQ(parsed.value().train().learning_rate, 0.025f);
}

TEST(Options, LargeScaleSelectsLargeBudgets) {
  Args args({"--preset", "normal", "--large-scale"});
  auto parsed = Options::from_args(args.argc(), args.argv());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().gosh.total_epochs, 200u);  // e_large of Table 3
}

TEST(Options, RejectsValuesTheFieldCannotHold) {
  // 2^32 + 1 must be an error, not dim=1 via silent unsigned truncation.
  Args args({"--dim", "4294967297"});
  auto parsed = Options::from_args(args.argc(), args.argv());
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
}

TEST(Options, RejectsNonNumericDim) {
  Args args({"--dim", "abc"});
  auto parsed = Options::from_args(args.argc(), args.argv());
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
}

TEST(Options, RejectsNegativeSeedInsteadOfWrapping) {
  // The seed tool cast atol(-3) through unsigned, silently producing a
  // huge seed; the facade rejects it.
  Args args({"--seed", "-3"});
  auto parsed = Options::from_args(args.argc(), args.argv());
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
}

TEST(Options, RejectsTrailingJunkAndUnknownFlagsAndMissingValues) {
  {
    Args args({"--dim", "12x"});
    EXPECT_FALSE(Options::from_args(args.argc(), args.argv()).ok());
  }
  {
    Args args({"--frobnicate", "1"});
    EXPECT_FALSE(Options::from_args(args.argc(), args.argv()).ok());
  }
  {
    Args args({"--dim"});
    EXPECT_FALSE(Options::from_args(args.argc(), args.argv()).ok());
  }
  {
    Args args({"stray"});
    EXPECT_FALSE(Options::from_args(args.argc(), args.argv()).ok());
  }
}

TEST(Options, ValidateRejectsOutOfRangeValues) {
  {
    Options options;
    options.gosh.train.dim = 0;
    EXPECT_FALSE(options.validate().is_ok());
  }
  {
    Options options;
    options.gosh.total_epochs = 0;
    EXPECT_FALSE(options.validate().is_ok());
  }
  {
    // p = 0 (fully geometric) is legal — the smoothing ablation sweeps
    // down to it; only values outside [0, 1] are rejected.
    Options options;
    options.gosh.smoothing_ratio = 0.0;
    EXPECT_TRUE(options.validate().is_ok());
    options.gosh.smoothing_ratio = -0.1;
    EXPECT_FALSE(options.validate().is_ok());
    options.gosh.smoothing_ratio = 1.1;
    EXPECT_FALSE(options.validate().is_ok());
  }
  {
    Options options;
    options.output_format = "yaml";
    EXPECT_FALSE(options.validate().is_ok());
  }
  {
    Options options;
    options.gosh.large_graph.pgpu = 1;
    EXPECT_FALSE(options.validate().is_ok());
  }
}

TEST(Options, ValidateRejectsAnUnknownBackendListingTheRegisteredOnes) {
  // An unknown backend fails option validation, so a tool refuses it
  // before it reads any input, and the message names what would work.
  Options options;
  options.backend = "nope";
  const Status status = options.validate();
  ASSERT_EQ(status.code(), StatusCode::kNotFound);
  EXPECT_NE(status.message().find("'nope'"), std::string::npos);
  for (const std::string& name : BackendRegistry::instance().names()) {
    EXPECT_NE(status.message().find(name), std::string::npos) << name;
  }
  Args args({"--backend", "nope", "--demo"});
  EXPECT_FALSE(Options::from_args(args.argc(), args.argv()).ok());

  for (const char* known : {"auto", "device", "largegraph", "mile"}) {
    options.backend = known;
    EXPECT_TRUE(options.validate().is_ok()) << known;
  }
  // A backend registered before validation is as good as a built-in. The
  // registry is process-wide and keeps it for the rest of the process, so
  // it must construct like one too, and a repeated run finds it there.
  class CustomEmbedder final : public Embedder {
   public:
    std::string_view name() const noexcept override {
      return "test-options-custom";
    }
    Result<EmbedResult> embed(const graph::Graph&,
                              ProgressObserver*) override {
      return Status::internal("not used");
    }
  };
  BackendRegistry& registry = BackendRegistry::instance();
  if (!registry.contains("test-options-custom")) {
    ASSERT_TRUE(
        registry
            .add("test-options-custom",
                 [](const Options&) -> Result<std::unique_ptr<Embedder>> {
                   return std::unique_ptr<Embedder>(
                       std::make_unique<CustomEmbedder>());
                 })
            .is_ok());
  }
  options.backend = "test-options-custom";
  EXPECT_TRUE(options.validate().is_ok());
}

TEST(Options, FromFileRoundTrip) {
  const std::string path = temp_path("gosh_options_roundtrip.conf");
  {
    std::ofstream file(path);
    file << "# GOSH options file\n"
         << "preset = fast\n"
         << "dim = 24      # inline comment\n"
         << "epochs = 50\n"
         << "\n"
         << "backend = verse-cpu\n";
  }
  auto parsed = Options::from_file(path);
  ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
  EXPECT_EQ(parsed.value().preset, "fast");
  EXPECT_EQ(parsed.value().train().dim, 24u);
  EXPECT_EQ(parsed.value().gosh.total_epochs, 50u);
  EXPECT_EQ(parsed.value().backend, "verse-cpu");
  std::remove(path.c_str());
}

TEST(Options, FromFileRejectsMalformedLinesAndMissingFiles) {
  EXPECT_EQ(Options::from_file("/nonexistent/gosh.conf").status().code(),
            StatusCode::kIoError);

  const std::string path = temp_path("gosh_options_malformed.conf");
  {
    std::ofstream file(path);
    file << "dim 24\n";  // no '='
  }
  auto parsed = Options::from_file(path);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(Options, ArgsOverrideOptionsFile) {
  const std::string path = temp_path("gosh_options_layered.conf");
  {
    std::ofstream file(path);
    file << "dim = 64\nepochs = 90\n";
  }
  Args args({"--options", path, "--dim", "32"});
  auto parsed = Options::from_args(args.argc(), args.argv());
  ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
  EXPECT_EQ(parsed.value().train().dim, 32u);          // CLI wins
  EXPECT_EQ(parsed.value().gosh.total_epochs, 90u);    // file survives
  std::remove(path.c_str());
}

TEST(Options, CliPresetDoesNotClobberExplicitFileKnobs) {
  // A CLI --preset (or --large-scale) is applied BEFORE the file's
  // explicit keys, so epochs=2000 from the file survives the preset reset.
  const std::string path = temp_path("gosh_options_preset_order.conf");
  {
    std::ofstream file(path);
    file << "epochs = 2000\n";
  }
  Args args({"--options", path, "--preset", "fast", "--large-scale"});
  auto parsed = Options::from_args(args.argc(), args.argv());
  ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
  EXPECT_EQ(parsed.value().preset, "fast");
  EXPECT_TRUE(parsed.value().large_scale);
  EXPECT_EQ(parsed.value().gosh.total_epochs, 2000u);
  std::remove(path.c_str());
}

TEST(Options, FlagHelpersParseStrictly) {
  Args args({"--scale", "12", "--bad", "12x", "--list", "a,b,c", "--on"});
  EXPECT_EQ(flag_integer(args.argc(), args.argv(), "--scale", 5).value(), 12);
  EXPECT_EQ(flag_integer(args.argc(), args.argv(), "--missing", 5).value(),
            5);
  EXPECT_FALSE(flag_integer(args.argc(), args.argv(), "--bad", 5).ok());
  // A flag as the last token (value forgotten) is diagnosed, not defaulted.
  EXPECT_FALSE(flag_integer(args.argc(), args.argv(), "--on", 5).ok());
  EXPECT_TRUE(flag_present(args.argc(), args.argv(), "--on"));
  EXPECT_FALSE(flag_present(args.argc(), args.argv(), "--off"));
  const auto list = flag_list(args.argc(), args.argv(), "--list", {"z"});
  ASSERT_EQ(list.size(), 3u);
  EXPECT_EQ(list[1], "b");
  EXPECT_EQ(flag_list(args.argc(), args.argv(), "--none", {"z"}).front(),
            "z");
}

TEST(Options, HelpShortCircuits) {
  Args args({"--help", "--dim", "abc"});  // bad value after --help ignored
  auto parsed = Options::from_args(args.argc(), args.argv());
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed.value().show_help);
}

}  // namespace
}  // namespace gosh::api
