#include "cli_util.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <limits>

namespace botmeter::tools {
namespace {

CliArgs parse(std::vector<const char*> argv,
              std::set<std::string> value_flags = {"--family", "--bots"},
              std::set<std::string> bool_flags = {"--viz"}) {
  argv.insert(argv.begin(), "prog");
  return CliArgs(static_cast<int>(argv.size()),
                 const_cast<char**>(argv.data()), std::move(value_flags),
                 std::move(bool_flags));
}

TEST(CliArgsTest, ValuesAndBooleans) {
  const CliArgs args = parse({"--family", "newGoZ", "--viz"});
  EXPECT_EQ(args.value("--family"), "newGoZ");
  EXPECT_TRUE(args.flag("--viz"));
  EXPECT_FALSE(args.value("--bots").has_value());
}

TEST(CliArgsTest, DefaultsApplied) {
  const CliArgs args = parse({"--family", "Ramnit"});
  EXPECT_EQ(args.value_or("--family", "x"), "Ramnit");
  EXPECT_EQ(args.int_or("--bots", 64), 64);
  EXPECT_DOUBLE_EQ(args.double_or("--bots", 1.5), 1.5);
  EXPECT_FALSE(args.flag("--viz"));
}

TEST(CliArgsTest, IntegerParsing) {
  const CliArgs args = parse({"--bots", "128"});
  EXPECT_EQ(args.int_or("--bots", 0), 128);
}

TEST(CliArgsTest, NegativeAndDoubleParsing) {
  const CliArgs args = parse({"--bots", "-3"});
  EXPECT_EQ(args.int_or("--bots", 0), -3);
  const CliArgs d = parse({"--bots", "0.25"});
  EXPECT_DOUBLE_EQ(d.double_or("--bots", 0.0), 0.25);
}

TEST(CliArgsTest, MalformedNumbersRejected) {
  const CliArgs args = parse({"--bots", "many"});
  EXPECT_THROW((void)args.int_or("--bots", 0), ConfigError);
  EXPECT_THROW((void)args.double_or("--bots", 0.0), ConfigError);

  // A numeric prefix with trailing characters is not a number.
  const CliArgs trailing = parse({"--bots", "4x"});
  EXPECT_THROW((void)trailing.int_or("--bots", 0), ConfigError);
  EXPECT_THROW((void)trailing.count_or("--bots", 0), ConfigError);
  const CliArgs two_points = parse({"--bots", "0.1.5"});
  EXPECT_THROW((void)two_points.double_or("--bots", 0.0), ConfigError);
  const CliArgs empty = parse({"--bots", ""});
  EXPECT_THROW((void)empty.int_or("--bots", 0), ConfigError);

  // Counts reject negatives instead of wrapping to a huge size_t.
  const CliArgs negative = parse({"--bots", "-1"});
  EXPECT_EQ(negative.int_or("--bots", 0), -1);
  EXPECT_THROW((void)negative.count_or("--bots", 0), ConfigError);
  EXPECT_EQ(parse({"--bots", "0"}).count_or("--bots", 5), 0u);
  EXPECT_EQ(parse({}).count_or("--bots", 5), 5u);

  // A bounded count rejects values its caller's type cannot hold instead of
  // wrapping them: port 70000 used to bind 4464, and -1 bound 65535.
  constexpr std::int64_t kPortMax = std::numeric_limits<std::uint16_t>::max();
  EXPECT_THROW((void)parse({"--bots", "70000"}).count_or("--bots", 0, kPortMax),
               ConfigError);
  EXPECT_THROW((void)negative.count_or("--bots", 0, kPortMax), ConfigError);
  EXPECT_EQ(parse({"--bots", "65535"}).count_or("--bots", 0, kPortMax), 65535u);
  constexpr std::int64_t kU32Max = std::numeric_limits<std::uint32_t>::max();
  EXPECT_THROW(
      (void)parse({"--bots", "4294967296"}).count_or("--bots", 0, kU32Max),
      ConfigError);
  EXPECT_EQ(parse({"--bots", "4294967295"}).count_or("--bots", 0, kU32Max),
            4294967295u);
}

// Pools honour any worker count, so the tools bound the threads a command
// line may start: shards, and shards × workers per shard. Nothing here
// builds a pool.
TEST(CliArgsTest, ThreadCountsAreBounded) {
  const auto threads = [](const char* value, std::size_t copies) {
    return parse({"--bots", value}).threads_or("--bots", 1, copies);
  };
  EXPECT_EQ(parse({}).threads_or("--bots", 1), 1u);
  EXPECT_EQ(threads("1024", 1), 1024u);
  EXPECT_EQ(threads("32", 32), 32u);
  // A typo such as --threads 100000 used to start 10^5 threads.
  EXPECT_THROW((void)threads("100000", 1), UsageError);
  EXPECT_THROW((void)threads("1025", 1), UsageError);
  EXPECT_THROW((void)threads("33", 32), UsageError);
  EXPECT_THROW((void)threads("-1", 1), UsageError);
  // 0 is one per hardware thread, counted as such.
  EXPECT_EQ(threads("0", 1), 0u);
  EXPECT_THROW((void)threads("0", static_cast<std::size_t>(kMaxThreads) + 1),
               UsageError);
  // The shard count itself is bounded by the same constant.
  EXPECT_THROW(
      (void)parse({"--bots", "1025"}).count_or("--bots", 1, kMaxThreads),
      UsageError);
}

TEST(CliArgsTest, UnknownArgumentRejected) {
  EXPECT_THROW(parse({"--nope", "1"}), ConfigError);
  EXPECT_THROW(parse({"stray"}), ConfigError);
}

TEST(CliArgsTest, MissingValueRejected) {
  EXPECT_THROW(parse({"--family"}), ConfigError);
}

TEST(CliArgsTest, EmptyCommandLine) {
  const CliArgs args = parse({});
  EXPECT_FALSE(args.flag("--viz"));
  EXPECT_EQ(args.int_or("--bots", 7), 7);
}

TEST(CliArgsTest, OnlyCommandLineErrorsPrintUsage) {
  const auto family = [](std::vector<const char*> argv) {
    return dga_config_from(parse(std::move(argv), {"--family", "--config"}));
  };
  // Command-line errors: the flags themselves, their numbers, and the
  // --family / --config choice.
  EXPECT_THROW(parse({"--nope"}), UsageError);
  EXPECT_THROW(parse({"--family"}), UsageError);
  EXPECT_THROW((void)parse({"--bots", "4x"}).int_or("--bots", 0), UsageError);
  EXPECT_THROW((void)parse({"--bots", "x"}).double_or("--bots", 0.0),
               UsageError);
  EXPECT_THROW((void)parse({"--bots", "-1"}).count_or("--bots", 0), UsageError);
  EXPECT_THROW((void)family({}), UsageError);
  EXPECT_THROW(
      (void)family({"--family", "newGoZ", "--config", "dga.json"}),
      UsageError);
  EXPECT_THROW((void)family({"--family", "NoSuchFamily"}), UsageError);
  // Not one: a config file that cannot be read is a data error.
  try {
    (void)family({"--config", "/nonexistent/dga.json"});
    ADD_FAILURE() << "unreadable --config accepted";
  } catch (const Error& e) {
    EXPECT_EQ(dynamic_cast<const UsageError*>(&e), nullptr);
  }

  // Only a UsageError is followed by the usage text; every error is one
  // "error:" line and exit status 1.
  ::testing::internal::CaptureStderr();
  EXPECT_EQ(report_error(UsageError("unknown argument '--nope'"), "usage: x\n"),
            1);
  EXPECT_EQ(::testing::internal::GetCapturedStderr(),
            "error: unknown argument '--nope'\nusage: x\n");
  ::testing::internal::CaptureStderr();
  EXPECT_EQ(report_error(ConfigError("server id 3 outside the configured "
                                     "width 2"),
                         "usage: x\n"),
            1);
  EXPECT_EQ(::testing::internal::GetCapturedStderr(),
            "error: server id 3 outside the configured width 2\n");
  ::testing::internal::CaptureStderr();
  EXPECT_EQ(report_error(DataError("cannot open t.tsv"), "usage: x\n"), 1);
  EXPECT_EQ(::testing::internal::GetCapturedStderr(),
            "error: cannot open t.tsv\n");
}

}  // namespace
}  // namespace botmeter::tools
