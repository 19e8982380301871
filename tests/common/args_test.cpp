#include "common/args.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "common/error.h"

namespace e2e {
namespace {

TEST(Args, PositionalsInOrder) {
  const ArgParser args{{"analyze", "file.txt"}};
  EXPECT_EQ(args.positional_count(), 2u);
  EXPECT_EQ(args.positional(0), "analyze");
  EXPECT_EQ(args.positional(1), "file.txt");
  EXPECT_EQ(args.positional(2), "");
}

TEST(Args, EqualsForm) {
  const ArgParser args{{"--protocol=RG", "--horizon=100"}};
  EXPECT_EQ(args.value_string("protocol", ""), "RG");
  EXPECT_EQ(args.value_as<std::int64_t>("horizon", 0), 100);
}

TEST(Args, SpaceSeparatedForm) {
  const ArgParser args{{"--protocol", "DS", "cmd"}};
  EXPECT_EQ(args.value_string("protocol", ""), "DS");
  // "cmd" was consumed as the option's value, not a positional.
  EXPECT_EQ(args.positional_count(), 1u);
  EXPECT_EQ(args.positional(0), "cmd");
}

TEST(Args, BareFlagBeforeAnotherOption) {
  const ArgParser args{{"--trace", "--gantt=2"}};
  EXPECT_TRUE(args.has("trace"));
  EXPECT_EQ(args.value("trace"), std::nullopt);
  EXPECT_EQ(args.value_as<std::int64_t>("gantt", 1), 2);
}

TEST(Args, TrailingBareFlag) {
  const ArgParser args{{"simulate", "--trace"}};
  EXPECT_TRUE(args.has("trace"));
  EXPECT_EQ(args.value("trace"), std::nullopt);
}

TEST(Args, DoubleDashEndsOptions) {
  const ArgParser args{{"--", "--not-an-option"}};
  EXPECT_FALSE(args.has("not-an-option"));
  EXPECT_EQ(args.positional(0), "--not-an-option");
}

TEST(Args, MissingOptionUsesFallback) {
  const ArgParser args{{"cmd"}};
  EXPECT_EQ(args.value_as<std::int64_t>("horizon", 42), 42);
  EXPECT_DOUBLE_EQ(args.value_as<double>("x", 1.5), 1.5);
  EXPECT_EQ(args.value_string("name", "deflt"), "deflt");
  EXPECT_FALSE(args.has("horizon"));
}

TEST(Args, BadNumbersThrow) {
  const ArgParser args{{"--horizon=ten", "--ratio=1.2.3"}};
  EXPECT_THROW((void)args.value_as<std::int64_t>("horizon", 0), InvalidArgument);
  EXPECT_THROW((void)args.value_as<double>("ratio", 0.0), InvalidArgument);
}

TEST(Args, OutOfRangeIntegersThrow) {
  const ArgParser args{{"--big=9223372036854775808", "--small=-9223372036854775809",
                        "--edge=9223372036854775807"}};
  EXPECT_THROW((void)args.value_as<std::int64_t>("big", 0), InvalidArgument);
  EXPECT_THROW((void)args.value_as<std::int64_t>("small", 0), InvalidArgument);
  EXPECT_EQ(args.value_as<std::int64_t>("edge", 0),
            std::numeric_limits<std::int64_t>::max());
}

TEST(Args, Uint64CoversTheFullRangeAndRejectsNegatives) {
  const ArgParser args{{"--max=18446744073709551615", "--over=18446744073709551616",
                        "--neg=-1", "--word=x"}};
  EXPECT_EQ(args.value_as<std::uint64_t>("max", 0),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(args.value_as<std::uint64_t>("absent", 7), 7u);
  EXPECT_THROW((void)args.value_as<std::uint64_t>("over", 0), InvalidArgument);
  EXPECT_THROW((void)args.value_as<std::uint64_t>("neg", 0), InvalidArgument);
  EXPECT_THROW((void)args.value_as<std::uint64_t>("word", 0), InvalidArgument);
}

TEST(Args, ExpectKnownAcceptsKnown) {
  const ArgParser args{{"--protocol=RG", "--trace"}};
  EXPECT_NO_THROW(args.expect_known({"protocol", "trace", "horizon"}));
}

TEST(Args, ExpectKnownRejectsUnknown) {
  const ArgParser args{{"--prtocol=RG"}};  // typo
  EXPECT_THROW(args.expect_known({"protocol"}), InvalidArgument);
}

TEST(Args, ArgcArgvConstructorSkipsProgramName) {
  const char* argv[] = {"e2e", "analyze", "--x=1"};
  const ArgParser args{3, argv};
  EXPECT_EQ(args.positional(0), "analyze");
  EXPECT_EQ(args.value_as<std::int64_t>("x", 0), 1);
}

TEST(Args, EmptyInput) {
  const ArgParser args{std::vector<std::string>{}};
  EXPECT_EQ(args.positional_count(), 0u);
  EXPECT_EQ(args.positional(0), "");
}

TEST(Args, NegativeNumericValues) {
  // "--offset -5": -5 does not start with "--", so it is the value.
  const ArgParser args{{"--offset", "-5"}};
  EXPECT_EQ(args.value_as<std::int64_t>("offset", 0), -5);
}

TEST(SplitKeyValues, BasicPairsInOrder) {
  const auto pairs = split_key_values("a=1,b=two,c=3.5");
  ASSERT_EQ(pairs.size(), 3u);
  EXPECT_EQ(pairs[0], (std::pair<std::string, std::string>{"a", "1"}));
  EXPECT_EQ(pairs[1], (std::pair<std::string, std::string>{"b", "two"}));
  EXPECT_EQ(pairs[2], (std::pair<std::string, std::string>{"c", "3.5"}));
}

TEST(SplitKeyValues, TrimsWhitespaceAndSkipsEmptySegments) {
  const auto pairs = split_key_values("  a = 1 , ,b=2,  ");
  ASSERT_EQ(pairs.size(), 2u);
  EXPECT_EQ(pairs[0].first, "a");
  EXPECT_EQ(pairs[0].second, "1");
  EXPECT_EQ(pairs[1].first, "b");
}

TEST(SplitKeyValues, EmptyValueIsAllowed) {
  const auto pairs = split_key_values("key=");
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs[0].first, "key");
  EXPECT_EQ(pairs[0].second, "");
}

TEST(SplitKeyValues, EmptySpecYieldsNothing) {
  EXPECT_TRUE(split_key_values("").empty());
  EXPECT_TRUE(split_key_values(" , ,").empty());
}

TEST(SplitKeyValues, MissingEqualsThrows) {
  try {
    (void)split_key_values("a=1,oops,b=2");
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string{e.what()}.find("oops"), std::string::npos);
  }
}

TEST(SplitKeyValues, EmptyKeyThrows) {
  EXPECT_THROW((void)split_key_values("=5"), InvalidArgument);
}

}  // namespace
}  // namespace e2e
