#include "common/number.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>

#include "common/error.h"

namespace e2e {
namespace {

template <typename T>
NumberStatus status_of(const std::string& text) {
  return parse_number<T>(text).status;
}

TEST(Number, ReadsWholeDecimalTokens) {
  EXPECT_EQ(parse_number<std::int64_t>("-42").value, -42);
  EXPECT_EQ(parse_number<std::int64_t>("9223372036854775807").value,
            std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(parse_number<std::uint64_t>("18446744073709551615").value,
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(parse_number<int>("-2147483648").value, std::numeric_limits<int>::min());
  EXPECT_DOUBLE_EQ(parse_number<double>("2.5e-3").value, 2.5e-3);
  EXPECT_TRUE(parse_number<double>("0.1").ok());
}

TEST(Number, RejectsAnythingButTheWholeToken) {
  for (const std::string text : {"", " 1", "1 ", "+1", "0x10", "1x", "ten", "1.5", "-"}) {
    EXPECT_EQ(status_of<std::int64_t>(text), NumberStatus::kMalformed) << text;
    EXPECT_EQ(status_of<int>(text), NumberStatus::kMalformed) << text;
    EXPECT_EQ(status_of<std::uint64_t>(text), NumberStatus::kMalformed) << text;
  }
  for (const std::string text : {"", " 1", "+1", "0x1p3", "1.2.3", "1e", "."}) {
    EXPECT_EQ(status_of<double>(text), NumberStatus::kMalformed) << text;
  }
  EXPECT_EQ(status_of<std::uint64_t>("-1"), NumberStatus::kMalformed);
}

TEST(Number, OutOfRangeIsItsOwnStatus) {
  EXPECT_EQ(status_of<std::int64_t>("9223372036854775808"), NumberStatus::kOutOfRange);
  EXPECT_EQ(status_of<std::int64_t>("-9223372036854775809"), NumberStatus::kOutOfRange);
  EXPECT_EQ(status_of<std::uint64_t>("18446744073709551616"), NumberStatus::kOutOfRange);
  // The checked narrowing: 2^32 would wrap to 0 through a cast.
  EXPECT_EQ(status_of<int>("4294967296"), NumberStatus::kOutOfRange);
  EXPECT_EQ(status_of<int>("2147483648"), NumberStatus::kOutOfRange);
  EXPECT_EQ(status_of<int>("99999999999999999999"), NumberStatus::kOutOfRange);
  EXPECT_EQ(status_of<double>("1e999"), NumberStatus::kOutOfRange);
}

TEST(Number, DoublesMustBeFinite) {
  for (const std::string text : {"nan", "-nan", "inf", "-inf", "infinity"}) {
    EXPECT_EQ(status_of<double>(text), NumberStatus::kOutOfRange) << text;
  }
}

TEST(Number, ReadNumberWordsBothErrors) {
  EXPECT_EQ(read_number<int>("7", "--runs"), 7);
  const auto message = [](auto read) {
    try {
      read();
    } catch (const InvalidArgument& e) {
      return std::string{e.what()};
    }
    return std::string{"no throw"};
  };
  EXPECT_EQ(message([] { (void)read_number<int>("x", "--runs"); }),
            "--runs expects an integer, got 'x'");
  EXPECT_EQ(message([] { (void)read_number<std::uint64_t>("-1", "--seed"); }),
            "--seed expects an unsigned integer, got '-1'");
  EXPECT_EQ(message([] { (void)read_number<double>("1,5", "--exec-var"); }),
            "--exec-var expects a number, got '1,5'");
  EXPECT_EQ(message([] { (void)read_number<int>("4294967297", "--runs"); }),
            "--runs is out of range: '4294967297'");
}

TEST(Number, FmtShortestRoundTrips) {
  EXPECT_EQ(fmt_shortest(0.1), "0.1");
  EXPECT_EQ(fmt_shortest(20.0), "2e+01");  // the %g form, not to_chars'
  EXPECT_EQ(fmt_shortest(1e-5), "1e-05");
  for (const double v : {1.0 / 3.0, 0.05, 123456.789, 2.5e-300}) {
    const ParsedNumber<double> back = parse_number<double>(fmt_shortest(v));
    ASSERT_TRUE(back.ok()) << fmt_shortest(v);
    EXPECT_EQ(back.value, v);
  }
}

}  // namespace
}  // namespace e2e
