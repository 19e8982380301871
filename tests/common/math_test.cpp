#include "common/math.h"

#include <gtest/gtest.h>

#include "common/time.h"

namespace e2e {
namespace {

TEST(CeilDiv, ExactDivision) {
  EXPECT_EQ(ceil_div(12, 4), 3);
  EXPECT_EQ(ceil_div(0, 7), 0);
}

TEST(CeilDiv, RoundsUp) {
  EXPECT_EQ(ceil_div(13, 4), 4);
  EXPECT_EQ(ceil_div(1, 1000), 1);
}

TEST(FloorDiv, Basics) {
  EXPECT_EQ(floor_div(13, 4), 3);
  EXPECT_EQ(floor_div(12, 4), 3);
  EXPECT_EQ(floor_div(0, 9), 0);
}

TEST(SatAdd, NormalValues) { EXPECT_EQ(sat_add(3, 4), 7); }

TEST(SatAdd, InfinityIsAbsorbing) {
  EXPECT_EQ(sat_add(kTimeInfinity, 1), kTimeInfinity);
  EXPECT_EQ(sat_add(1, kTimeInfinity), kTimeInfinity);
}

TEST(SatAdd, OverflowSaturates) {
  EXPECT_EQ(sat_add(kTimeInfinity - 1, 2), kTimeInfinity);
}

TEST(SatMul, NormalValues) { EXPECT_EQ(sat_mul(6, 7), 42); }

TEST(SatMul, ZeroBeatsInfinity) {
  EXPECT_EQ(sat_mul(0, kTimeInfinity), 0);
  EXPECT_EQ(sat_mul(kTimeInfinity, 0), 0);
}

TEST(SatMul, OverflowSaturates) {
  EXPECT_EQ(sat_mul(1LL << 40, 1LL << 40), kTimeInfinity);
}

TEST(SatScale, TruncatesLikeTheCast) {
  EXPECT_EQ(sat_scale(300.0, 1000), 300000);
  EXPECT_EQ(sat_scale(0.5, 7), 3);
  EXPECT_EQ(sat_scale(30.0, 0), 0);
}

TEST(SatScale, UnrepresentableProductSaturates) {
  EXPECT_EQ(sat_scale(300.0, 9'000'000'000'000'000'000), kTimeInfinity);
  EXPECT_EQ(sat_scale(1.0, kTimeInfinity), kTimeInfinity);  // rounds up to 2^63
  EXPECT_EQ(sat_scale(0.5, kTimeInfinity), 4611686018427387904);
}

TEST(Gcd, Basics) {
  EXPECT_EQ(gcd64(12, 18), 6);
  EXPECT_EQ(gcd64(0, 5), 5);
  EXPECT_EQ(gcd64(5, 0), 5);
  EXPECT_EQ(gcd64(7, 13), 1);
}

TEST(Lcm, Basics) {
  EXPECT_EQ(lcm64_saturating(4, 6), 12);
  EXPECT_EQ(lcm64_saturating(1, 9), 9);
}

TEST(Lcm, SaturatesOnOverflow) {
  // Two large co-prime values whose product overflows int64.
  EXPECT_EQ(lcm64_saturating((1LL << 40) + 1, (1LL << 40) + 3), kTimeInfinity);
}

TEST(IsInfinite, SentinelOnly) {
  EXPECT_TRUE(is_infinite(kTimeInfinity));
  EXPECT_FALSE(is_infinite(kTimeInfinity - 1));
  EXPECT_FALSE(is_infinite(0));
}

}  // namespace
}  // namespace e2e
