// Integer arithmetic helpers used by the schedulability analyses.
//
// All of these are overflow-aware: the analyses iterate expressions like
// ceil((t + J) / p) * e over many subtasks, and a divergent fixpoint can
// push t towards very large values before the divergence cap triggers.
// Saturating behaviour (returning kTimeInfinity) keeps such runs
// well-defined instead of being undefined behaviour.
#pragma once

#include <cstdint>

#include "common/time.h"

namespace e2e {

/// ceil(a / b) for a >= 0, b > 0.
[[nodiscard]] constexpr std::int64_t ceil_div(std::int64_t a, std::int64_t b) noexcept {
  return (a + b - 1) / b;
}

/// floor(a / b) for a >= 0, b > 0.
[[nodiscard]] constexpr std::int64_t floor_div(std::int64_t a, std::int64_t b) noexcept {
  return a / b;
}

/// a + b, saturating at kTimeInfinity; treats either operand being
/// kTimeInfinity as infinite. Requires a, b >= 0. Defined inline: this is
/// the innermost operation of every fixpoint iterate, executed once per
/// interference term, and an out-of-line call there dominates the loop.
[[nodiscard]] inline std::int64_t sat_add(std::int64_t a, std::int64_t b) noexcept {
  if (a == kTimeInfinity || b == kTimeInfinity) return kTimeInfinity;
  std::int64_t out = 0;
  if (__builtin_add_overflow(a, b, &out)) return kTimeInfinity;
  return out;
}

/// a * b, saturating at kTimeInfinity; treats either operand being
/// kTimeInfinity as infinite (unless the other is 0, which yields 0).
/// Requires a, b >= 0. Inline for the same reason as sat_add.
[[nodiscard]] inline std::int64_t sat_mul(std::int64_t a, std::int64_t b) noexcept {
  if (a == 0 || b == 0) return 0;
  if (a == kTimeInfinity || b == kTimeInfinity) return kTimeInfinity;
  std::int64_t out = 0;
  if (__builtin_mul_overflow(a, b, &out)) return kTimeInfinity;
  return out;
}

/// multiplier * value truncated to ticks (the plain static_cast), or
/// kTimeInfinity when the product is not representable as int64: a
/// double-to-integer conversion out of range is undefined behaviour, and
/// on x86 it yields INT64_MIN. Every "k periods" limit (divergence caps,
/// failure cutoffs, horizons) goes through here. Requires multiplier,
/// value >= 0.
[[nodiscard]] inline std::int64_t sat_scale(double multiplier, std::int64_t value) noexcept {
  const double product = multiplier * static_cast<double>(value);
  // 2^63 is exact in a double; every double below it converts in range.
  if (!(product < 9223372036854775808.0)) return kTimeInfinity;
  return static_cast<std::int64_t>(product);
}

/// Greatest common divisor; gcd(0, x) == x. Requires a, b >= 0.
[[nodiscard]] std::int64_t gcd64(std::int64_t a, std::int64_t b) noexcept;

/// Least common multiple, saturating at kTimeInfinity. Requires a, b > 0.
/// Used for hyperperiod computation, which can legitimately overflow for
/// co-prime tick-scaled periods.
[[nodiscard]] std::int64_t lcm64_saturating(std::int64_t a, std::int64_t b) noexcept;

}  // namespace e2e
