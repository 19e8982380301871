// The one rule by which every text grammar reads a number: command-line
// flags, scenario specs, system files, admission requests, fault plans,
// time-service configs and E2E_* variables.
//
// A number is the whole token, read by std::from_chars in decimal: no
// leading whitespace, no '+' sign, no hex and nothing after the digits.
// A value outside the target type (from_chars' ERANGE, an int outside
// int32, a double that is not finite) is out of range. Callers keep
// their own context (flag name, spec line, fault key, variable name) and
// either word the error themselves from parse_number's status or let
// read_number word it.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace e2e {

static_assert(sizeof(int) == sizeof(std::int32_t), "ids and counts are int32");

enum class NumberStatus { kOk, kMalformed, kOutOfRange };

template <typename T>
struct ParsedNumber {
  T value{};
  NumberStatus status = NumberStatus::kMalformed;

  [[nodiscard]] bool ok() const noexcept { return status == NumberStatus::kOk; }
};

/// `text` read by the rule above, for T in int, std::int64_t,
/// std::uint64_t and double. The int instance is the one checked
/// narrowing: counts, processor ids and priorities that would wrap
/// through a cast from a wider type are out of range instead.
template <typename T>
[[nodiscard]] ParsedNumber<T> parse_number(std::string_view text) noexcept;

/// "an integer", "an unsigned integer" or "a number", for error messages.
template <typename T>
[[nodiscard]] const char* number_kind() noexcept;

/// parse_number's value; otherwise throws InvalidArgument worded
/// "<subject> expects <kind>, got '<text>'" or "<subject> is out of
/// range: '<text>'".
template <typename T>
[[nodiscard]] T read_number(std::string_view text, std::string_view subject);

/// Shortest decimal form that reads back as exactly `v`.
[[nodiscard]] std::string fmt_shortest(double v);

}  // namespace e2e
