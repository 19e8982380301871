#include "common/number.h"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <iomanip>
#include <sstream>
#include <type_traits>

#include "common/error.h"

namespace e2e {

template <typename T>
ParsedNumber<T> parse_number(std::string_view text) noexcept {
  ParsedNumber<T> parsed;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, parsed.value);
  if (ec == std::errc::result_out_of_range) {
    parsed.status = NumberStatus::kOutOfRange;
  } else if (ec == std::errc{} && ptr == end) {
    parsed.status = NumberStatus::kOk;
    if constexpr (std::is_floating_point_v<T>) {
      if (!std::isfinite(parsed.value)) parsed.status = NumberStatus::kOutOfRange;
    }
  }
  return parsed;
}

template <typename T>
const char* number_kind() noexcept {
  if constexpr (std::is_floating_point_v<T>) {
    return "a number";
  } else if constexpr (std::is_unsigned_v<T>) {
    return "an unsigned integer";
  } else {
    return "an integer";
  }
}

template <typename T>
T read_number(std::string_view text, std::string_view subject) {
  const ParsedNumber<T> parsed = parse_number<T>(text);
  if (parsed.ok()) return parsed.value;
  const std::string quoted = "'" + std::string{text} + "'";
  if (parsed.status == NumberStatus::kMalformed) {
    throw InvalidArgument(std::string{subject} + " expects " + number_kind<T>() +
                          ", got " + quoted);
  }
  throw InvalidArgument(std::string{subject} + " is out of range: " + quoted);
}

#define E2E_NUMBER_TYPE(T)                                           \
  template ParsedNumber<T> parse_number<T>(std::string_view) noexcept; \
  template const char* number_kind<T>() noexcept;                      \
  template T read_number<T>(std::string_view, std::string_view);
E2E_NUMBER_TYPE(int)
E2E_NUMBER_TYPE(std::int64_t)
E2E_NUMBER_TYPE(std::uint64_t)
E2E_NUMBER_TYPE(double)
#undef E2E_NUMBER_TYPE

std::string fmt_shortest(double v) {
  for (int precision = 1; precision <= 17; ++precision) {
    std::ostringstream stream;
    stream << std::setprecision(precision) << v;
    if (std::strtod(stream.str().c_str(), nullptr) == v) return stream.str();
  }
  std::ostringstream stream;
  stream << std::setprecision(17) << v;
  return stream.str();
}

}  // namespace e2e
