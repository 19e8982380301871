// Text formatting shared by every machine-readable report (scenario
// JSON/CSV, admission JSON, perf JSON).
#pragma once

#include <cstdint>
#include <string>

namespace e2e {

/// `s` escaped for a JSON string body: `"` and `\` get a backslash, and
/// every byte below 0x20 becomes `\u00XX`, so any input yields valid
/// JSON. Other bytes pass through unchanged.
[[nodiscard]] std::string json_escape(const std::string& s);

/// `s` as a quoted JSON string.
[[nodiscard]] std::string json_str(const std::string& s);

/// `0x` plus 16 lower-case hex digits.
[[nodiscard]] std::string hex_hash(std::uint64_t hash);

}  // namespace e2e
