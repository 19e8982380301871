// Minimal command-line argument parser for the CLI tools.
//
// Grammar: positionals and `--name=value` / `--name value` / `--flag`
// options, in any order. `--` ends option parsing. Unknown options are
// the *caller's* concern: the parser records what it saw; commands
// validate against their known option set via expect_known().
#pragma once

#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/number.h"

namespace e2e {

class ArgParser {
 public:
  /// Parses tokens (argv[1..]); throws InvalidArgument on malformed
  /// input (an option with a missing value is only detectable by the
  /// caller via value()).
  explicit ArgParser(std::vector<std::string> tokens);
  ArgParser(int argc, const char* const* argv);

  [[nodiscard]] const std::vector<std::string>& positionals() const noexcept {
    return positionals_;
  }
  [[nodiscard]] std::size_t positional_count() const noexcept {
    return positionals_.size();
  }
  /// i-th positional or empty string.
  [[nodiscard]] std::string positional(std::size_t i) const;

  /// True if `--name` appeared (with or without a value).
  [[nodiscard]] bool has(const std::string& name) const;
  /// Value of `--name=value`; nullopt when absent or value-less.
  [[nodiscard]] std::optional<std::string> value(const std::string& name) const;

  /// `--name`'s value read by the rule of common/number.h (T is int,
  /// std::int64_t, std::uint64_t or double), or `fallback` when absent;
  /// throws InvalidArgument naming the flag on a malformed or
  /// out-of-range value.
  template <typename T>
  [[nodiscard]] T value_as(const std::string& name, T fallback) const {
    const std::optional<std::string> v = value(name);
    return v.has_value() ? read_number<T>(*v, "--" + name) : fallback;
  }
  [[nodiscard]] std::string value_string(const std::string& name,
                                         std::string fallback) const;

  /// Throws InvalidArgument naming the first option not in `known`.
  void expect_known(const std::vector<std::string>& known) const;

 private:
  std::vector<std::string> positionals_;
  std::map<std::string, std::optional<std::string>> options_;
};

/// Renders a known-key list for unknown-key diagnostics ("a, b, c").
/// Shared by ArgParser::expect_known and the key=value spec parsers
/// (fault plans, time-service configs) so every unknown-key error
/// carries the same "(known: ...)" suffix.
[[nodiscard]] std::string format_known_keys(const std::vector<std::string>& known);

/// Splits a `key=value,key=value,...` spec (the argument form of
/// compound options such as --faults) into ordered pairs. Whitespace
/// around keys, values, and commas is trimmed; empty segments (from a
/// trailing comma) are ignored. Throws InvalidArgument on a segment
/// without '=' or with an empty key.
[[nodiscard]] std::vector<std::pair<std::string, std::string>> split_key_values(
    const std::string& spec);

}  // namespace e2e
