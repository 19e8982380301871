#include "common/args.h"

#include <algorithm>

#include "common/error.h"

namespace e2e {

ArgParser::ArgParser(std::vector<std::string> tokens) {
  bool options_done = false;
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const std::string& token = tokens[i];
    if (options_done || token.size() < 2 || token.rfind("--", 0) != 0) {
      positionals_.push_back(token);
      continue;
    }
    if (token == "--") {
      options_done = true;
      continue;
    }
    const std::size_t equals = token.find('=');
    if (equals != std::string::npos) {
      options_[token.substr(2, equals - 2)] = token.substr(equals + 1);
      continue;
    }
    const std::string name = token.substr(2);
    // `--name value` form: consume the next token as the value unless it
    // looks like another option.
    if (i + 1 < tokens.size() && tokens[i + 1].rfind("--", 0) != 0) {
      options_[name] = tokens[++i];
    } else {
      options_[name] = std::nullopt;  // bare flag
    }
  }
}

ArgParser::ArgParser(int argc, const char* const* argv)
    : ArgParser([&] {
        std::vector<std::string> tokens;
        for (int i = 1; i < argc; ++i) tokens.emplace_back(argv[i]);
        return tokens;
      }()) {}

std::string ArgParser::positional(std::size_t i) const {
  return i < positionals_.size() ? positionals_[i] : std::string{};
}

bool ArgParser::has(const std::string& name) const {
  return options_.find(name) != options_.end();
}

std::optional<std::string> ArgParser::value(const std::string& name) const {
  const auto it = options_.find(name);
  return it == options_.end() ? std::nullopt : it->second;
}

std::string ArgParser::value_string(const std::string& name, std::string fallback) const {
  return value(name).value_or(std::move(fallback));
}

std::vector<std::pair<std::string, std::string>> split_key_values(
    const std::string& spec) {
  const auto trim = [](std::string s) {
    const auto first = s.find_first_not_of(" \t");
    const auto last = s.find_last_not_of(" \t");
    return first == std::string::npos ? std::string{}
                                      : s.substr(first, last - first + 1);
  };
  std::vector<std::pair<std::string, std::string>> pairs;
  std::size_t start = 0;
  while (start <= spec.size()) {
    const std::size_t comma = std::min(spec.find(',', start), spec.size());
    const std::string segment = trim(spec.substr(start, comma - start));
    start = comma + 1;
    if (segment.empty()) continue;
    const std::size_t equals = segment.find('=');
    if (equals == std::string::npos) {
      throw InvalidArgument("expected key=value, got '" + segment + "'");
    }
    std::string key = trim(segment.substr(0, equals));
    if (key.empty()) {
      throw InvalidArgument("expected key=value, got '" + segment + "'");
    }
    pairs.emplace_back(std::move(key), trim(segment.substr(equals + 1)));
  }
  return pairs;
}

std::string format_known_keys(const std::vector<std::string>& known) {
  std::string joined;
  for (const auto& key : known) {
    joined += joined.empty() ? key : ", " + key;
  }
  return joined;
}

void ArgParser::expect_known(const std::vector<std::string>& known) const {
  for (const auto& [name, _] : options_) {
    if (std::find(known.begin(), known.end(), name) == known.end()) {
      std::vector<std::string> flags;
      flags.reserve(known.size());
      for (const auto& k : known) flags.push_back("--" + k);
      throw InvalidArgument("unknown option --" + name +
                            " (known: " + format_known_keys(flags) + ")");
    }
  }
}

}  // namespace e2e
