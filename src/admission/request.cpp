#include "admission/request.h"

#include <algorithm>
#include <vector>

#include "common/args.h"
#include "common/error.h"
#include "common/number.h"

namespace e2e::admission {
namespace {

const std::vector<std::string> kAdmitKeys{"name",   "period", "phase",
                                          "deadline", "jitter", "sub"};
const std::vector<std::string> kRemoveKeys{"name"};

/// Whitespace-splits `line`, dropping everything from the first '#'.
std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::string current;
  for (const char c : line) {
    if (c == '#') break;
    if (c == ' ' || c == '\t' || c == '\r' || c == '\n') {
      if (!current.empty()) tokens.push_back(std::move(current));
      current.clear();
    } else {
      current.push_back(c);
    }
  }
  if (!current.empty()) tokens.push_back(std::move(current));
  return tokens;
}

/// `proc:exec:prio[:np]`.
SubtaskSpec parse_subtask(const std::string& value) {
  std::vector<std::string> parts;
  std::string current;
  for (const char c : value) {
    if (c == ':') {
      parts.push_back(std::move(current));
      current.clear();
    } else {
      current.push_back(c);
    }
  }
  parts.push_back(std::move(current));
  if (parts.size() < 3 || parts.size() > 4) {
    throw InvalidArgument("sub expects proc:exec:prio[:np], got '" + value + "'");
  }
  SubtaskSpec sub;
  sub.processor = read_number<int>(parts[0], "sub processor");
  sub.execution_time = read_number<Duration>(parts[1], "sub execution time");
  sub.priority_level = read_number<int>(parts[2], "sub priority");
  if (parts.size() == 4) {
    if (parts[3] != "np") {
      throw InvalidArgument("sub flag must be 'np', got '" + parts[3] + "'");
    }
    sub.preemptible = false;
  }
  return sub;
}

Request parse_tokens(const std::vector<std::string>& tokens) {
  Request request;
  const std::string& verb = tokens.front();
  const std::vector<std::string>* known = nullptr;
  if (verb == "admit") {
    request.verb = Verb::kAdmit;
    known = &kAdmitKeys;
  } else if (verb == "remove") {
    request.verb = Verb::kRemove;
    known = &kRemoveKeys;
  } else if (verb == "query" || verb == "batch-begin" || verb == "batch-commit") {
    request.verb = verb == "query"       ? Verb::kQuery
                   : verb == "batch-begin" ? Verb::kBatchBegin
                                           : Verb::kBatchCommit;
    if (tokens.size() > 1) {
      throw InvalidArgument(verb + " takes no arguments");
    }
    return request;
  } else {
    throw InvalidArgument("unknown request verb '" + verb +
                          "' (admit, remove, query, batch-begin, batch-commit)");
  }

  bool saw_period = false;
  for (std::size_t i = 1; i < tokens.size(); ++i) {
    const std::string& token = tokens[i];
    const std::size_t eq = token.find('=');
    if (eq == std::string::npos || eq == 0) {
      throw InvalidArgument("expected key=value, got '" + token + "'");
    }
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    if (std::find(known->begin(), known->end(), key) == known->end()) {
      throw InvalidArgument("unknown key '" + key +
                            "' (known: " + format_known_keys(*known) + ")");
    }
    // Every key but the repeatable `sub` may appear at most once.
    if (key == "sub") {
      request.task.subtasks.push_back(parse_subtask(value));
      continue;
    }
    if (key == "name") {
      if (!request.task.name.empty()) throw InvalidArgument("duplicate key 'name'");
      if (value.empty()) throw InvalidArgument("name must not be empty");
      request.task.name = value;
      continue;
    }
    const auto set_once = [&](Duration& field) {
      if (field != 0) throw InvalidArgument("duplicate key '" + key + "'");
      field = read_number<Duration>(value, key);
    };
    if (key == "period") {
      if (saw_period) throw InvalidArgument("duplicate key 'period'");
      saw_period = true;
      request.task.period = read_number<Duration>(value, key);
    } else if (key == "phase") {
      set_once(request.task.phase);
    } else if (key == "deadline") {
      set_once(request.task.deadline);
    } else {  // jitter
      set_once(request.task.release_jitter);
    }
  }

  if (request.task.name.empty()) {
    throw InvalidArgument(std::string{to_string(request.verb)} +
                          " requires name=...");
  }
  return request;
}

}  // namespace

const char* to_string(Verb verb) noexcept {
  switch (verb) {
    case Verb::kAdmit: return "admit";
    case Verb::kRemove: return "remove";
    case Verb::kQuery: return "query";
    case Verb::kBatchBegin: return "batch-begin";
    case Verb::kBatchCommit: return "batch-commit";
  }
  return "?";
}

std::optional<Request> parse_request(const std::string& line) {
  const std::vector<std::string> tokens = tokenize(line);
  if (tokens.empty()) return std::nullopt;
  try {
    return parse_tokens(tokens);
  } catch (const InvalidArgument& e) {
    Request request;
    request.parse_error = e.what();
    return request;
  }
}

}  // namespace e2e::admission
