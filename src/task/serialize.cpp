#include "task/serialize.h"

#include <optional>
#include <ostream>
#include <sstream>

#include "common/error.h"
#include "common/number.h"
#include "task/builder.h"

namespace e2e {
namespace {

constexpr std::string_view kMagic = "e2esync v1";

[[noreturn]] void fail(int line_number, const std::string& message) {
  throw InvalidArgument("system file, line " + std::to_string(line_number) + ": " +
                        message);
}

/// Consumes one whitespace-delimited token as a T, by the rule of
/// common/number.h.
template <typename T = std::int64_t>
T parse_int(std::istringstream& line, int line_number, const char* what) {
  std::string token;
  line >> token;
  try {
    return read_number<T>(token, what);
  } catch (const InvalidArgument& e) {
    fail(line_number, e.what());
  }
}

/// Consumes the rest of the line (trimmed leading space) as a name.
std::string parse_name(std::istringstream& line) {
  std::string name;
  std::getline(line, name);
  const std::size_t start = name.find_first_not_of(' ');
  return start == std::string::npos ? std::string{} : name.substr(start);
}

}  // namespace

void write_system(std::ostream& out, const TaskSystem& system) {
  out << kMagic << "\n";
  out << "processors " << system.processor_count() << "\n";
  for (const Task& t : system.tasks()) {
    out << "task " << t.period << " " << t.phase << " " << t.relative_deadline << " "
        << t.release_jitter << " " << t.name << "\n";
    for (const Subtask& s : t.subtasks) {
      out << "sub " << s.processor.value() << " " << s.execution_time << " "
          << s.priority.level << " " << (s.preemptible ? 1 : 0) << " " << s.name
          << "\n";
    }
  }
}

std::string to_text(const TaskSystem& system) {
  std::ostringstream out;
  write_system(out, system);
  return out.str();
}

TaskSystem read_system(std::istream& in) {
  std::string line;
  int line_number = 0;

  if (!std::getline(in, line) || line != kMagic) {
    fail(1, "missing 'e2esync v1' header");
  }
  line_number = 1;

  std::optional<TaskSystemBuilder> builder;
  std::optional<TaskSystemBuilder::TaskHandle> current_task;

  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream tokens{line};
    std::string keyword;
    tokens >> keyword;

    if (keyword == "processors") {
      if (builder.has_value()) fail(line_number, "duplicate 'processors' line");
      const std::int64_t count = parse_int(tokens, line_number, "processor count");
      if (count <= 0) fail(line_number, "processor count must be positive");
      builder.emplace(static_cast<std::size_t>(count));
    } else if (keyword == "task") {
      if (!builder.has_value()) fail(line_number, "'task' before 'processors'");
      const std::int64_t period = parse_int(tokens, line_number, "period");
      const std::int64_t phase = parse_int(tokens, line_number, "phase");
      const std::int64_t deadline = parse_int(tokens, line_number, "deadline");
      const std::int64_t jitter = parse_int(tokens, line_number, "release jitter");
      try {
        current_task = builder->add_task({.period = period,
                                          .phase = phase,
                                          .deadline = deadline,
                                          .release_jitter = jitter,
                                          .name = parse_name(tokens)});
      } catch (const InvalidArgument& e) {
        fail(line_number, e.what());
      }
    } else if (keyword == "sub") {
      if (!current_task.has_value()) fail(line_number, "'sub' before any 'task'");
      const int processor = parse_int<int>(tokens, line_number, "processor id");
      const std::int64_t exec = parse_int(tokens, line_number, "execution time");
      const int priority = parse_int<int>(tokens, line_number, "priority");
      const std::int64_t preemptible = parse_int(tokens, line_number, "preemptible flag");
      if (preemptible != 0 && preemptible != 1) {
        fail(line_number, "preemptible flag must be 0 or 1");
      }
      try {
        current_task->subtask(ProcessorId{processor}, exec, Priority{priority},
                              parse_name(tokens));
        if (preemptible == 0) current_task->non_preemptible();
      } catch (const InvalidArgument& e) {
        fail(line_number, e.what());
      }
    } else {
      fail(line_number, "unknown keyword '" + keyword + "'");
    }
  }

  if (!builder.has_value()) fail(line_number, "missing 'processors' line");
  try {
    return std::move(*builder).build();
  } catch (const InvalidArgument& e) {
    fail(line_number, e.what());
  }
}

TaskSystem from_text(const std::string& text) {
  std::istringstream in{text};
  return read_system(in);
}

}  // namespace e2e
