#include "report/perf_json.h"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <string_view>
#include <thread>

#if defined(__linux__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "common/error.h"
#include "common/number.h"
#include "report/format.h"

namespace e2e {
namespace {

/// A minimal recursive-descent JSON reader: just enough structure to
/// verify the perf-report schema without pulling in a JSON dependency.
class JsonReader {
 public:
  explicit JsonReader(const std::string& text) : text_(text) {}

  void expect(char c) {
    skip_space();
    if (pos_ >= text_.size() || text_[pos_] != c) {
      throw InvalidArgument("perf json: expected '" + std::string(1, c) +
                            "' at offset " + std::to_string(pos_));
    }
    ++pos_;
  }

  [[nodiscard]] bool consume(char c) {
    skip_space();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  [[nodiscard]] std::string read_string() {
    expect('"');
    std::string out;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\') ++pos_;
      if (pos_ >= text_.size()) break;
      out.push_back(text_[pos_++]);
    }
    if (pos_ >= text_.size()) {
      throw InvalidArgument("perf json: unterminated string");
    }
    ++pos_;  // closing quote
    return out;
  }

  [[nodiscard]] double read_number() {
    skip_space();
    const char* begin = text_.c_str() + pos_;
    char* end = nullptr;
    const double value = std::strtod(begin, &end);
    if (end == begin) {
      throw InvalidArgument("perf json: expected a number at offset " +
                            std::to_string(pos_));
    }
    pos_ += static_cast<std::size_t>(end - begin);
    return value;
  }

  [[nodiscard]] bool read_bool() {
    skip_space();
    if (text_.compare(pos_, 4, "true") == 0) {
      pos_ += 4;
      return true;
    }
    if (text_.compare(pos_, 5, "false") == 0) {
      pos_ += 5;
      return false;
    }
    throw InvalidArgument("perf json: expected true/false at offset " +
                          std::to_string(pos_));
  }

  void expect_end() {
    skip_space();
    if (pos_ != text_.size()) {
      throw InvalidArgument("perf json: trailing characters at offset " +
                            std::to_string(pos_));
    }
  }

 private:
  void skip_space() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

/// Peak RSS of this process in bytes; 0 where unsupported. Linux reports
/// ru_maxrss in kilobytes, macOS in bytes.
std::int64_t peak_rss_bytes_now() {
#if defined(__linux__)
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<std::int64_t>(usage.ru_maxrss) * 1024;
#elif defined(__APPLE__)
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<std::int64_t>(usage.ru_maxrss);
#else
  return 0;
#endif
}

void check_hash_string(const std::string& value) {
  if (value.size() != 18 || value.compare(0, 2, "0x") != 0) {
    throw InvalidArgument("perf json: schedule_hash must be an 18-char 0x... "
                          "hex string, got '" + value + "'");
  }
  for (std::size_t i = 2; i < value.size(); ++i) {
    if (std::isxdigit(static_cast<unsigned char>(value[i])) == 0) {
      throw InvalidArgument("perf json: schedule_hash has a non-hex digit: '" +
                            value + "'");
    }
  }
}

void validate_variant(JsonReader& reader) {
  reader.expect('{');
  bool saw_name = false, saw_wall = false, saw_speedup = false, saw_hash = false;
  do {
    const std::string key = reader.read_string();
    reader.expect(':');
    if (key == "name") {
      saw_name = true;
      if (reader.read_string().empty()) {
        throw InvalidArgument("perf json: variant name must be non-empty");
      }
    } else if (key == "wall_seconds") {
      saw_wall = true;
      if (reader.read_number() < 0.0) {
        throw InvalidArgument("perf json: variant wall_seconds must be non-negative");
      }
    } else if (key == "speedup_vs_legacy") {
      saw_speedup = true;
      if (reader.read_number() < 0.0) {
        throw InvalidArgument("perf json: speedup_vs_legacy must be non-negative");
      }
    } else if (key == "result_hash") {
      saw_hash = true;
      check_hash_string(reader.read_string());
    } else if (key == "latency_p50_us" || key == "latency_p95_us" ||
               key == "latency_p99_us") {
      if (reader.read_number() < 0.0) {
        throw InvalidArgument("perf json: " + key + " must be non-negative");
      }
    } else {
      throw InvalidArgument("perf json: unknown variant key '" + key + "'");
    }
  } while (reader.consume(','));
  reader.expect('}');
  if (!saw_name || !saw_wall || !saw_speedup || !saw_hash) {
    throw InvalidArgument("perf json: a variant is missing a required field");
  }
}

void validate_entry(JsonReader& reader) {
  reader.expect('{');
  bool saw_threads = false, saw_wall = false, saw_events = false,
       saw_rate = false, saw_speedup = false, saw_hash = false;
  do {
    const std::string key = reader.read_string();
    reader.expect(':');
    if (key == "threads") {
      saw_threads = true;
      if (reader.read_number() < 1.0) {
        throw InvalidArgument("perf json: threads must be positive");
      }
    } else if (key == "wall_seconds") {
      saw_wall = true;
      if (reader.read_number() < 0.0) {
        throw InvalidArgument("perf json: wall_seconds must be non-negative");
      }
    } else if (key == "events") {
      saw_events = true;
      if (reader.read_number() < 0.0) {
        throw InvalidArgument("perf json: events must be non-negative");
      }
    } else if (key == "events_per_second") {
      saw_rate = true;
      (void)reader.read_number();
    } else if (key == "speedup_vs_1_thread") {
      saw_speedup = true;
      (void)reader.read_number();
    } else if (key == "schedule_hash") {
      saw_hash = true;
      check_hash_string(reader.read_string());
    } else {
      throw InvalidArgument("perf json: unknown entry key '" + key + "'");
    }
  } while (reader.consume(','));
  reader.expect('}');
  if (!saw_threads || !saw_wall || !saw_events || !saw_rate || !saw_speedup ||
      !saw_hash) {
    throw InvalidArgument("perf json: an entry is missing a required field");
  }
}

}  // namespace

const PerfEntry* PerfReport::entry_for(int threads) const noexcept {
  for (const PerfEntry& entry : entries) {
    if (entry.threads == threads) return &entry;
  }
  return nullptr;
}

std::vector<int> bench_thread_counts() {
  if (const char* env = std::getenv("E2E_BENCH_THREADS");
      env != nullptr && *env != '\0') {
    std::vector<int> counts;
    std::string_view rest{env};
    while (!rest.empty()) {
      const std::size_t comma = std::min(rest.find(','), rest.size());
      const ParsedNumber<int> parsed = parse_number<int>(rest.substr(0, comma));
      if (!parsed.ok() || parsed.value <= 0) {
        throw InvalidArgument(
            "E2E_BENCH_THREADS must be comma-separated positive integers");
      }
      counts.push_back(parsed.value);
      rest.remove_prefix(std::min(comma + 1, rest.size()));
    }
    if (!counts.empty()) return counts;
  }
  return {1, 2, 4, 8};
}

PerfReport run_perf_harness(
    const std::string& bench, const std::string& workload,
    const std::vector<int>& thread_counts,
    const std::function<PerfRunOutcome(int threads)>& run) {
  E2E_ASSERT(!thread_counts.empty(), "perf harness needs a thread count");
  PerfReport report;
  report.bench = bench;
  report.workload = workload;
  report.deterministic = true;
  const unsigned hw = std::thread::hardware_concurrency();
  report.hw_threads = hw > 0 ? static_cast<int>(hw) : 1;

  for (const int threads : thread_counts) {
    const auto start = std::chrono::steady_clock::now();
    const PerfRunOutcome outcome = run(threads);
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;

    PerfEntry entry;
    entry.threads = threads;
    entry.wall_seconds = elapsed.count();
    entry.events = outcome.events;
    entry.events_per_second =
        entry.wall_seconds > 0.0
            ? static_cast<double>(outcome.events) / entry.wall_seconds
            : 0.0;
    entry.schedule_hash = outcome.schedule_hash;
    const double baseline = report.entries.empty()
                                ? entry.wall_seconds
                                : report.entries.front().wall_seconds;
    entry.speedup_vs_1_thread =
        entry.wall_seconds > 0.0 ? baseline / entry.wall_seconds : 0.0;
    report.entries.push_back(entry);
  }
  for (const PerfEntry& entry : report.entries) {
    if (entry.schedule_hash != report.entries.front().schedule_hash) {
      report.deterministic = false;
    }
  }
  // Sampled after the runs so the figure covers the workload's high-water
  // mark, not just the harness's own footprint.
  report.peak_rss_bytes = peak_rss_bytes_now();
  return report;
}

std::string to_json(const PerfReport& report) {
  std::ostringstream out;
  out << "{\n"
      << "  \"bench\": " << json_str(report.bench) << ",\n"
      << "  \"workload\": " << json_str(report.workload) << ",\n"
      << "  \"deterministic\": " << (report.deterministic ? "true" : "false")
      << ",\n"
      << "  \"hw_threads\": " << report.hw_threads << ",\n"
      << "  \"peak_rss_bytes\": " << report.peak_rss_bytes << ",\n";
  out << "  \"entries\": [";
  for (std::size_t i = 0; i < report.entries.size(); ++i) {
    const PerfEntry& entry = report.entries[i];
    out << (i == 0 ? "\n" : ",\n")
        << "    {\"threads\": " << entry.threads << ", \"wall_seconds\": "
        << std::setprecision(6) << std::fixed << entry.wall_seconds
        << ", \"events\": " << entry.events << ", \"events_per_second\": "
        << std::setprecision(1) << entry.events_per_second
        << ", \"speedup_vs_1_thread\": " << std::setprecision(3)
        << entry.speedup_vs_1_thread << ", \"schedule_hash\": \""
        << hex_hash(entry.schedule_hash) << "\"}";
    out.unsetf(std::ios::floatfield);
  }
  out << "\n  ]";
  if (!report.variants.empty()) {
    out << ",\n  \"variants\": [";
    for (std::size_t i = 0; i < report.variants.size(); ++i) {
      const PerfVariant& variant = report.variants[i];
      out << (i == 0 ? "\n" : ",\n")
          << "    {\"name\": " << json_str(variant.name) << ", \"wall_seconds\": "
          << std::setprecision(6) << std::fixed << variant.wall_seconds
          << ", \"speedup_vs_legacy\": " << std::setprecision(3)
          << variant.speedup_vs_legacy << ", \"result_hash\": \""
          << hex_hash(variant.result_hash) << "\"";
      if (variant.latency_p50_us > 0.0 || variant.latency_p95_us > 0.0 ||
          variant.latency_p99_us > 0.0) {
        out << ", \"latency_p50_us\": " << std::setprecision(1)
            << variant.latency_p50_us << ", \"latency_p95_us\": "
            << variant.latency_p95_us << ", \"latency_p99_us\": "
            << variant.latency_p99_us;
      }
      out << "}";
      out.unsetf(std::ios::floatfield);
    }
    out << "\n  ]";
  }
  out << "\n}\n";
  return out.str();
}

void validate_perf_json(const std::string& json) {
  JsonReader reader{json};
  reader.expect('{');
  bool saw_bench = false, saw_workload = false, saw_deterministic = false,
       saw_hw_threads = false, saw_peak_rss = false, saw_entries = false;
  do {
    const std::string key = reader.read_string();
    reader.expect(':');
    if (key == "bench") {
      saw_bench = true;
      if (reader.read_string().empty()) {
        throw InvalidArgument("perf json: bench name must be non-empty");
      }
    } else if (key == "workload") {
      saw_workload = true;
      (void)reader.read_string();
    } else if (key == "deterministic") {
      saw_deterministic = true;
      (void)reader.read_bool();
    } else if (key == "hw_threads") {
      saw_hw_threads = true;
      if (reader.read_number() < 1.0) {
        throw InvalidArgument("perf json: hw_threads must be positive");
      }
    } else if (key == "peak_rss_bytes") {
      saw_peak_rss = true;
      if (reader.read_number() < 0.0) {
        throw InvalidArgument("perf json: peak_rss_bytes must be non-negative");
      }
    } else if (key == "entries") {
      saw_entries = true;
      reader.expect('[');
      if (!reader.consume(']')) {
        do {
          validate_entry(reader);
        } while (reader.consume(','));
        reader.expect(']');
      }
    } else if (key == "variants") {
      // Optional: only benches with code-path comparisons emit it.
      reader.expect('[');
      if (!reader.consume(']')) {
        do {
          validate_variant(reader);
        } while (reader.consume(','));
        reader.expect(']');
      }
    } else {
      throw InvalidArgument("perf json: unknown top-level key '" + key + "'");
    }
  } while (reader.consume(','));
  reader.expect('}');
  reader.expect_end();
  if (!saw_bench || !saw_workload || !saw_deterministic || !saw_hw_threads ||
      !saw_peak_rss || !saw_entries) {
    throw InvalidArgument("perf json: missing a required top-level field");
  }
}

std::optional<std::string> scaling_gate_failure(const PerfReport& report,
                                                double floor) {
  // A host with fewer than 4 hardware threads cannot exhibit the scaling
  // being gated: its multi-thread runs time oversubscription of the same
  // cores, so any floor check would be noise.
  if (report.hw_threads < 4) return std::nullopt;
  const PerfEntry* one = report.entry_for(1);
  const PerfEntry* eight = report.entry_for(8);
  if (one == nullptr || eight == nullptr) return std::nullopt;
  if (eight->speedup_vs_1_thread >= floor) return std::nullopt;
  std::ostringstream message;
  message << report.bench << ": 8-thread speedup " << std::setprecision(3)
          << std::fixed << eight->speedup_vs_1_thread << "x is below the "
          << floor << "x scaling floor (hw_threads=" << report.hw_threads
          << ")";
  return message.str();
}

int write_perf_report(const std::string& bench, const std::string& workload,
                      const std::string& path,
                      const std::vector<int>& thread_counts,
                      const std::function<PerfRunOutcome(int threads)>& run,
                      const PerfWriteOptions& options, std::ostream& out) {
  PerfReport report = run_perf_harness(bench, workload, thread_counts, run);
  report.variants = options.variants;
  const std::string json = to_json(report);
  validate_perf_json(json);  // the harness checks its own output schema

  std::ofstream file{path};
  if (!file) {
    out << "cannot write '" << path << "'\n";
    return 2;
  }
  file << json;

  for (const PerfVariant& variant : report.variants) {
    out << bench << ": variant=" << variant.name << " wall="
        << std::setprecision(3) << std::fixed << variant.wall_seconds
        << "s speedup_vs_legacy=" << variant.speedup_vs_legacy
        << " result_hash=" << hex_hash(variant.result_hash) << "\n";
    out.unsetf(std::ios::floatfield);
  }
  for (const PerfEntry& entry : report.entries) {
    out << bench << ": threads=" << entry.threads << " wall="
        << std::setprecision(3) << std::fixed << entry.wall_seconds
        << "s events=" << entry.events << " speedup=" << entry.speedup_vs_1_thread
        << " hash=" << hex_hash(entry.schedule_hash) << "\n";
    out.unsetf(std::ios::floatfield);
  }
  // Code-path variants must agree bit-for-bit, exactly like thread counts.
  bool variants_agree = true;
  for (const PerfVariant& variant : report.variants) {
    if (variant.result_hash != report.variants.front().result_hash) {
      variants_agree = false;
    }
  }
  out << "wrote " << path
      << (report.deterministic ? "" : " (NOT deterministic across threads!)")
      << (variants_agree ? "" : " (variant results DIVERGE!)") << "\n";
  if (!report.deterministic) return 4;
  if (!variants_agree) return 5;

  // Opt-in thread-scaling gate (E2E_BENCH_GATE=1): fail the bench when the
  // 8-thread run scales below the floor (E2E_BENCH_GATE_FLOOR, default 3x).
  // scaling_gate_failure() skips itself on hosts with hw_threads < 4.
  if (const char* gate = std::getenv("E2E_BENCH_GATE");
      gate != nullptr && *gate != '\0' && std::string{gate} != "0") {
    double floor = 3.0;
    if (const char* env = std::getenv("E2E_BENCH_GATE_FLOOR");
        env != nullptr && *env != '\0') {
      const ParsedNumber<double> parsed = parse_number<double>(env);
      if (!parsed.ok() || parsed.value <= 0.0) {
        throw InvalidArgument("E2E_BENCH_GATE_FLOOR must be a positive number");
      }
      floor = parsed.value;
    }
    if (const std::optional<std::string> failure =
            scaling_gate_failure(report, floor)) {
      out << "SCALING GATE FAILED: " << *failure << "\n";
      return 6;
    }
    out << "scaling gate: "
        << (report.hw_threads < 4 ? "skipped (hw_threads < 4)" : "passed")
        << "\n";
  }
  return 0;
}

}  // namespace e2e
