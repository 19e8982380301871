#include "admission/service.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <istream>
#include <sstream>
#include <vector>

#include "report/csv.h"
#include "report/format.h"
#include "report/table.h"

namespace e2e::admission {
namespace {

/// Nearest-rank percentile of an unsorted sample set (sorted in place).
double percentile_us(std::vector<double>& samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const auto rank = static_cast<std::size_t>(
      std::max(1.0, std::ceil(p / 100.0 * static_cast<double>(samples.size()))));
  return samples[rank - 1];
}

std::string verdict_of(const Outcome& outcome) {
  if (outcome.reason != ReasonCode::kNone) return to_string(outcome.reason);
  return outcome.accepted ? "accepted" : "rejected";
}

std::string bound_str(Duration bound) {
  return TextTable::fmt_or_inf(static_cast<long long>(bound),
                               static_cast<long long>(kTimeInfinity));
}

std::string render_table(const std::vector<Outcome>& outcomes) {
  TextTable table({"#", "verb", "task", "verdict", "live", "detail"});
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const Outcome& o = outcomes[i];
    table.add_row({std::to_string(i), to_string(o.verb), o.task_name,
                   verdict_of(o), std::to_string(o.live_tasks),
                   o.message + (o.from_cache ? " [cached]" : "")});
  }
  return table.to_string();
}

std::string render_csv(const std::vector<Outcome>& outcomes,
                       const ServiceResult& result) {
  std::ostringstream out;
  CsvWriter csv{out};
  csv.write_row({"index", "verb", "task", "accepted", "reason", "slot",
                 "culprit_task", "culprit_subtask", "culprit_processor",
                 "culprit_bound", "culprit_eer", "culprit_deadline", "margin",
                 "live_tasks", "cached", "path"});
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const Outcome& o = outcomes[i];
    csv.write_row({std::to_string(i), to_string(o.verb), o.task_name,
                   o.accepted ? "1" : "0", to_string(o.reason),
                   std::to_string(o.slot), o.culprit_task,
                   std::to_string(o.culprit_subtask),
                   std::to_string(o.culprit_processor), bound_str(o.culprit_bound),
                   bound_str(o.culprit_eer), std::to_string(o.culprit_deadline),
                   TextTable::fmt(o.margin, 6), std::to_string(o.live_tasks),
                   o.from_cache ? "1" : "0", to_string(o.path.path)});
  }
  // Latency section, blank-line separated: one row per request kind.
  out << "\n";
  csv.write_row({"kind", "count", "p50_us", "p95_us", "p99_us"});
  for (const KindLatency& lat : result.latency) {
    csv.write_row({lat.kind, std::to_string(lat.count),
                   TextTable::fmt(lat.p50_us, 1), TextTable::fmt(lat.p95_us, 1),
                   TextTable::fmt(lat.p99_us, 1)});
  }
  return out.str();
}

std::string render_json(const std::vector<Outcome>& outcomes,
                        const ServiceResult& result, const ServiceOptions& options,
                        const AdmissionController& controller) {
  std::ostringstream out;
  out << "{\n  \"policy\": " << json_str(to_string(options.controller.policy))
      << ",\n  \"engine\": " << json_str(controller.engine_name())
      << ",\n  \"outcomes\": [\n";
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const Outcome& o = outcomes[i];
    out << "    {\"index\": " << i << ", \"verb\": " << json_str(to_string(o.verb))
        << ", \"task\": " << json_str(o.task_name)
        << ", \"accepted\": " << (o.accepted ? "true" : "false")
        << ", \"reason\": " << json_str(to_string(o.reason))
        << ", \"live_tasks\": " << o.live_tasks;
    if (o.reason == ReasonCode::kBoundFailure || !o.remaining_schedulable) {
      out << ", \"culprit\": {\"task\": " << json_str(o.culprit_task)
          << ", \"subtask\": " << o.culprit_subtask
          << ", \"processor\": " << o.culprit_processor << ", \"bound\": "
          << json_str(bound_str(o.culprit_bound)) << ", \"eer\": "
          << json_str(bound_str(o.culprit_eer))
          << ", \"deadline\": " << o.culprit_deadline << "}";
    }
    if (o.verb == Verb::kQuery) out << ", \"margin\": " << TextTable::fmt(o.margin, 6);
    out << ", \"path\": " << json_str(to_string(o.path.path))
        << ", \"evaluations\": " << o.path.evaluations;
    if (o.path.path == EnginePath::kComponents || o.path.cone > 0) {
      // A component re-solve ran (possibly then cold).
      out << ", \"forced\": " << o.path.forced << ", \"cone\": " << o.path.cone
          << ", \"components_resolved\": " << o.path.resolved
          << ", \"components_skipped\": " << o.path.skipped
          << ", \"largest_component\": " << o.path.largest;
    }
    if (o.path.compacted) out << ", \"compacted\": true";
    out << ", \"message\": " << json_str(o.message) << "}"
        << (i + 1 < outcomes.size() ? ",\n" : "\n");
  }
  out << "  ],\n  \"latency\": [\n";
  for (std::size_t i = 0; i < result.latency.size(); ++i) {
    const KindLatency& lat = result.latency[i];
    out << "    {\"kind\": " << json_str(lat.kind) << ", \"count\": " << lat.count
        << ", \"p50_us\": " << TextTable::fmt(lat.p50_us, 1)
        << ", \"p95_us\": " << TextTable::fmt(lat.p95_us, 1)
        << ", \"p99_us\": " << TextTable::fmt(lat.p99_us, 1) << "}"
        << (i + 1 < result.latency.size() ? ",\n" : "\n");
  }
  out << "  ],\n  \"summary\": {\"requests\": " << result.requests
      << ", \"admitted\": " << result.admitted << ", \"rejected\": " << result.rejected
      << ", \"removed\": " << result.removed << ", \"errors\": " << result.errors
      << ", \"cache_hits\": " << controller.cache_hits()
      << ", \"result_hash\": \"" << hex_hash(result.result_hash) << "\"}\n}\n";
  return out.str();
}

}  // namespace

ServiceResult run_admission_stream(std::istream& in, const ServiceOptions& options) {
  AdmissionController controller{options.controller};
  std::vector<Outcome> outcomes;
  ServiceResult result;

  // One latency sample bucket per verb; batch members settle on the
  // batch-commit, so its sample covers the whole group's trajectory.
  std::array<std::vector<double>, 5> latency_us;
  std::string line;
  while (std::getline(in, line)) {
    const std::optional<Request> request = parse_request(line);
    if (!request.has_value()) continue;  // blank / comment
    const auto start = std::chrono::steady_clock::now();
    Outcome outcome = controller.submit(*request);
    const auto stop = std::chrono::steady_clock::now();
    latency_us[static_cast<std::size_t>(outcome.verb)].push_back(
        std::chrono::duration<double, std::micro>(stop - start).count());
    ++result.requests;
    if (outcome.reason == ReasonCode::kParseError ||
        outcome.reason == ReasonCode::kUnknownTask ||
        outcome.reason == ReasonCode::kBatchError) {
      ++result.errors;
    } else if (outcome.verb == Verb::kAdmit) {
      if (outcome.reason != ReasonCode::kQueued) {  // queued: decided later
        ++(outcome.accepted ? result.admitted : result.rejected);
      }
    } else if (outcome.verb == Verb::kRemove) {
      ++result.removed;
    } else if (outcome.verb == Verb::kBatchCommit) {
      (outcome.accepted ? result.admitted : result.rejected) += outcome.batch_size;
    }
    outcomes.push_back(std::move(outcome));
  }

  for (std::size_t v = 0; v < latency_us.size(); ++v) {
    if (latency_us[v].empty()) continue;
    KindLatency lat;
    lat.kind = to_string(static_cast<Verb>(v));
    lat.count = latency_us[v].size();
    lat.p50_us = percentile_us(latency_us[v], 50.0);
    lat.p95_us = percentile_us(latency_us[v], 95.0);
    lat.p99_us = percentile_us(latency_us[v], 99.0);
    result.latency.push_back(std::move(lat));
  }

  result.result_hash = controller.result_hash();
  switch (options.report) {
    case ReportFormat::kTable: {
      std::ostringstream out;
      out << render_table(outcomes);
      out << "requests " << result.requests << "  admitted " << result.admitted
          << "  rejected " << result.rejected << "  removed " << result.removed
          << "  errors " << result.errors << "  engine " << controller.engine_name()
          << "  cache " << controller.cache_hits() << "/"
          << controller.cache_hits() + controller.cache_misses() << "  hash "
          << hex_hash(result.result_hash) << "\n";
      for (const KindLatency& lat : result.latency) {
        out << "latency " << lat.kind << "  p50 " << TextTable::fmt(lat.p50_us, 1)
            << "us  p95 " << TextTable::fmt(lat.p95_us, 1) << "us  p99 "
            << TextTable::fmt(lat.p99_us, 1) << "us  (n=" << lat.count << ")\n";
      }
      result.report = out.str();
      break;
    }
    case ReportFormat::kCsv: result.report = render_csv(outcomes, result); break;
    case ReportFormat::kJson:
      result.report = render_json(outcomes, result, options, controller);
      break;
  }
  return result;
}

}  // namespace e2e::admission
