#include "tools/cli.h"

#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <iterator>
#include <sstream>

#include "admission/service.h"
#include "common/args.h"
#include "common/error.h"
#include "common/rng.h"
#include "core/analysis/sa_ds.h"
#include "core/analysis/sa_pm.h"
#include "core/analysis/utilization.h"
#include "core/protocols/factory.h"
#include "metrics/eer_collector.h"
#include "report/gantt.h"
#include "report/perf_json.h"
#include "report/table.h"
#include "report/trace_log.h"
#include "scenario/driver.h"
#include "scenario/plan.h"
#include "sim/engine.h"
#include "sim/execution_model.h"
#include "sim/fault/fault_injector.h"
#include "sim/fault/fault_plan.h"
#include "task/paper_examples.h"
#include "task/serialize.h"
#include "workload/generator.h"

namespace e2e::cli {
namespace {

constexpr const char* kUsage =
    "usage: e2e <command> [options]\n"
    "\n"
    "commands:\n"
    "  analyze  [file]      worst-case EER bounds and verdicts per protocol\n"
    "  simulate [file]      simulate; --protocol=DS|PM|MPM|RG|MPM-R|PM-E\n"
    "                       --horizon=N --gantt[=ticks/col] --trace --exec-var=F\n"
    "                       --seed=N\n"
    "                       --faults=key=val,...  (keys: seed, offset, drift-ppm,\n"
    "                         loss-prob, delay, dup-prob, timer-jitter,\n"
    "                         stall-prob, stall, sync-loss-prob, partition-at,\n"
    "                         partition-for, source-down-at, source-down-for)\n"
    "                       --precedence=record|abort|defer\n"
    "  generate             random paper-style system; --subtasks=N\n"
    "                       --utilization=PCT --tasks=N --processors=N\n"
    "                       --seed=N --ticks=N\n"
    "  run <spec|->         run a declarative scenario spec (see\n"
    "                       docs/scenarios.md); --threads=N --report=FMT\n"
    "                       --plan (print the cell plan, don't run)\n"
    "                       --perf-json=PATH (time a montecarlo, sweep or\n"
    "                       faults spec at each E2E_BENCH_THREADS count)\n"
    "  admit [file|-]       answer an admit/remove/query request stream (see\n"
    "                       docs/admission.md); --policy=pm|ds|holistic\n"
    "                       --processors=N --report=FMT --full-recompute\n"
    "                       --cache=N (decision-cache capacity)\n"
    "  example2             print the paper's Example 2 system description\n"
    "  help                 this text\n"
    "\n"
    "--threads=N must be positive; when omitted, the spec's threads key\n"
    "applies, then the E2E_THREADS environment variable, then hardware\n"
    "concurrency. Results are identical at every thread count.\n"
    "\n"
    "analyze/simulate read the system from [file] or stdin (see\n"
    "'e2e example2' for the format).\n";

TaskSystem load_system(const ArgParser& args, std::istream& in) {
  const std::string path = args.positional(1);
  if (path.empty() || path == "-") return read_system(in);
  std::ifstream file{path};
  if (!file) throw InvalidArgument("cannot open '" + path + "'");
  return read_system(file);
}

ProtocolKind parse_protocol(const std::string& name) {
  for (const ProtocolKind kind : kSelectableProtocolKinds) {
    if (name == to_string(kind)) return kind;
  }
  throw InvalidArgument("unknown protocol '" + name +
                        "' (DS, PM, MPM, RG, MPM-R, PM-E)");
}

/// --threads: a positive integer; anything else is an error.
int parse_threads(const ArgParser& args) {
  const int threads = args.value_as<int>("threads", 0);
  if (threads <= 0) {
    throw InvalidArgument("--threads must be a positive integer");
  }
  return threads;
}

PrecedencePolicy parse_precedence(const std::string& name) {
  if (name == "record") return PrecedencePolicy::kRecord;
  if (name == "abort") return PrecedencePolicy::kAbort;
  if (name == "defer") return PrecedencePolicy::kDeferRelease;
  throw InvalidArgument("unknown precedence policy '" + name +
                        "' (record, abort, defer)");
}

int cmd_analyze(const ArgParser& args, std::istream& in, std::ostream& out) {
  args.expect_known({});
  const TaskSystem system = load_system(args, in);

  const UtilizationReport utilization = utilization_report(system);
  out << "processors: " << system.processor_count()
      << ", tasks: " << system.task_count()
      << ", subtasks: " << system.subtask_count()
      << ", max utilization: " << TextTable::fmt(utilization.max, 3) << "\n\n";
  if (!utilization.feasible()) {
    out << "a processor exceeds 100% utilization; unschedulable under any "
           "protocol\n";
    return 2;
  }

  const AnalysisResult pm = analyze_sa_pm(system);
  const SaDsResult ds = analyze_sa_ds(system);
  TextTable table({"task", "deadline", "bound PM/MPM/RG", "ok?", "bound DS", "ok?"});
  for (const Task& t : system.tasks()) {
    table.add_row({t.name, std::to_string(t.relative_deadline),
                   TextTable::fmt_or_inf(pm.eer_bound(t.id), kTimeInfinity),
                   pm.task_schedulable[t.id.index()] ? "yes" : "NO",
                   TextTable::fmt_or_inf(ds.analysis.eer_bound(t.id), kTimeInfinity),
                   ds.analysis.task_schedulable[t.id.index()] ? "yes" : "NO"});
  }
  out << table.to_string();
  return pm.system_schedulable() ? 0 : 1;
}

int cmd_simulate(const ArgParser& args, std::istream& in, std::ostream& out,
                 std::ostream& err) {
  args.expect_known({"protocol", "horizon", "gantt", "trace", "exec-var", "seed",
                     "faults", "precedence"});
  const TaskSystem system = load_system(args, in);

  const ProtocolKind kind = parse_protocol(args.value_string("protocol", "RG"));
  const Time horizon = args.value_as<Time>("horizon", system.default_horizon());
  if (horizon <= 0) throw InvalidArgument("--horizon must be a positive integer");
  // Validated even when --exec-var, its only consumer, is absent.
  const std::uint64_t seed = args.value_as<std::uint64_t>("seed", 1);

  const auto protocol = make_protocol(kind, system);
  EerCollector eer{system};
  GanttRecorder gantt{system, args.has("gantt") ? horizon : 1};

  std::unique_ptr<UniformExecutionVariation> variation;
  if (args.has("exec-var")) {
    const double exec_var = args.value_as<double>("exec-var", 1.0);
    if (!(exec_var > 0.0 && exec_var <= 1.0)) {
      throw InvalidArgument("--exec-var must be in (0, 1]");
    }
    variation = std::make_unique<UniformExecutionVariation>(
        Rng{seed}, exec_var);
  }

  std::unique_ptr<FaultInjector> faults;
  if (args.has("faults")) {
    const std::optional<std::string> spec = args.value("faults");
    if (!spec.has_value()) {
      throw InvalidArgument("--faults expects key=value,... (see 'e2e help')");
    }
    faults = std::make_unique<FaultInjector>(system, parse_fault_plan(*spec));
  }
  const PrecedencePolicy policy =
      parse_precedence(args.value_string("precedence", "record"));

  Engine engine{system, *protocol,
                {.horizon = horizon,
                 .execution = variation.get(),
                 .faults = faults.get(),
                 .precedence_policy = policy}};
  engine.add_sink(&eer);
  if (args.has("gantt")) engine.add_sink(&gantt);
  std::unique_ptr<TraceLogger> trace;
  if (args.has("trace")) {
    trace = std::make_unique<TraceLogger>(out, system);
    engine.add_sink(trace.get());
  }
  try {
    engine.run();
  } catch (const PrecedenceViolationError& e) {
    err << "aborted: " << e.what() << "\n";
    return 3;
  }

  if (trace) return 0;  // the CSV is the output

  out << "protocol " << to_string(kind) << ", horizon " << horizon << "\n\n";
  TextTable table({"task", "instances", "avg EER", "worst EER", "deadline"});
  for (const Task& t : system.tasks()) {
    table.add_row({t.name, std::to_string(eer.completed_instances(t.id)),
                   TextTable::fmt(eer.average_eer(t.id), 2),
                   std::to_string(eer.worst_eer(t.id)),
                   std::to_string(t.relative_deadline)});
  }
  out << table.to_string() << "\nend-to-end deadline misses: "
      << engine.stats().deadline_misses
      << ", preemptions: " << engine.stats().preemptions
      << ", events: " << engine.stats().events_processed << "\n";
  if (faults != nullptr) {
    out << "faults: precedence violations: " << engine.stats().precedence_violations
        << ", dropped signals: " << engine.stats().dropped_signals
        << ", late signals: " << engine.stats().late_signals
        << ", duplicated signals: " << engine.stats().duplicated_signals
        << ", stalls: " << engine.stats().stalls
        << ", deferred releases: " << engine.stats().deferred_releases << "\n";
  }
  if (args.has("gantt")) {
    out << "\n" << gantt.render(std::max<Time>(1, args.value_as<Time>("gantt", 1)));
  }
  return 0;
}

/// `run --perf-json=PATH`: times `spec` once per E2E_BENCH_THREADS count
/// through the perf harness, discarding each report; the JSON's `bench`
/// is the spec's file name without extension and its `workload` the
/// plan's headline. Returns the harness's exit code. A figure or
/// breakdown spec has no schedule hash to check, so run_scenario
/// rejects it.
int time_scenario(ScenarioSpec spec, const std::string& spec_path,
                  const std::string& json_path, std::istream& in, std::ostream& out) {
  const std::string bench =
      spec_path == "-" ? "stdin" : std::filesystem::path{spec_path}.stem().string();
  const std::string plan = expand_scenario(spec).describe();
  // Every timed run of a `system stdin` spec reads the same input; any
  // other spec leaves stdin alone (it may never reach end of file).
  std::string input;
  if (spec.kind == ScenarioKind::kMonteCarlo &&
      spec.system.kind == SystemSource::Kind::kStdin) {
    input.assign(std::istreambuf_iterator<char>{in}, {});
  }
  return write_perf_report(
      bench, plan.substr(0, plan.find('\n')), json_path, bench_thread_counts(),
      [&](int threads) {
        spec.threads = threads;
        std::istringstream run_in{input};
        std::ostream discard{nullptr};
        ScenarioTotals totals;
        (void)run_scenario(spec, run_in, discard, &totals);
        return PerfRunOutcome{.events = totals.events,
                              .schedule_hash = totals.schedule_hash};
      },
      PerfWriteOptions{}, out);
}

int cmd_run(const ArgParser& args, std::istream& in, std::ostream& out) {
  args.expect_known({"threads", "report", "plan", "perf-json"});
  if (args.has("perf-json") && (args.has("plan") || args.has("threads"))) {
    throw InvalidArgument(
        "--perf-json takes neither --plan nor --threads (E2E_BENCH_THREADS "
        "sets the thread counts it times)");
  }
  const std::string path = args.positional(1);
  if (path.empty()) {
    throw InvalidArgument("run expects a scenario spec file (or '-' for stdin)");
  }

  ScenarioSpec spec;
  const ScenarioDefaults defaults = ScenarioDefaults::load();
  if (path == "-") {
    spec = parse_scenario(in, defaults);
  } else {
    std::ifstream file{path};
    if (!file) throw InvalidArgument("cannot open '" + path + "'");
    spec = parse_scenario(file, defaults);
  }
  if (args.has("threads")) spec.threads = parse_threads(args);
  if (args.has("report")) {
    spec.report = parse_report_format(args.value_string("report", "table"));
  }

  if (args.has("perf-json")) {
    const std::optional<std::string> json_path = args.value("perf-json");
    if (!json_path.has_value()) throw InvalidArgument("--perf-json expects a path");
    return time_scenario(spec, path, *json_path, in, out);
  }
  if (args.has("plan")) {
    out << expand_scenario(spec).describe();
    return 0;
  }
  return run_scenario(spec, in, out);
}

int cmd_admit(const ArgParser& args, std::istream& in, std::ostream& out) {
  args.expect_known({"policy", "processors", "report", "full-recompute", "cache"});
  const ScenarioDefaults defaults = ScenarioDefaults::load();

  admission::ServiceOptions options;
  options.controller.policy =
      admission::parse_policy(args.value_string("policy", "pm"));
  const std::int64_t processors =
      args.value_as<std::int64_t>("processors", defaults.admission_processors);
  if (processors <= 0) {
    throw InvalidArgument("--processors must be a positive integer");
  }
  options.controller.processors = static_cast<std::size_t>(processors);
  options.controller.full_recompute = args.has("full-recompute");
  const std::int64_t cache = args.value_as<std::int64_t>(
      "cache", static_cast<std::int64_t>(options.controller.decision_cache_capacity));
  if (cache < 0) throw InvalidArgument("--cache must be >= 0");
  options.controller.decision_cache_capacity = static_cast<std::size_t>(cache);
  options.report = parse_report_format(args.value_string("report", "table"));

  const std::string path = args.positional(1);
  admission::ServiceResult result;
  if (path.empty() || path == "-") {
    result = run_admission_stream(in, options);
  } else {
    std::ifstream file{path};
    if (!file) throw InvalidArgument("cannot open '" + path + "'");
    result = run_admission_stream(file, options);
  }
  out << result.report;
  return result.errors == 0 ? 0 : 2;
}

int cmd_generate(const ArgParser& args, std::ostream& out) {
  args.expect_known({"subtasks", "utilization", "tasks", "processors", "seed",
                     "ticks"});
  // A negative count would wrap to a huge size_t; 0 passes through to
  // the generator, whose own message names what is missing.
  const auto count = [&](const std::string& name, std::int64_t fallback) {
    const std::int64_t value = args.value_as<std::int64_t>(name, fallback);
    if (value < 0) throw InvalidArgument("--" + name + " must be a positive integer");
    return static_cast<std::size_t>(value);
  };
  GeneratorOptions options;
  options.subtasks_per_task = count("subtasks", 4);
  options.utilization = args.value_as<double>("utilization", 60.0) / 100.0;
  options.tasks = count("tasks", 12);
  options.processors = count("processors", 4);
  options.ticks_per_unit = args.value_as<std::int64_t>("ticks", 1000);
  Rng rng{args.value_as<std::uint64_t>("seed", 20260706)};
  write_system(out, generate_system(rng, options));
  return 0;
}

}  // namespace

int run(const std::vector<std::string>& args_vector, std::istream& in,
        std::ostream& out, std::ostream& err) {
  try {
    const ArgParser args{args_vector};
    const std::string command = args.positional(0);
    if (command.empty() || command == "help") {
      if (!command.empty()) args.expect_known({});
      out << kUsage;
      return command.empty() ? 1 : 0;
    }
    if (command == "analyze") return cmd_analyze(args, in, out);
    if (command == "simulate") return cmd_simulate(args, in, out, err);
    if (command == "generate") return cmd_generate(args, out);
    if (command == "run") return cmd_run(args, in, out);
    if (command == "admit") return cmd_admit(args, in, out);
    if (command == "example2") {
      args.expect_known({});
      write_system(out, paper::example2());
      return 0;
    }
    err << "e2e: unknown command '" << command << "'\n" << kUsage;
    return 1;
  } catch (const InvalidArgument& e) {
    err << "e2e: " << e.what() << "\n";
    return 1;
  }
}

}  // namespace e2e::cli
