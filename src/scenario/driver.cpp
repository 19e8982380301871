#include "scenario/driver.h"

#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>

#include "common/error.h"
#include "common/hash.h"
#include "common/number.h"
#include "common/rng.h"
#include "experiments/breakdown.h"
#include "experiments/faults.h"
#include "experiments/figures.h"
#include "experiments/monte_carlo.h"
#include "experiments/sweep.h"
#include "report/csv.h"
#include "report/format.h"
#include "report/table.h"
#include "scenario/executor.h"
#include "task/paper_examples.h"
#include "task/serialize.h"
#include "workload/generator.h"

namespace e2e {
namespace {

/// Adds one printed schedule hash (and its events) to `totals`, if any.
void tally(ScenarioTotals* totals, std::int64_t events, std::uint64_t schedule_hash) {
  if (totals == nullptr) return;
  totals->events += events;
  totals->schedule_hash = hash_combine(totals->schedule_hash, schedule_hash);
}

TaskSystem resolve_system(const SystemSource& src, std::istream& in) {
  switch (src.kind) {
    case SystemSource::Kind::kStdin:
      return read_system(in);
    case SystemSource::Kind::kFile: {
      std::ifstream file{src.path};
      if (!file) throw InvalidArgument("cannot open '" + src.path + "'");
      return read_system(file);
    }
    case SystemSource::Kind::kExample2:
      return paper::example2();
    case SystemSource::Kind::kGenerate: {
      GeneratorOptions options;
      options.subtasks_per_task =
          static_cast<std::size_t>(src.generate_subtasks);
      options.utilization = static_cast<double>(src.generate_utilization) / 100.0;
      options.tasks = static_cast<std::size_t>(src.generate_tasks);
      options.processors = static_cast<std::size_t>(src.generate_processors);
      options.ticks_per_unit = src.generate_ticks;
      Rng rng{src.generate_seed};
      return generate_system(rng, options);
    }
    case SystemSource::Kind::kInline: {
      std::istringstream stream{src.text};
      return read_system(stream);
    }
  }
  throw InvalidArgument("scenario: unknown system source");
}

// --- montecarlo -------------------------------------------------------

/// The Monte-Carlo table block; its bytes are pinned by the legacy goldens
/// of scenario_parity_test.
void montecarlo_table(std::ostream& out, const TaskSystem& system,
                      ProtocolKind kind, const MonteCarloResult& result) {
  out << "protocol " << to_string(kind) << ", " << result.runs
      << " runs, schedule hash " << hex_hash(result.schedule_hash) << ", events "
      << result.events_processed << "\n\n";
  TextTable table({"task", "instances", "mean EER", "p(miss)"});
  for (const Task& t : system.tasks()) {
    const TaskLatency& latency = result.per_task[t.id.index()];
    table.add_row({t.name, std::to_string(latency.instances),
                   TextTable::fmt(latency.eer.mean(), 2),
                   TextTable::fmt(latency.miss_probability(), 4)});
  }
  out << table.to_string();
}

int run_montecarlo(const ScenarioSpec& spec, std::istream& in, std::ostream& out,
                   ScenarioTotals* totals) {
  const TaskSystem system = resolve_system(spec.system, in);

  MonteCarloOptions options;
  options.runs = spec.systems;
  options.seed = spec.seed;
  options.horizon_periods = spec.horizon_periods;
  options.execution_min_fraction = spec.exec_var;
  options.threads = spec.threads;

  ScenarioExecutor executor{spec.threads};
  std::vector<MonteCarloResult> results;
  results.reserve(spec.protocols.size());
  for (const ProtocolKind kind : spec.protocols) {
    results.push_back(estimate_latency(system, kind, options, executor));
    tally(totals, results.back().events_processed, results.back().schedule_hash);
  }

  switch (spec.report) {
    case ReportFormat::kTable:
      for (std::size_t i = 0; i < results.size(); ++i) {
        if (i > 0) out << "\n";
        montecarlo_table(out, system, spec.protocols[i], results[i]);
      }
      break;
    case ReportFormat::kCsv: {
      CsvWriter csv{out};
      csv.write_row({"protocol", "task", "instances", "mean_eer", "p_miss"});
      for (std::size_t i = 0; i < results.size(); ++i) {
        for (const Task& t : system.tasks()) {
          const TaskLatency& latency = results[i].per_task[t.id.index()];
          csv.write_row({std::string{to_string(spec.protocols[i])}, t.name,
                         std::to_string(latency.instances),
                         fmt_shortest(latency.eer.mean()),
                         fmt_shortest(latency.miss_probability())});
        }
      }
      break;
    }
    case ReportFormat::kJson: {
      out << "{\"scenario\":\"montecarlo\",\"runs\":" << spec.systems
          << ",\"protocols\":[";
      for (std::size_t i = 0; i < results.size(); ++i) {
        if (i > 0) out << ",";
        const MonteCarloResult& r = results[i];
        out << "{\"protocol\":" << json_str(std::string{to_string(spec.protocols[i])})
            << ",\"schedule_hash\":" << json_str(hex_hash(r.schedule_hash))
            << ",\"events\":" << r.events_processed << ",\"tasks\":[";
        bool first = true;
        for (const Task& t : system.tasks()) {
          const TaskLatency& latency = r.per_task[t.id.index()];
          if (!first) out << ",";
          first = false;
          out << "{\"task\":" << json_str(t.name)
              << ",\"instances\":" << latency.instances
              << ",\"mean_eer\":" << fmt_shortest(latency.eer.mean())
              << ",\"p_miss\":" << fmt_shortest(latency.miss_probability()) << "}";
        }
        out << "]}";
      }
      out << "]}\n";
      break;
    }
  }
  return 0;
}

// --- sweep ------------------------------------------------------------

/// The sweep table block; its bytes are pinned by the legacy goldens of
/// scenario_parity_test.
void sweep_table(std::ostream& out, const Configuration& config,
                 const ConfigResult& result) {
  out << "configuration N=" << config.subtasks_per_task
      << ", U=" << config.utilization_percent << "%, " << result.systems
      << " systems, schedule hash " << hex_hash(result.schedule_hash)
      << ", events " << result.events_processed << "\n\n";
  TextTable table({"metric", "mean", "samples"});
  table.add_row({"SA/DS failure rate", TextTable::fmt(result.failure_rate(), 3),
                 std::to_string(result.systems)});
  table.add_row({"bound ratio DS/PM", TextTable::fmt(result.bound_ratio.mean(), 3),
                 std::to_string(result.bound_ratio.count())});
  table.add_row({"avg-EER ratio PM/DS", TextTable::fmt(result.pm_ds_ratio.mean(), 3),
                 std::to_string(result.pm_ds_ratio.count())});
  table.add_row({"avg-EER ratio RG/DS", TextTable::fmt(result.rg_ds_ratio.mean(), 3),
                 std::to_string(result.rg_ds_ratio.count())});
  table.add_row({"avg-EER ratio PM/RG", TextTable::fmt(result.pm_rg_ratio.mean(), 3),
                 std::to_string(result.pm_rg_ratio.count())});
  out << table.to_string();
}

int run_sweep(const ScenarioSpec& spec, std::ostream& out, ScenarioTotals* totals) {
  SweepOptions options;
  options.systems_per_config = spec.systems;
  options.seed = spec.seed;
  options.horizon_periods = spec.horizon_periods;
  options.threads = spec.threads;

  ScenarioExecutor executor{spec.threads};
  std::vector<ConfigResult> results;
  results.reserve(spec.grid.size());
  for (const Configuration& config : spec.grid) {
    results.push_back(run_configuration(config, options, executor));
    tally(totals, results.back().events_processed, results.back().schedule_hash);
  }

  // `ci90` is the 90% confidence half-width of the mean; the failure rate
  // is a plain proportion and reports 0.
  struct Metric {
    const char* name;
    double mean;
    std::int64_t samples;
    double ci90;
  };
  const auto metrics = [](const ConfigResult& r) {
    const auto ratio = [](const char* name, const RunningStats& stats) {
      return Metric{name, stats.mean(), stats.count(), stats.ci_half_width(0.90)};
    };
    return std::vector<Metric>{{"SA/DS failure rate", r.failure_rate(), r.systems, 0.0},
                               ratio("bound ratio DS/PM", r.bound_ratio),
                               ratio("avg-EER ratio PM/DS", r.pm_ds_ratio),
                               ratio("avg-EER ratio RG/DS", r.rg_ds_ratio),
                               ratio("avg-EER ratio PM/RG", r.pm_rg_ratio)};
  };

  switch (spec.report) {
    case ReportFormat::kTable:
      for (std::size_t i = 0; i < results.size(); ++i) {
        if (i > 0) out << "\n";
        sweep_table(out, spec.grid[i], results[i]);
      }
      break;
    case ReportFormat::kCsv: {
      CsvWriter csv{out};
      csv.write_row({"subtasks", "utilization", "metric", "mean", "samples", "ci90"});
      for (std::size_t i = 0; i < results.size(); ++i) {
        for (const Metric& m : metrics(results[i])) {
          csv.write_row({std::to_string(spec.grid[i].subtasks_per_task),
                         std::to_string(spec.grid[i].utilization_percent), m.name,
                         fmt_shortest(m.mean), std::to_string(m.samples),
                         fmt_shortest(m.ci90)});
        }
      }
      break;
    }
    case ReportFormat::kJson: {
      out << "{\"scenario\":\"sweep\",\"cells\":[";
      for (std::size_t i = 0; i < results.size(); ++i) {
        if (i > 0) out << ",";
        out << "{\"subtasks\":" << spec.grid[i].subtasks_per_task
            << ",\"utilization\":" << spec.grid[i].utilization_percent
            << ",\"systems\":" << results[i].systems << ",\"schedule_hash\":"
            << json_str(hex_hash(results[i].schedule_hash))
            << ",\"events\":" << results[i].events_processed << ",\"metrics\":[";
        bool first = true;
        for (const Metric& m : metrics(results[i])) {
          if (!first) out << ",";
          first = false;
          out << "{\"name\":" << json_str(m.name)
              << ",\"mean\":" << fmt_shortest(m.mean)
              << ",\"samples\":" << m.samples
              << ",\"ci90\":" << fmt_shortest(m.ci90) << "}";
        }
        out << "]}";
      }
      out << "]}\n";
      break;
    }
  }
  return 0;
}

// --- faults -----------------------------------------------------------

int run_faults(const ScenarioSpec& spec, std::ostream& out, ScenarioTotals* totals) {
  FaultSweepOptions options;
  options.systems = spec.systems;
  options.seed = spec.seed;
  options.horizon_periods = spec.horizon_periods;
  options.config = spec.grid.front();
  options.severities = spec.severities;
  options.protocols = spec.protocols;
  options.threads = spec.threads;
  options.timesvc = spec.timesvc;

  ScenarioExecutor executor{spec.threads};
  const FaultSweepResult result = run_fault_sweep(options, executor);
  for (const FaultCell& cell : result.cells) {
    tally(totals, cell.events_processed, cell.schedule_hash);
  }
  if (spec.report == ReportFormat::kTable) {
    run_fault_report(out, options, result);
    return 0;
  }

  // Precision columns only exist when the spec enables a time service, so
  // legacy faults scenarios stay byte-identical.
  const bool precision = spec.timesvc.enabled();
  if (spec.report == ReportFormat::kCsv) {
    CsvWriter csv{out};
    std::vector<std::string> header{"severity", "protocol", "viol_per_1k",
                                    "miss_per_1k", "dropped", "late", "dup",
                                    "stalls", "overruns", "retransmits"};
    if (precision) {
      header.insert(header.end(), {"sync_err_mean", "sync_err_max",
                                   "sync_failures", "holdover_ticks"});
    }
    csv.write_row(header);
    for (const FaultCell& cell : result.cells) {
      std::vector<std::string> row{
          cell.severity, std::string{to_string(cell.kind)},
          fmt_shortest(1000.0 * cell.violation_rate()),
          fmt_shortest(1000.0 * cell.miss_rate()),
          std::to_string(cell.dropped_signals),
          std::to_string(cell.late_signals),
          std::to_string(cell.duplicated_signals),
          std::to_string(cell.stalls), std::to_string(cell.overruns),
          std::to_string(cell.retransmits)};
      if (precision) {
        row.insert(row.end(),
                   {fmt_shortest(cell.precision.mean_abs_error()),
                    std::to_string(cell.precision.abs_error_max),
                    std::to_string(cell.precision.failures),
                    std::to_string(cell.precision.holdover_time)});
      }
      csv.write_row(row);
    }
    return 0;
  }

  out << "{\"scenario\":\"faults\",\"systems\":" << spec.systems
      << ",\"skipped_systems\":" << result.skipped_systems << ",\"cells\":[";
  bool first = true;
  for (const FaultCell& cell : result.cells) {
    if (!first) out << ",";
    first = false;
    out << "{\"severity\":" << json_str(cell.severity)
        << ",\"protocol\":" << json_str(std::string{to_string(cell.kind)})
        << ",\"viol_per_1k\":" << fmt_shortest(1000.0 * cell.violation_rate())
        << ",\"miss_per_1k\":" << fmt_shortest(1000.0 * cell.miss_rate())
        << ",\"dropped\":" << cell.dropped_signals
        << ",\"late\":" << cell.late_signals
        << ",\"dup\":" << cell.duplicated_signals << ",\"stalls\":" << cell.stalls
        << ",\"overruns\":" << cell.overruns
        << ",\"retransmits\":" << cell.retransmits;
    if (precision) {
      out << ",\"sync_err_mean\":" << fmt_shortest(cell.precision.mean_abs_error())
          << ",\"sync_err_max\":" << cell.precision.abs_error_max
          << ",\"sync_failures\":" << cell.precision.failures
          << ",\"holdover_ticks\":" << cell.precision.holdover_time;
    }
    out << ",\"schedule_hash\":" << json_str(hex_hash(cell.schedule_hash)) << "}";
  }
  out << "]}\n";
  return 0;
}

// --- breakdown --------------------------------------------------------

int run_breakdown(const ScenarioSpec& spec, std::ostream& out) {
  BreakdownOptions options;
  options.threads = spec.threads;
  ScenarioExecutor executor{spec.threads};
  const std::vector<BreakdownResult> rows =
      run_breakdown_experiment(spec.systems, spec.seed, options, executor);

  switch (spec.report) {
    case ReportFormat::kTable: {
      // The breakdown report (examples/scenarios/breakdown.e2es).
      out << "== Breakdown utilization (deadline = period, PDM priorities) ==\n"
          << "mean over " << spec.systems
          << " random 4-processor/12-task systems per chain length\n\n";
      TextTable table(
          {"subtasks/task", "PM/MPM/RG (SA/PM)", "DS (SA/DS)", "DS penalty"});
      for (const BreakdownResult& row : rows) {
        const double pm = row.sa_pm.mean();
        const double ds = row.sa_ds.mean();
        table.add_row({std::to_string(row.subtasks_per_task),
                       TextTable::fmt(pm, 3), TextTable::fmt(ds, 3),
                       TextTable::fmt((pm - ds) / pm * 100.0, 1) + "%"});
      }
      out << table.to_string();
      break;
    }
    case ReportFormat::kCsv: {
      CsvWriter csv{out};
      csv.write_row({"subtasks_per_task", "sa_pm_mean", "sa_ds_mean",
                     "ds_penalty_pct"});
      for (const BreakdownResult& row : rows) {
        const double pm = row.sa_pm.mean();
        const double ds = row.sa_ds.mean();
        csv.write_row({std::to_string(row.subtasks_per_task), fmt_shortest(pm),
                       fmt_shortest(ds), fmt_shortest((pm - ds) / pm * 100.0)});
      }
      break;
    }
    case ReportFormat::kJson: {
      out << "{\"scenario\":\"breakdown\",\"systems\":" << spec.systems
          << ",\"rows\":[";
      bool first = true;
      for (const BreakdownResult& row : rows) {
        if (!first) out << ",";
        first = false;
        const double pm = row.sa_pm.mean();
        const double ds = row.sa_ds.mean();
        out << "{\"subtasks_per_task\":" << row.subtasks_per_task
            << ",\"sa_pm_mean\":" << fmt_shortest(pm)
            << ",\"sa_ds_mean\":" << fmt_shortest(ds)
            << ",\"ds_penalty_pct\":" << fmt_shortest((pm - ds) / pm * 100.0)
            << "}";
      }
      out << "]}\n";
      break;
    }
  }
  return 0;
}

// --- figure -----------------------------------------------------------

int run_figure_spec(const ScenarioSpec& spec, std::ostream& out) {
  if (spec.report != ReportFormat::kTable) {
    throw InvalidArgument(
        "scenario figure: only the table report is supported (figure "
        "reports interleave several tables with prose)");
  }
  SweepOptions options;
  options.systems_per_config = spec.systems;
  options.seed = spec.seed;
  options.horizon_periods = spec.horizon_periods;
  options.threads = spec.threads;
  run_figure(out, spec.figure, options);
  return 0;
}

}  // namespace

int run_scenario(const ScenarioSpec& spec, std::istream& in, std::ostream& out,
                 ScenarioTotals* totals) {
  validate_scenario(spec);
  if (totals != nullptr) {
    if (spec.kind == ScenarioKind::kBreakdown || spec.kind == ScenarioKind::kFigure) {
      throw InvalidArgument("scenario " + std::string{to_string(spec.kind)} +
                            ": no schedule hash to time or total (only "
                            "montecarlo, sweep and faults specs print one)");
    }
    *totals = ScenarioTotals{};
  }
  switch (spec.kind) {
    case ScenarioKind::kMonteCarlo: return run_montecarlo(spec, in, out, totals);
    case ScenarioKind::kSweep: return run_sweep(spec, out, totals);
    case ScenarioKind::kFaults: return run_faults(spec, out, totals);
    case ScenarioKind::kBreakdown: return run_breakdown(spec, out);
    case ScenarioKind::kFigure: return run_figure_spec(spec, out);
  }
  throw InvalidArgument("scenario: unknown kind");
}

}  // namespace e2e
