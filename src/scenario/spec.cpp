#include "scenario/spec.h"

#include <algorithm>
#include <istream>
#include <ostream>
#include <sstream>

#include "common/args.h"
#include "common/error.h"
#include "common/number.h"

namespace e2e {
namespace {

constexpr const char* kHeader = "e2esync-scenario v1";

[[noreturn]] void fail(int line, const std::string& message) {
  throw InvalidArgument("scenario spec line " + std::to_string(line) + ": " +
                        message);
}

/// A key's value, read by the rule of common/number.h.
template <typename T>
T number(int line, const std::string& key, const std::string& value) {
  return read_number<T>(value, "scenario spec line " + std::to_string(line) + ": '" +
                                   key + "'");
}

std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream stream{line};
  std::string token;
  while (stream >> token) tokens.push_back(token);
  return tokens;
}

ProtocolKind parse_protocol_name(int line, const std::string& name) {
  for (const ProtocolKind kind : kSelectableProtocolKinds) {
    if (name == to_string(kind)) return kind;
  }
  fail(line, "unknown protocol '" + name + "' (DS, PM, MPM, RG, MPM-R, PM-E)");
}

ScenarioKind parse_kind(int line, const std::string& name) {
  if (name == "montecarlo") return ScenarioKind::kMonteCarlo;
  if (name == "sweep") return ScenarioKind::kSweep;
  if (name == "faults") return ScenarioKind::kFaults;
  if (name == "breakdown") return ScenarioKind::kBreakdown;
  if (name == "figure") return ScenarioKind::kFigure;
  fail(line, "unknown scenario kind '" + name +
                 "' (montecarlo, sweep, faults, breakdown, figure)");
}

FigureKind parse_figure(int line, const std::string& name) {
  if (name == "12") return FigureKind::kFig12;
  if (name == "13") return FigureKind::kFig13;
  if (name == "14") return FigureKind::kFig14;
  if (name == "15") return FigureKind::kFig15;
  if (name == "16") return FigureKind::kFig16;
  if (name == "overhead") return FigureKind::kOverhead;
  if (name == "jitter") return FigureKind::kJitter;
  if (name == "ablation") return FigureKind::kAblation;
  if (name == "hopa") return FigureKind::kHopa;
  if (name == "sensitivity") return FigureKind::kSensitivity;
  if (name == "paper-examples") return FigureKind::kPaperExamples;
  fail(line, "unknown figure '" + name +
                 "' (12, 13, 14, 15, 16, overhead, jitter, ablation, hopa, "
                 "sensitivity, paper-examples)");
}

std::vector<ProtocolKind> extended_protocols() {
  return std::vector<ProtocolKind>(std::begin(kExtendedProtocolKinds),
                                   std::end(kExtendedProtocolKinds));
}

}  // namespace

bool simulation_figure(FigureKind figure) {
  switch (figure) {
    case FigureKind::kFig14:
    case FigureKind::kFig15:
    case FigureKind::kFig16:
    case FigureKind::kOverhead:
    case FigureKind::kJitter:
    case FigureKind::kAblation:
      return true;
    case FigureKind::kFig12:
    case FigureKind::kFig13:
    case FigureKind::kHopa:
    case FigureKind::kSensitivity:
    case FigureKind::kPaperExamples:
      return false;
  }
  return false;
}

std::vector<Configuration> hopa_configurations() {
  std::vector<Configuration> grid;
  for (int n = 2; n <= 8; ++n) {
    for (const int u : {60, 70, 80}) {
      grid.push_back(Configuration{.subtasks_per_task = n, .utilization_percent = u});
    }
  }
  return grid;
}

std::vector<PeriodVariant> sensitivity_variants() {
  using Distribution = GeneratorOptions::PeriodDistribution;
  return {{"exp, mean 1000", 1000.0, Distribution::kTruncatedExponential},
          {"exp, mean 3000 (default)", 3000.0, Distribution::kTruncatedExponential},
          {"exp, mean 6000", 6000.0, Distribution::kTruncatedExponential},
          {"uniform", 0.0, Distribution::kUniform}};
}

std::vector<Configuration> sensitivity_configurations() {
  return {{.subtasks_per_task = 8, .utilization_percent = 90},
          {.subtasks_per_task = 6, .utilization_percent = 80},
          {.subtasks_per_task = 5, .utilization_percent = 70},
          {.subtasks_per_task = 8, .utilization_percent = 60}};
}

std::vector<FaultSeverity> default_fault_severities() {
  return {
      // Drift is RC-oscillator class (1.5-3%): small enough that intervals
      // stay sane, large enough that clock-trusting protocols accumulate a
      // visible skew within the simulated window.
      {"ideal", FaultPlan{}},
      {"clock", FaultPlan{.clock_offset_max = 150'000, .drift_ppm_max = 15'000}},
      {"loss", FaultPlan{.signal_loss_prob = 0.05,
                         .signal_delay_max = 2'000,
                         .signal_duplicate_prob = 0.02}},
      {"clock+loss", FaultPlan{.clock_offset_max = 150'000,
                               .drift_ppm_max = 15'000,
                               .signal_loss_prob = 0.02,
                               .signal_delay_max = 2'000,
                               .signal_duplicate_prob = 0.02}},
      {"severe", FaultPlan{.clock_offset_max = 300'000,
                           .drift_ppm_max = 30'000,
                           .signal_loss_prob = 0.10,
                           .signal_delay_max = 5'000,
                           .signal_duplicate_prob = 0.05,
                           .timer_jitter_max = 1'000,
                           .stall_prob = 0.02,
                           .stall_max = 2'000}},
  };
}

std::vector<FaultSeverity> sync_degradation_severities() {
  const FaultPlan clock{.clock_offset_max = 150'000, .drift_ppm_max = 15'000};
  FaultPlan loss = clock;
  loss.signal_loss_prob = 0.2;
  loss.signal_delay_max = 2'000;
  loss.sync_loss_prob = 0.3;
  FaultPlan partition = clock;
  partition.partition_at = 2'000'000;
  partition.partition_for = 2'000'000;
  FaultPlan severe = loss;
  severe.partition_at = 2'000'000;
  severe.partition_for = 2'000'000;
  severe.source_down_at = 5'000'000;
  severe.source_down_for = 2'000'000;
  severe.timer_jitter_max = 500;
  severe.stall_prob = 0.05;
  severe.stall_max = 2'000;
  return {{"ideal", FaultPlan{}},
          {"clock", clock},
          {"clock+loss", loss},
          {"clock+partition", partition},
          {"severe", severe}};
}

std::string_view to_string(ScenarioKind kind) {
  switch (kind) {
    case ScenarioKind::kMonteCarlo: return "montecarlo";
    case ScenarioKind::kSweep: return "sweep";
    case ScenarioKind::kFaults: return "faults";
    case ScenarioKind::kBreakdown: return "breakdown";
    case ScenarioKind::kFigure: return "figure";
  }
  return "?";
}

std::string_view to_string(FigureKind figure) {
  switch (figure) {
    case FigureKind::kFig12: return "12";
    case FigureKind::kFig13: return "13";
    case FigureKind::kFig14: return "14";
    case FigureKind::kFig15: return "15";
    case FigureKind::kFig16: return "16";
    case FigureKind::kOverhead: return "overhead";
    case FigureKind::kJitter: return "jitter";
    case FigureKind::kAblation: return "ablation";
    case FigureKind::kHopa: return "hopa";
    case FigureKind::kSensitivity: return "sensitivity";
    case FigureKind::kPaperExamples: return "paper-examples";
  }
  return "?";
}

std::string_view to_string(ReportFormat format) {
  switch (format) {
    case ReportFormat::kTable: return "table";
    case ReportFormat::kCsv: return "csv";
    case ReportFormat::kJson: return "json";
  }
  return "?";
}

ReportFormat parse_report_format(const std::string& name) {
  if (name == "table") return ReportFormat::kTable;
  if (name == "csv") return ReportFormat::kCsv;
  if (name == "json") return ReportFormat::kJson;
  throw InvalidArgument("unknown report format '" + name +
                        "' (table, csv, json)");
}

ScenarioSpec parse_scenario(std::istream& in, const ScenarioDefaults& defaults) {
  ScenarioSpec spec;
  bool seen_header = false;
  bool has_kind = false, has_seed = false, has_systems = false;
  bool has_horizon = false, has_system = false;

  std::string raw;
  int line_number = 0;
  while (std::getline(in, raw)) {
    ++line_number;
    const std::size_t comment = raw.find('#');
    if (comment != std::string::npos) raw.erase(comment);
    const std::vector<std::string> tokens = tokenize(raw);
    if (tokens.empty()) continue;

    if (!seen_header) {
      if (raw.find(kHeader) != 0 || tokens.size() != 2) {
        fail(line_number, std::string{"expected '"} + kHeader + "' header");
      }
      seen_header = true;
      continue;
    }

    const std::string& key = tokens[0];
    const auto want = [&](std::size_t n) {
      if (tokens.size() != n + 1) {
        fail(line_number, "'" + key + "' expects " + std::to_string(n) +
                              (n == 1 ? " value" : " values"));
      }
    };

    if (key == "scenario") {
      want(1);
      spec.kind = parse_kind(line_number, tokens[1]);
      has_kind = true;
    } else if (key == "figure") {
      want(1);
      spec.figure = parse_figure(line_number, tokens[1]);
    } else if (key == "report") {
      want(1);
      try {
        spec.report = parse_report_format(tokens[1]);
      } catch (const InvalidArgument& e) {
        fail(line_number, e.what());
      }
    } else if (key == "seed") {
      want(1);
      spec.seed = number<std::uint64_t>(line_number, key, tokens[1]);
      has_seed = true;
    } else if (key == "systems" || key == "runs") {
      want(1);
      spec.systems = number<int>(line_number, key, tokens[1]);
      has_systems = true;
    } else if (key == "horizon-periods") {
      want(1);
      spec.horizon_periods = number<double>(line_number, key, tokens[1]);
      has_horizon = true;
    } else if (key == "threads") {
      want(1);
      spec.threads = number<int>(line_number, key, tokens[1]);
    } else if (key == "exec-var") {
      want(1);
      spec.exec_var = number<double>(line_number, key, tokens[1]);
    } else if (key == "protocol") {
      want(1);
      spec.protocols.push_back(parse_protocol_name(line_number, tokens[1]));
    } else if (key == "config") {
      want(2);
      spec.grid.push_back(Configuration{
          .subtasks_per_task = number<int>(line_number, "config N", tokens[1]),
          .utilization_percent = number<int>(line_number, "config U", tokens[2])});
    } else if (key == "severity") {
      want(2);
      try {
        spec.severities.push_back(
            FaultSeverity{tokens[1], parse_fault_plan(tokens[2])});
      } catch (const InvalidArgument& e) {
        fail(line_number, e.what());
      }
    } else if (key == "timesvc") {
      want(1);
      try {
        spec.timesvc = parse_timesvc_config(tokens[1]);
      } catch (const InvalidArgument& e) {
        fail(line_number, e.what());
      }
    } else if (key == "system") {
      want(tokens.size() == 2 ? 1 : 2);
      has_system = true;
      if (tokens[1] == "stdin") {
        spec.system.kind = SystemSource::Kind::kStdin;
      } else if (tokens[1] == "example2") {
        spec.system.kind = SystemSource::Kind::kExample2;
      } else if (tokens[1] == "file") {
        want(2);
        spec.system.kind = SystemSource::Kind::kFile;
        spec.system.path = tokens[2];
      } else if (tokens[1] == "generate") {
        want(2);
        spec.system.kind = SystemSource::Kind::kGenerate;
        SystemSource& src = spec.system;
        std::vector<std::pair<std::string, std::string>> pairs;
        try {
          pairs = split_key_values(tokens[2]);
        } catch (const InvalidArgument& e) {
          fail(line_number, e.what());
        }
        for (const auto& [k, v] : pairs) {
          if (k == "subtasks") {
            src.generate_subtasks = number<int>(line_number, k, v);
          } else if (k == "utilization") {
            src.generate_utilization = number<int>(line_number, k, v);
          } else if (k == "tasks") {
            src.generate_tasks = number<int>(line_number, k, v);
          } else if (k == "processors") {
            src.generate_processors = number<int>(line_number, k, v);
          } else if (k == "seed") {
            src.generate_seed = number<std::uint64_t>(line_number, k, v);
          } else if (k == "ticks") {
            src.generate_ticks = number<std::int64_t>(line_number, k, v);
          } else {
            fail(line_number, "unknown generate key '" + k +
                                  "' (subtasks, utilization, tasks, "
                                  "processors, seed, ticks)");
          }
        }
      } else {
        fail(line_number, "unknown system source '" + tokens[1] +
                              "' (stdin, example2, file <path>, generate "
                              "<key=val,...>, or a 'begin system' block)");
      }
    } else if (key == "begin" && tokens.size() == 2 && tokens[1] == "system") {
      has_system = true;
      spec.system.kind = SystemSource::Kind::kInline;
      spec.system.text.clear();
      bool closed = false;
      while (std::getline(in, raw)) {
        ++line_number;
        if (tokenize(raw) == std::vector<std::string>{"end", "system"}) {
          closed = true;
          break;
        }
        spec.system.text += raw;
        spec.system.text += '\n';
      }
      if (!closed) fail(line_number, "unterminated 'begin system' block");
    } else {
      fail(line_number, "unknown key '" + key + "'");
    }
  }

  if (!seen_header) {
    throw InvalidArgument(std::string{"scenario spec: missing '"} + kHeader +
                          "' header");
  }
  if (!has_kind) {
    throw InvalidArgument("scenario spec: missing 'scenario <kind>' line");
  }

  // Fill everything the text omitted from the environment-backed
  // defaults; the kind picks which fallback context applies.
  switch (spec.kind) {
    case ScenarioKind::kMonteCarlo:
      if (!has_seed) spec.seed = defaults.mc_seed;
      if (!has_systems) spec.systems = defaults.mc_runs;
      if (!has_horizon) spec.horizon_periods = defaults.mc_horizon_periods;
      if (spec.protocols.empty()) {
        spec.protocols = {ProtocolKind::kReleaseGuard};
      }
      (void)has_system;  // default SystemSource is kStdin
      break;
    case ScenarioKind::kSweep:
      if (!has_seed) spec.seed = defaults.sweep_seed;
      if (!has_systems) spec.systems = defaults.sweep_systems;
      if (!has_horizon) spec.horizon_periods = defaults.sweep_horizon_periods;
      if (spec.grid.empty()) {
        spec.grid = {Configuration{.subtasks_per_task = 4,
                                   .utilization_percent = 60}};
      }
      break;
    case ScenarioKind::kFaults:
      if (!has_seed) spec.seed = defaults.fault_seed;
      if (!has_systems) spec.systems = defaults.fault_systems;
      if (!has_horizon) spec.horizon_periods = defaults.fault_horizon_periods;
      if (spec.grid.empty()) {
        spec.grid = {
            Configuration{.subtasks_per_task = defaults.fault_subtasks,
                          .utilization_percent = defaults.fault_utilization}};
      }
      if (spec.protocols.empty()) spec.protocols = extended_protocols();
      if (spec.severities.empty()) spec.severities = default_fault_severities();
      break;
    case ScenarioKind::kBreakdown:
      if (!has_seed) spec.seed = defaults.breakdown_seed;
      if (!has_systems) spec.systems = defaults.breakdown_systems;
      break;
    case ScenarioKind::kFigure:
      if (!has_seed) spec.seed = defaults.figure_seed;
      if (!has_systems) {
        spec.systems = simulation_figure(spec.figure)
                           ? defaults.figure_sim_systems
                           : defaults.figure_systems;
        // The ablation runs nine sweeps; half the sample keeps its runtime
        // in line with a single figure.
        if (spec.figure == FigureKind::kAblation) {
          spec.systems = std::max(2, spec.systems / 2);
        }
      }
      if (!has_horizon) spec.horizon_periods = defaults.figure_horizon_periods;
      break;
  }
  if (spec.threads == 0) spec.threads = defaults.threads;

  validate_scenario(spec);
  return spec;
}

ScenarioSpec parse_scenario(const std::string& text,
                            const ScenarioDefaults& defaults) {
  std::istringstream stream{text};
  return parse_scenario(stream, defaults);
}

void write_scenario(std::ostream& out, const ScenarioSpec& spec) {
  out << kHeader << "\n";
  out << "scenario " << to_string(spec.kind) << "\n";
  if (spec.kind == ScenarioKind::kFigure) {
    out << "figure " << to_string(spec.figure) << "\n";
  }
  out << "report " << to_string(spec.report) << "\n";
  out << "seed " << spec.seed << "\n";
  out << (spec.kind == ScenarioKind::kMonteCarlo ? "runs " : "systems ")
      << spec.systems << "\n";
  out << "horizon-periods " << fmt_shortest(spec.horizon_periods) << "\n";
  out << "threads " << spec.threads << "\n";
  if (spec.exec_var != 1.0) out << "exec-var " << fmt_shortest(spec.exec_var) << "\n";
  for (const ProtocolKind kind : spec.protocols) {
    out << "protocol " << to_string(kind) << "\n";
  }
  for (const Configuration& config : spec.grid) {
    out << "config " << config.subtasks_per_task << " "
        << config.utilization_percent << "\n";
  }
  for (const FaultSeverity& severity : spec.severities) {
    out << "severity " << severity.label << " " << write_fault_plan(severity.plan)
        << "\n";
  }
  if (spec.timesvc != TimeServiceConfig{}) {
    out << "timesvc " << write_timesvc_config(spec.timesvc) << "\n";
  }
  if (spec.kind == ScenarioKind::kMonteCarlo) {
    const SystemSource& src = spec.system;
    switch (src.kind) {
      case SystemSource::Kind::kStdin:
        out << "system stdin\n";
        break;
      case SystemSource::Kind::kExample2:
        out << "system example2\n";
        break;
      case SystemSource::Kind::kFile:
        out << "system file " << src.path << "\n";
        break;
      case SystemSource::Kind::kGenerate:
        out << "system generate subtasks=" << src.generate_subtasks
            << ",utilization=" << src.generate_utilization
            << ",tasks=" << src.generate_tasks
            << ",processors=" << src.generate_processors
            << ",seed=" << src.generate_seed << ",ticks=" << src.generate_ticks
            << "\n";
        break;
      case SystemSource::Kind::kInline:
        out << "begin system\n" << src.text;
        if (!src.text.empty() && src.text.back() != '\n') out << "\n";
        out << "end system\n";
        break;
    }
  }
}

std::string write_scenario(const ScenarioSpec& spec) {
  std::ostringstream stream;
  write_scenario(stream, spec);
  return stream.str();
}

void validate_scenario(const ScenarioSpec& spec) {
  if (spec.systems <= 0) {
    throw InvalidArgument("scenario: systems/runs must be positive");
  }
  if (!(spec.horizon_periods > 0.0)) {
    throw InvalidArgument("scenario: horizon-periods must be positive");
  }
  if (spec.threads < 0) {
    throw InvalidArgument("scenario: threads must be non-negative");
  }
  if (!(spec.exec_var > 0.0 && spec.exec_var <= 1.0)) {
    throw InvalidArgument("scenario: exec-var must be in (0, 1]");
  }
  for (const Configuration& config : spec.grid) {
    if (config.subtasks_per_task < 1 || config.utilization_percent < 1 ||
        config.utilization_percent > 100) {
      throw InvalidArgument("scenario: config needs N >= 1 and U in [1, 100]");
    }
  }
  switch (spec.kind) {
    case ScenarioKind::kMonteCarlo:
      if (spec.protocols.empty()) {
        throw InvalidArgument("scenario montecarlo: needs at least one protocol");
      }
      if (spec.system.kind == SystemSource::Kind::kFile &&
          spec.system.path.empty()) {
        throw InvalidArgument("scenario montecarlo: 'system file' needs a path");
      }
      if (spec.system.kind == SystemSource::Kind::kInline &&
          spec.system.text.empty()) {
        throw InvalidArgument("scenario montecarlo: inline system block is empty");
      }
      break;
    case ScenarioKind::kSweep:
      if (spec.grid.empty()) {
        throw InvalidArgument("scenario sweep: needs at least one config cell");
      }
      break;
    case ScenarioKind::kFaults:
      if (spec.grid.size() != 1) {
        throw InvalidArgument("scenario faults: needs exactly one config cell");
      }
      if (spec.protocols.empty() || spec.severities.empty()) {
        throw InvalidArgument(
            "scenario faults: needs at least one protocol and one severity");
      }
      break;
    case ScenarioKind::kBreakdown:
    case ScenarioKind::kFigure:
      break;
  }
  if (spec.timesvc != TimeServiceConfig{} && spec.kind != ScenarioKind::kFaults) {
    throw InvalidArgument(
        "scenario: 'timesvc' only applies to faults scenarios");
  }
}

}  // namespace e2e
