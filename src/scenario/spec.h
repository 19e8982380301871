// ScenarioSpec: a declarative description of one experiment -- which
// driver to run, over which workload grid, under which fault plan, with
// which seeds/horizons, and how to report the results.
//
// Specs come from three places, in priority order:
//   1. an `e2esync-scenario v1` text file (parse_scenario; the grammar is
//      documented in docs/scenarios.md),
//   2. CLI flags (the legacy subcommands build specs directly),
//   3. E2E_* environment defaults (ScenarioDefaults fills every key the
//      spec file omits).
// A parsed spec is fully concrete -- every field has its final value --
// so write_scenario(parse_scenario(text)) round-trips exactly.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "core/protocols/factory.h"
#include "scenario/defaults.h"
#include "sim/fault/fault_plan.h"
#include "sim/timesvc/timesvc_config.h"
#include "workload/generator.h"

namespace e2e {

/// One rung of a fault-severity ladder.
struct FaultSeverity {
  std::string label;
  FaultPlan plan;

  friend bool operator==(const FaultSeverity&, const FaultSeverity&) = default;
};

/// The ladder the faults scenario sweeps by default: ideal -> clock skew
/// -> lossy signals -> both -> both plus timer jitter and transient
/// stalls. Tick scale assumes the generator's default 1000 ticks per
/// paper time unit (periods span 100k..10M ticks).
[[nodiscard]] std::vector<FaultSeverity> default_fault_severities();

/// The sync-degradation ladder (examples/scenarios/timesvc_ladder.e2es,
/// which `e2e run --perf-json` times): ideal -> skewed clocks -> skew +
/// lossy signals and sync exchanges -> skew + a network partition
/// (holdover) -> everything at once. A 150k offset / 15000 ppm drift
/// rung is severe skew (PM phases are off by more than a short period),
/// and the 2M..4M partition window covers a mid-run stretch of every
/// default horizon.
[[nodiscard]] std::vector<FaultSeverity> sync_degradation_severities();

enum class ScenarioKind { kMonteCarlo, kSweep, kFaults, kBreakdown, kFigure };

/// Paper figures / reports a `scenario figure` spec can request.
enum class FigureKind {
  kFig12,     ///< SA/DS failure rate grid
  kFig13,     ///< SA-DS / SA-PM bound-ratio grid
  kFig14,     ///< PM/DS average-EER ratio grid
  kFig15,     ///< RG/DS average-EER ratio grid
  kFig16,     ///< PM/RG average-EER ratio grid
  kOverhead,  ///< Section 3.3 complexity / overhead report
  kJitter,    ///< output-jitter extension report
  kAblation,  ///< DESIGN.md ablations A-F
  kHopa,           ///< HOPA vs PDM priorities (paper reference [10])
  kSensitivity,    ///< Figs. 12/13 under four period distributions
  kPaperExamples,  ///< worked examples, Figs. 3-7 and Sections 3-4
};

/// True for the simulation-driven figures (14-16, overhead, jitter,
/// ablation); false for the analysis-only figures 12/13, HOPA, sensitivity
/// and the paper examples. The one owner of that split: parse_scenario
/// picks the default sample size from it and run_figure picks which half
/// of the sweep to run.
[[nodiscard]] bool simulation_figure(FigureKind figure);

/// The (N, U) cells of `figure hopa`: N = 2..8 x U = 60, 70, 80.
[[nodiscard]] std::vector<Configuration> hopa_configurations();

/// One period distribution of `figure sensitivity`.
struct PeriodVariant {
  const char* label;
  double mean;  ///< exponential mean; 0 for the uniform variant
  GeneratorOptions::PeriodDistribution distribution;
};

/// Exponential means 1000, 3000 (the default), 6000, then uniform.
[[nodiscard]] std::vector<PeriodVariant> sensitivity_variants();

/// The summary cells `figure sensitivity` runs per variant, in report
/// column order: failure rate at (8,90) and (6,80), bound ratio at (5,70)
/// and (8,60).
[[nodiscard]] std::vector<Configuration> sensitivity_configurations();

enum class ReportFormat { kTable, kCsv, kJson };

/// Where a montecarlo scenario gets its task system.
struct SystemSource {
  enum class Kind {
    kStdin,     ///< read `e2esync v1` text from the run's input stream
    kFile,      ///< read it from `path`
    kExample2,  ///< the paper's Example 2 system
    kGenerate,  ///< generate from the recipe below
    kInline,    ///< `text` holds the system description verbatim
  };
  Kind kind = Kind::kStdin;
  std::string path;  ///< kFile
  std::string text;  ///< kInline: complete `e2esync v1` text

  // kGenerate recipe; fallbacks mirror `e2e generate`.
  int generate_subtasks = 4;
  int generate_utilization = 60;  ///< percent
  int generate_tasks = 12;
  int generate_processors = 4;
  std::uint64_t generate_seed = 20260706;
  std::int64_t generate_ticks = 1000;

  friend bool operator==(const SystemSource&, const SystemSource&) = default;
};

struct ScenarioSpec {
  ScenarioKind kind = ScenarioKind::kSweep;
  ReportFormat report = ReportFormat::kTable;
  FigureKind figure = FigureKind::kFig12;  ///< kFigure only

  std::uint64_t seed = 0;
  /// Workload units per cell: montecarlo runs, systems per (N, U) cell
  /// (sweep/figure), shared systems (faults), systems per chain length
  /// (breakdown).
  int systems = 0;
  double horizon_periods = 30.0;
  int threads = 0;       ///< 0 = E2E_THREADS, then hardware concurrency
  double exec_var = 1.0; ///< montecarlo execution_min_fraction

  /// Protocols: the montecarlo protocol is protocols[0]; faults sweeps
  /// all of them. Empty only while parsing.
  std::vector<ProtocolKind> protocols;
  /// Workload grid: sweep reports one block per cell; faults uses
  /// grid[0] as the shared workload shape.
  std::vector<Configuration> grid;
  /// Faults only: the severity ladder, in sweep order.
  std::vector<FaultSeverity> severities;
  /// Faults only: per-processor time service (`timesvc <key=val,...|->`
  /// line; sim/timesvc grammar). Disabled by default, which keeps faults
  /// scenarios byte-identical to their pre-timesvc output.
  TimeServiceConfig timesvc{};
  /// MonteCarlo only.
  SystemSource system;

  friend bool operator==(const ScenarioSpec&, const ScenarioSpec&) = default;
};

[[nodiscard]] std::string_view to_string(ScenarioKind kind);
[[nodiscard]] std::string_view to_string(FigureKind figure);
[[nodiscard]] std::string_view to_string(ReportFormat format);
[[nodiscard]] ReportFormat parse_report_format(const std::string& name);

/// Parses `e2esync-scenario v1` text. Fields the text omits are filled
/// from `defaults` (per scenario kind) the moment parsing finishes, so
/// the result is fully concrete. Throws InvalidArgument with a
/// line-numbered message on malformed input.
[[nodiscard]] ScenarioSpec parse_scenario(std::istream& in,
                                          const ScenarioDefaults& defaults);
[[nodiscard]] ScenarioSpec parse_scenario(const std::string& text,
                                          const ScenarioDefaults& defaults);

/// Canonical text form; parse_scenario(write_scenario(spec)) == spec.
void write_scenario(std::ostream& out, const ScenarioSpec& spec);
[[nodiscard]] std::string write_scenario(const ScenarioSpec& spec);

/// Throws InvalidArgument if the spec is not runnable (no protocols, no
/// grid cell, non-positive counts, ...). parse_scenario validates.
void validate_scenario(const ScenarioSpec& spec);

}  // namespace e2e
