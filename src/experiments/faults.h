// Robustness experiment: how each synchronization protocol degrades when
// the paper's ideal-conditions assumptions are relaxed (sim/fault).
//
// A ladder of fault severities is applied to a shared set of random
// paper-style systems, and every protocol (the paper's four plus the
// hardened MPM-R) is simulated on each. Two degradation metrics:
//   * precedence-violation rate -- violating releases per released job.
//     PM trusts precomputed clock phases and MPM trusts bound timers, so
//     both break under clock skew; DS/RG release on actual completion
//     signals and MPM-R gates its signal on actual completion, so their
//     structural violation rate stays zero.
//   * end-to-end deadline-miss rate -- misses per completed end-to-end
//     instance. Signal loss delays DS/MPM/RG successors until the next
//     instance's signal catches them up (up to a period late); MPM-R
//     retransmits within its retry timeout instead.
// The same fault seed is used for every protocol within a (system,
// severity) cell, so clock draws are paired across protocols.
#pragma once

#include <ostream>
#include <string>
#include <vector>

#include "core/protocols/factory.h"
#include "metrics/precision.h"
#include "scenario/spec.h"
#include "sim/timesvc/timesvc_config.h"
#include "workload/generator.h"

namespace e2e {

class ScenarioExecutor;

// FaultSeverity and default_fault_severities() live in scenario/spec.h --
// the severity ladder is part of the declarative scenario vocabulary
// (`faults` blocks name or spell out rungs) and this header re-exports
// them for the experiment drivers.

struct FaultSweepOptions {
  /// Random systems shared by every (severity, protocol) cell.
  int systems = 10;
  std::uint64_t seed = 20260806;
  /// Horizon per run, as a multiple of the system's maximum period.
  double horizon_periods = 30.0;
  /// Workload shape (paper Section 5.1 recipe).
  Configuration config{.subtasks_per_task = 4, .utilization_percent = 60};
  /// Empty = default_fault_severities().
  std::vector<FaultSeverity> severities;
  /// Empty = kExtendedProtocolKinds (DS, PM, MPM, RG, MPM-R).
  std::vector<ProtocolKind> protocols;
  /// Worker threads; 0 = E2E_THREADS env var, else hardware concurrency.
  /// Results are identical at every thread count.
  int threads = 0;
  /// When enabled, every run gets a per-processor time service
  /// (sim/timesvc) whose sync traffic rides the severity's fault plan;
  /// PM-E schedules on it, other protocols ignore it, and every cell
  /// reports the precision the service achieved. Disabled (the default)
  /// keeps cells byte-identical to the pre-timesvc sweep.
  TimeServiceConfig timesvc{};
};

/// Aggregates for one (severity, protocol) cell.
struct FaultCell {
  std::string severity;
  ProtocolKind kind = ProtocolKind::kDirectSync;
  int systems = 0;
  std::int64_t jobs_released = 0;
  std::int64_t violations = 0;
  std::int64_t instances = 0;  ///< completed end-to-end instances
  std::int64_t misses = 0;
  std::int64_t dropped_signals = 0;
  std::int64_t late_signals = 0;
  std::int64_t duplicated_signals = 0;
  std::int64_t stalls = 0;
  std::int64_t overruns = 0;     ///< MPM / MPM-R bound overruns
  std::int64_t retransmits = 0;  ///< MPM-R only
  /// Per-run schedule hashes combined in system order; identical at every
  /// thread count.
  std::uint64_t schedule_hash = 0;
  std::int64_t events_processed = 0;
  /// Achieved time-service precision, aggregated over the cell's runs.
  /// All zeros when the sweep ran without a time service. Equal to the
  /// rung's FaultSweepResult::service_precision for every protocol that
  /// never queries the service; a querying protocol (PM-E) slews the
  /// service along its own query times and reports its own figures.
  PrecisionReport precision;

  [[nodiscard]] double violation_rate() const noexcept {
    return jobs_released > 0
               ? static_cast<double>(violations) / static_cast<double>(jobs_released)
               : 0.0;
  }
  [[nodiscard]] double miss_rate() const noexcept {
    return instances > 0
               ? static_cast<double>(misses) / static_cast<double>(instances)
               : 0.0;
  }
};

struct FaultSweepResult {
  /// Severity-major, protocol-minor (the order of the option vectors).
  std::vector<FaultCell> cells;
  /// Generated systems discarded because SA/PM left a non-last subtask
  /// unbounded (PM/MPM/MPM-R could not be constructed for them).
  int skipped_systems = 0;
  /// Per severity (option order): the time service's precision when no
  /// protocol queries it, aggregated over the systems. Empty when the
  /// sweep ran without a time service.
  std::vector<PrecisionReport> service_precision;
};

/// Runs the sweep on a transient executor of `options.threads` workers.
[[nodiscard]] FaultSweepResult run_fault_sweep(const FaultSweepOptions& options);

/// Same, fanning out over an existing executor (scenario runs share one
/// across cells; `options.threads` is ignored).
[[nodiscard]] FaultSweepResult run_fault_sweep(const FaultSweepOptions& options,
                                               ScenarioExecutor& executor);

/// The faults scenario's table report (`e2e run` on a faults spec):
/// prints `result`, the sweep of `options`, as one table per severity
/// plus the headline comparison (PM vs RG/MPM-R degradation).
void run_fault_report(std::ostream& out, const FaultSweepOptions& options,
                      const FaultSweepResult& result);

}  // namespace e2e
