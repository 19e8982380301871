#include "experiments/faults.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "common/error.h"
#include "common/hash.h"
#include "core/analysis/cache.h"
#include "core/protocols/modified_pm.h"
#include "core/protocols/mpm_retransmit.h"
#include "scenario/executor.h"
#include "report/table.h"
#include "sim/engine.h"
#include "sim/fault/fault_injector.h"
#include "sim/timesvc/time_service.h"

namespace e2e {
namespace {

/// True if SA/PM bounded every non-last subtask, i.e. PM/MPM/MPM-R can be
/// constructed for the system at all.
bool pm_constructible(const TaskSystem& system, const SubtaskTable& bounds) {
  for (const Task& t : system.tasks()) {
    for (const Subtask& s : t.subtasks) {
      const bool is_last =
          s.ref.index + 1 == static_cast<std::int32_t>(t.chain_length());
      if (!is_last && is_infinite(bounds.at(s.ref))) return false;
    }
  }
  return true;
}

struct SystemCase {
  TaskSystem system;
  SubtaskTable bounds;
  Time horizon = 0;
  std::uint64_t fault_seed_mix = 0;
};

std::int64_t end_to_end_completions(const Engine& engine) {
  std::int64_t total = 0;
  for (const Task& t : engine.system().tasks()) {
    const SubtaskRef last{t.id,
                          static_cast<std::int32_t>(t.chain_length()) - 1};
    total += engine.completed_instances(last);
  }
  return total;
}

/// What one (severity, protocol, system) simulation contributes to its
/// cell; merged serially in item order.
struct RunOutcome {
  SimStats stats;
  std::int64_t completions = 0;
  std::int64_t overruns = 0;
  std::int64_t retransmits = 0;
  std::uint64_t schedule_hash = 0;
  /// Set only when the protocol queried the time service; every other
  /// run reports its (severity, system) replay.
  std::optional<PrecisionReport> precision;
};

/// The severity's plan, re-seeded per system: every protocol run (and
/// the service replay) of one (severity, system) pair sees the same
/// clock and channel draws.
FaultPlan plan_for(const FaultSeverity& severity, const SystemCase& sc) {
  FaultPlan plan = severity.plan;
  plan.seed += sc.fault_seed_mix;
  return plan;
}

std::vector<FaultSeverity> resolved_severities(const FaultSweepOptions& options) {
  return options.severities.empty() ? default_fault_severities() : options.severities;
}

}  // namespace

FaultSweepResult run_fault_sweep(const FaultSweepOptions& options) {
  ScenarioExecutor executor{options.threads};
  return run_fault_sweep(options, executor);
}

FaultSweepResult run_fault_sweep(const FaultSweepOptions& options,
                                 ScenarioExecutor& executor) {
  E2E_ASSERT(options.systems > 0, "need at least one system");
  const std::vector<FaultSeverity> severities = resolved_severities(options);
  const std::vector<ProtocolKind> protocols =
      options.protocols.empty()
          ? std::vector<ProtocolKind>(std::begin(kExtendedProtocolKinds),
                                      std::end(kExtendedProtocolKinds))
          : options.protocols;

  FaultSweepResult result;

  // Shared system set: every (severity, protocol) cell simulates the same
  // draws. Draws SA/PM cannot bound are replaced (and counted).
  std::vector<SystemCase> cases;
  cases.reserve(static_cast<std::size_t>(options.systems));
  Rng master{options.seed};
  const int max_attempts = options.systems * 20 + 50;
  for (int attempt = 0;
       attempt < max_attempts &&
       cases.size() < static_cast<std::size_t>(options.systems);
       ++attempt) {
    Rng rng = master.fork(static_cast<std::uint64_t>(attempt));
    GeneratorOptions gen = options_for(options.config);
    TaskSystem system = generate_system(rng, gen);
    // Memoized: severity sweeps regenerate the identical system sequence
    // per sweep, so later sweeps skip the SA/PM runs entirely.
    SubtaskTable bounds = AnalysisCache::shared().sa_pm(system)->subtask_bounds;
    if (!pm_constructible(system, bounds)) {
      ++result.skipped_systems;
      continue;
    }
    const Time horizon = std::min<Time>(
        system.horizon_ticks(options.horizon_periods), 400'000'000);
    cases.push_back(SystemCase{
        std::move(system), std::move(bounds), horizon,
        // Distinct fault stream per system, identical across protocols so
        // per-processor clock draws are paired.
        std::uint64_t{0x9E3779B97F4A7C15} *
            static_cast<std::uint64_t>(attempt + 1)});
  }
  E2E_ASSERT(!cases.empty(), "no PM-schedulable system in the sample budget");

  const std::int64_t per_cell = static_cast<std::int64_t>(cases.size());

  // The time service's statistics depend only on (severity, system) as
  // long as no protocol queries it, so each pair's unqueried replay is
  // computed once here, not once per protocol. Item order is
  // severity-major, system-minor.
  std::vector<PrecisionReport> replays;
  if (options.timesvc.enabled()) {
    replays = executor.map<PrecisionReport>(
        static_cast<std::int64_t>(severities.size()) * per_cell,
        [&](std::int64_t item, ScenarioExecutor::WorkerSlot&) {
          const SystemCase& sc = cases[static_cast<std::size_t>(item % per_cell)];
          const FaultInjector faults{
              sc.system,
              plan_for(severities[static_cast<std::size_t>(item / per_cell)], sc)};
          TimeService timesvc{sc.system, &faults, options.timesvc};
          timesvc.advance_all(sc.horizon);
          return PrecisionReport::from(timesvc);
        });
  }

  // One work item per (severity, protocol, system) triple, system-minor;
  // every simulation is independent (the fault RNG is re-seeded from the
  // plan per run), so items fan out over the executor freely and the
  // serial in-order merge below keeps cells identical at every thread
  // count.
  const std::int64_t items =
      static_cast<std::int64_t>(severities.size() * protocols.size()) * per_cell;
  const std::vector<RunOutcome> outcomes = executor.map<RunOutcome>(
      items, [&](std::int64_t item, ScenarioExecutor::WorkerSlot& slot) {
        const std::int64_t cell_index = item / per_cell;
        const FaultSeverity& severity =
            severities[static_cast<std::size_t>(cell_index) / protocols.size()];
        const ProtocolKind kind =
            protocols[static_cast<std::size_t>(cell_index) % protocols.size()];
        const SystemCase& sc = cases[static_cast<std::size_t>(item % per_cell)];

        FaultInjector faults{sc.system, plan_for(severity, sc)};
        // The service sees the injector even when the plan is inert (the
        // engine drops an inert injector, the service does not need to:
        // zero faults measure as zero error).
        std::optional<TimeService> timesvc;
        if (options.timesvc.enabled()) {
          timesvc.emplace(sc.system, &faults, options.timesvc);
        }
        const auto protocol = make_protocol(kind, sc.system, &sc.bounds);
        const EngineOptions engine_options{
            .horizon = sc.horizon,
            .faults = &faults,
            .timesvc = timesvc.has_value() ? &*timesvc : nullptr};
        Engine& engine = slot.engine_for(sc.system, *protocol, engine_options);
        engine.run();

        RunOutcome outcome;
        outcome.stats = engine.stats();
        outcome.completions = end_to_end_completions(engine);
        outcome.schedule_hash = engine.schedule_hash();
        if (const auto* mpm =
                dynamic_cast<const ModifiedPmProtocol*>(protocol.get())) {
          outcome.overruns = mpm->overruns();
        }
        if (const auto* mpmr =
                dynamic_cast<const MpmRetransmitProtocol*>(protocol.get())) {
          outcome.overruns = mpmr->overruns();
          outcome.retransmits = mpmr->retransmits();
        }
        if (timesvc.has_value() && timesvc->queried()) {
          // The queries shaped this service's slew path: drive it to the
          // horizon and report its own statistics.
          timesvc->advance_all(sc.horizon);
          outcome.precision = PrecisionReport::from(*timesvc);
        }
        return outcome;
      });

  if (!replays.empty()) {
    result.service_precision.resize(severities.size());
    for (std::size_t r = 0; r < replays.size(); ++r) {
      result.service_precision[r / cases.size()].merge(replays[r]);
    }
  }

  std::int64_t item = 0;
  for (std::size_t rung = 0; rung < severities.size(); ++rung) {
    const FaultSeverity& severity = severities[rung];
    for (const ProtocolKind kind : protocols) {
      FaultCell cell;
      cell.severity = severity.label;
      cell.kind = kind;
      for (std::int64_t i = 0; i < per_cell; ++i, ++item) {
        const RunOutcome& outcome = outcomes[static_cast<std::size_t>(item)];
        const SimStats& stats = outcome.stats;
        ++cell.systems;
        cell.jobs_released += stats.jobs_released;
        cell.violations += stats.precedence_violations;
        cell.instances += outcome.completions;
        cell.misses += stats.deadline_misses;
        cell.dropped_signals += stats.dropped_signals;
        cell.late_signals += stats.late_signals;
        cell.duplicated_signals += stats.duplicated_signals;
        cell.stalls += stats.stalls;
        cell.overruns += outcome.overruns;
        cell.retransmits += outcome.retransmits;
        cell.schedule_hash = hash_combine(cell.schedule_hash, outcome.schedule_hash);
        cell.events_processed += stats.events_processed;
        if (outcome.precision.has_value()) {
          cell.precision.merge(*outcome.precision);
        } else if (!replays.empty()) {
          cell.precision.merge(
              replays[rung * cases.size() + static_cast<std::size_t>(i)]);
        }
      }
      result.cells.push_back(std::move(cell));
    }
  }
  return result;
}

void run_fault_report(std::ostream& out, const FaultSweepOptions& options,
                      const FaultSweepResult& result) {
  out << "Robustness under injected faults (" << options.systems
      << " systems, N=" << options.config.subtasks_per_task
      << ", U=" << options.config.utilization_percent << "%";
  if (result.skipped_systems > 0) {
    out << ", " << result.skipped_systems << " PM-unschedulable draws replaced";
  }
  out << ")\n"
      << "Rates: viol = precedence violations per 1000 released jobs,\n"
      << "       miss = end-to-end deadline misses per 1000 completed "
         "instances.\n\n";

  const std::size_t rungs = resolved_severities(options).size();
  const std::size_t per_rung = result.cells.size() / rungs;
  for (std::size_t rung = 0; rung < rungs; ++rung) {
    TextTable table({"protocol", "viol/1k", "miss/1k", "dropped", "late", "dup",
                     "stalls", "overruns", "retransmits"});
    for (std::size_t c = rung * per_rung; c < (rung + 1) * per_rung; ++c) {
      const FaultCell& cell = result.cells[c];
      table.add_row({std::string{to_string(cell.kind)},
                     TextTable::fmt(1000.0 * cell.violation_rate(), 2),
                     TextTable::fmt(1000.0 * cell.miss_rate(), 2),
                     std::to_string(cell.dropped_signals),
                     std::to_string(cell.late_signals),
                     std::to_string(cell.duplicated_signals),
                     std::to_string(cell.stalls), std::to_string(cell.overruns),
                     std::to_string(cell.retransmits)});
    }
    out << "severity: " << result.cells[rung * per_rung].severity << "\n"
        << table.to_string();
    if (options.timesvc.enabled()) {
      // The rung's unqueried replay: what every protocol that never
      // queries the service reports, whatever order the protocols run in.
      const PrecisionReport& p = result.service_precision[rung];
      out << "timesvc: |err| mean " << TextTable::fmt(p.mean_abs_error(), 1)
          << " max " << p.abs_error_max << " ticks, sync "
          << (p.exchanges - p.failures) << "/" << p.exchanges
          << " ok, failovers " << p.failovers << ", holdover "
          << p.holdover_time << " ticks\n";
    }
    out << "\n";
  }

  out << "expectations: PM (clock-scheduled phases) and MPM (trusting bound\n"
      << "timers) accumulate precedence violations and misses under clock\n"
      << "skew. DS/RG release on actual completions, so their violation\n"
      << "rate stays ~0 and channel faults surface as late releases\n"
      << "(missed deadlines) instead -- more so for RG, whose guards delay\n"
      << "the post-loss catch-up. MPM-R gates its signal on completion and\n"
      << "retransmits lost signals, keeping both rates near baseline at\n"
      << "every rung.\n";
}

}  // namespace e2e
