#include "experiments/breakdown.h"

#include <utility>

#include "common/error.h"
#include "core/analysis/sa_ds.h"
#include "core/analysis/sa_pm.h"
#include "scenario/executor.h"
#include "workload/scaling.h"

namespace e2e {
namespace {

/// Converged analysis state pinned at the highest scale factor found
/// schedulable so far. The binary search only ever probes at or above its
/// schedulable frontier, and scale_execution_times is monotone in the
/// factor (max(1, round(factor * e))), so warm-starting a probe from the
/// frontier's fixpoints is sound: they under-approximate the probe's.
/// Unschedulable probes must NOT update the frontier -- their fixpoints
/// belong to a larger factor and would over-seed lower probes.
struct ScratchFrontier {
  AnalysisScratch scratch;
  double factor = 0.0;
  bool has = false;
};

bool schedulable_at(const TaskSystem& base, double target_utilization,
                    double base_utilization, AnalysisKind analysis,
                    ScratchFrontier& frontier) {
  const double factor = target_utilization / base_utilization;
  const TaskSystem scaled = scale_execution_times(base, factor);
  const InterferenceMap interference{scaled};

  AnalysisScratch working;
  if (frontier.has && factor >= frontier.factor) {
    working = frontier.scratch;
    working.monotone = true;  // execution times only grew; caps unchanged
  }

  const bool ok =
      analysis == AnalysisKind::kSaPm
          ? analyze_sa_pm(scaled, interference, {}, &working).system_schedulable()
          : analyze_sa_ds(scaled, interference, {}, &working)
                .analysis.system_schedulable();
  if (ok && (!frontier.has || factor >= frontier.factor)) {
    frontier.scratch = std::move(working);
    frontier.factor = factor;
    frontier.has = true;
  }
  return ok;
}

}  // namespace

double breakdown_utilization(const TaskSystem& system, AnalysisKind analysis,
                             const BreakdownOptions& options) {
  const double base = system.max_processor_utilization();
  E2E_ASSERT(base > 0.0, "system has no workload");

  ScratchFrontier frontier;

  // Establish a schedulable lower end; execution times can't shrink below
  // one tick, so "0" here means even the floor is unschedulable.
  double lo = options.tolerance;
  if (!schedulable_at(system, lo, base, analysis, frontier)) return 0.0;
  double hi = options.max_utilization;
  if (schedulable_at(system, hi, base, analysis, frontier)) return hi;

  while (hi - lo > options.tolerance) {
    const double mid = (lo + hi) / 2.0;
    if (schedulable_at(system, mid, base, analysis, frontier)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

std::vector<BreakdownResult> run_breakdown_experiment(int systems, std::uint64_t seed,
                                                      const BreakdownOptions& options) {
  ScenarioExecutor executor{options.threads};
  return run_breakdown_experiment(systems, seed, options, executor);
}

std::vector<BreakdownResult> run_breakdown_experiment(int systems, std::uint64_t seed,
                                                      const BreakdownOptions& options,
                                                      ScenarioExecutor& executor) {
  std::vector<BreakdownResult> results;
  for (int n = 2; n <= 8; ++n) {
    BreakdownResult row;
    row.subtasks_per_task = n;
    // Pure analysis (no engine); systems fan out over the executor and the
    // index-ordered merge reproduces the serial RunningStats add order.
    const std::vector<Rng> streams = ScenarioExecutor::fork_streams(
        seed ^ (static_cast<std::uint64_t>(n) << 40), systems);
    const std::vector<std::pair<double, double>> utilizations =
        executor.map<std::pair<double, double>>(
            systems, [&](std::int64_t i, ScenarioExecutor::WorkerSlot&) {
              Rng rng = streams[static_cast<std::size_t>(i)];
              // The base utilization only sets the starting point of the
              // scale; 50% keeps every generated system analyzable.
              GeneratorOptions gen =
                  options_for({.subtasks_per_task = n, .utilization_percent = 50});
              const TaskSystem system = generate_system(rng, gen);
              return std::pair{
                  breakdown_utilization(system, AnalysisKind::kSaPm, options),
                  breakdown_utilization(system, AnalysisKind::kSaDs, options)};
            });
    for (const auto& [pm, ds] : utilizations) {
      row.sa_pm.add(pm);
      row.sa_ds.add(ds);
    }
    results.push_back(row);
  }
  return results;
}

}  // namespace e2e
