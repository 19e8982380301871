#include "experiments/breakdown.h"

#include <utility>

#include "common/error.h"
#include "core/analysis/sa_ds.h"
#include "core/analysis/sa_pm.h"
#include "scenario/executor.h"
#include "workload/scaling.h"

namespace e2e {
namespace {

bool schedulable_at(const TaskSystem& base, double target_utilization,
                    double base_utilization, AnalysisKind analysis) {
  const TaskSystem scaled =
      scale_execution_times(base, target_utilization / base_utilization);
  return analysis == AnalysisKind::kSaPm
             ? analyze_sa_pm(scaled).system_schedulable()
             : analyze_sa_ds(scaled).analysis.system_schedulable();
}

}  // namespace

double breakdown_utilization(const TaskSystem& system, AnalysisKind analysis,
                             const BreakdownOptions& options) {
  const double base = system.max_processor_utilization();
  E2E_ASSERT(base > 0.0, "system has no workload");

  // Establish a schedulable lower end; execution times can't shrink below
  // one tick, so "0" here means even the floor is unschedulable.
  double lo = options.tolerance;
  if (!schedulable_at(system, lo, base, analysis)) return 0.0;
  double hi = options.max_utilization;
  if (schedulable_at(system, hi, base, analysis)) return hi;

  while (hi - lo > options.tolerance) {
    const double mid = (lo + hi) / 2.0;
    if (schedulable_at(system, mid, base, analysis)) {
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
