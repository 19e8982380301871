// Breakdown utilization: the highest per-processor utilization at which a
// workload remains (analyzably) schedulable under each protocol family.
//
// Not a paper figure, but the natural summary of its message: for a
// random workload shape, scale all execution times until the analysis
// first reports a deadline violation; the utilization just before that
// point is the protocol's breakdown utilization for this workload.
// Schedulability is judged by Algorithm SA/PM for PM/MPM/RG (Theorem 1)
// and by Algorithm SA/DS for DS, so the gap between the two curves is the
// *schedulable-utilization* cost of direct synchronization.
#pragma once

#include <vector>

#include "metrics/stats.h"
#include "task/system.h"
#include "workload/generator.h"

namespace e2e {

class ScenarioExecutor;

enum class AnalysisKind { kSaPm, kSaDs };

struct BreakdownOptions {
  /// Binary-search tolerance on the scale factor.
  double tolerance = 0.01;
  /// Search ceiling on the max per-processor utilization.
  double max_utilization = 1.0;
  /// Worker threads for run_breakdown_experiment; 0 = E2E_THREADS env
  /// var, else hardware concurrency. Results are identical at every
  /// thread count.
  int threads = 0;
};

/// Largest max-per-processor utilization (within tolerance) such that the
/// uniformly scaled `system` is schedulable under `analysis`. Returns 0.0
/// if even the minimum scale (1 tick per subtask) is unschedulable. Each
/// binary-search probe analyzes its scaled system cold.
[[nodiscard]] double breakdown_utilization(const TaskSystem& system,
                                           AnalysisKind analysis,
                                           const BreakdownOptions& options = {});

/// Aggregated breakdown experiment: for each chain length N, generate
/// `systems` random workload shapes (4 processors, 12 tasks, base
/// utilization irrelevant) and collect breakdown utilizations under both
/// analyses.
struct BreakdownResult {
  int subtasks_per_task = 0;
  RunningStats sa_pm;  ///< PM / MPM / RG breakdown utilization
  RunningStats sa_ds;  ///< DS breakdown utilization
};

/// Runs on a transient executor of `options.threads` workers.
[[nodiscard]] std::vector<BreakdownResult> run_breakdown_experiment(
    int systems, std::uint64_t seed, const BreakdownOptions& options = {});

/// Same, fanning out over an existing executor (scenario runs share one;
/// `options.threads` is ignored).
[[nodiscard]] std::vector<BreakdownResult> run_breakdown_experiment(
    int systems, std::uint64_t seed, const BreakdownOptions& options,
    ScenarioExecutor& executor);

}  // namespace e2e
