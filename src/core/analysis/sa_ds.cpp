#include "core/analysis/sa_ds.h"

#include "common/error.h"
#include "common/math.h"

namespace e2e {

SaDsResult analyze_sa_ds(const TaskSystem& system, const SaDsOptions& options) {
  return analyze_sa_ds(system, InterferenceMap{system}, options);
}

SaDsResult analyze_sa_ds(const TaskSystem& system, const InterferenceMap& interference,
                         const SaDsOptions& options) {
  SaDsResult result;

  // Initialization (Figure 11 step 1): R_{i,j} = sum of own and
  // predecessors' execution times -- an optimistic lower estimate.
  SubtaskTable& table = result.analysis.subtask_bounds;
  table = SubtaskTable{system, 0};
  for (const Task& t : system.tasks()) {
    Duration cumulative = 0;
    for (const Subtask& s : t.subtasks) {
      cumulative += s.execution_time;
      table.set(s.ref, cumulative);
    }
  }

  // Iterate (Figure 11 step 2) until R == IEERT(T, R). Each sweep is an
  // in-place Gauss-Seidel pass that skips entries whose inputs are
  // untouched, reaching the same fixpoint as the paper's Jacobi passes
  // (see ieert.h).
  IeertIncrementalState state;
  ieert_index_dependencies(system, interference, state);
  state.warm.assign(interference.subtask_count(), {});
  const SaDsIteration iteration = sa_ds_iterate(
      system, interference, table, sa_ds_pass_options(system, options), state);
  result.passes = iteration.passes;
  result.converged = iteration.converged;
  result.evaluations = state.evaluations;

  result.analysis.eer_bounds.assign(system.task_count(), kTimeInfinity);
  if (result.converged) {
    for (const Task& t : system.tasks()) {
      // Figure 11 step 3: the EER bound is the last subtask's IEER bound.
      result.analysis.eer_bounds[t.id.index()] = table.at(t.last_subtask().ref);
    }
  }
  finalize_schedulability(system, result.analysis);
  return result;
}

IeertOptions sa_ds_pass_options(const TaskSystem& system, const SaDsOptions& options) {
  E2E_ASSERT(options.failure_period_multiplier > 0.0,
             "SA/DS failure multiplier must be positive");
  return IeertOptions{
      .cap = sat_mul(sat_scale(options.failure_period_multiplier, system.max_period()), 2),
      .refine_jitter_with_best_case = options.refine_jitter_with_best_case,
      .failure_period_multiplier = options.failure_period_multiplier};
}

SaDsIteration sa_ds_iterate(const TaskSystem& system, const InterferenceMap& interference,
                            SubtaskTable& table, const IeertOptions& pass_options,
                            IeertIncrementalState& state, IeertSweepUndo* undo) {
  SaDsIteration iteration;
  while (iteration.passes < kSaDsMaxPasses) {
    ++iteration.passes;
    if (ieert_sweep(system, interference, table, pass_options, state, undo) == 0) {
      iteration.converged = true;
      break;
    }
  }
  return iteration;
}

}  // namespace e2e
