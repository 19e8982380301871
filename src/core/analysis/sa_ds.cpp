#include "core/analysis/sa_ds.h"

#include <algorithm>

#include "common/math.h"
#include "core/analysis/ieert.h"

namespace e2e {
namespace {

/// Replaces any entry exceeding its task's failure cutoff with infinity.
/// IEER bounds are cumulative, so capping every chain position against the
/// task's cutoff is equivalent to the paper's EER-level test but stops
/// divergent iterations sooner.
void apply_failure_cap(const TaskSystem& system, double multiplier, SubtaskTable& table) {
  for (const Task& t : system.tasks()) {
    const Duration cutoff = sat_scale(multiplier, t.period);
    for (const Subtask& s : t.subtasks) {
      if (!is_infinite(table.at(s.ref)) && table.at(s.ref) > cutoff) {
        table.set(s.ref, kTimeInfinity);
      }
    }
  }
}

}  // namespace

SaDsResult analyze_sa_ds(const TaskSystem& system, const SaDsOptions& options) {
  return analyze_sa_ds(system, InterferenceMap{system}, options);
}

SaDsResult analyze_sa_ds(const TaskSystem& system, const InterferenceMap& interference,
                         const SaDsOptions& options, AnalysisScratch* scratch) {
  SaDsResult result;

  // Initialization (Figure 11 step 1): R_{i,j} = sum of own and
  // predecessors' execution times -- an optimistic lower estimate.
  SubtaskTable current{system, 0};
  for (const Task& t : system.tasks()) {
    Duration cumulative = 0;
    for (const Subtask& s : t.subtasks) {
      cumulative += s.execution_time;
      current.set(s.ref, cumulative);
    }
  }

  // Warm start: under the caller's monotonicity promise the previous
  // converged table is <= the new fixpoint entrywise, and so is the
  // optimistic init; their elementwise max is therefore still an
  // under-approximation and the iteration converges to the identical
  // fixpoint in fewer passes.
  const bool monotone = scratch != nullptr && scratch->monotone;
  if (scratch != nullptr) scratch->monotone = false;
  if (monotone && scratch->ds_valid &&
      scratch->ds_refined == options.refine_jitter_with_best_case &&
      scratch->ds_table.shaped_like(system)) {
    for (const Task& t : system.tasks()) {
      for (const Subtask& s : t.subtasks) {
        current.set(s.ref, std::max(current.at(s.ref), scratch->ds_table.at(s.ref)));
      }
    }
  }

  // The fixpoint caps below keep each IEERT pass cheap once a chain is
  // already beyond salvation: no equation needs to be solved past the
  // largest per-task cutoff.
  Duration max_cutoff = 0;
  for (const Task& t : system.tasks()) {
    max_cutoff =
        std::max(max_cutoff, sat_scale(options.failure_period_multiplier, t.period));
  }
  const IeertOptions pass_options{
      .cap = sat_mul(max_cutoff, 2),
      .refine_jitter_with_best_case = options.refine_jitter_with_best_case,
      .failure_period_multiplier = options.failure_period_multiplier};

  // Iterate (Figure 11 step 2) until R == IEERT(T, R). Each pass is an
  // incremental Gauss-Seidel sweep: it tracks which entries changed
  // between passes and skips entries whose inputs are untouched, reaching
  // the same fixpoint as the paper's Jacobi passes (see ieert.h).
  IeertIncrementalState incremental;
  for (result.passes = 0; result.passes < options.max_passes;) {
    SubtaskTable next =
        ieert_pass(system, interference, current, pass_options, &incremental);
    apply_failure_cap(system, options.failure_period_multiplier, next);
    ++result.passes;
    if (next == current) {
      result.converged = true;
      break;
    }
    current = std::move(next);
  }
  result.evaluations = incremental.evaluations;

  // Only a converged table is a genuine fixpoint worth warm-starting
  // from; a pass-budget blowout leaves `current` mid-iteration.
  if (scratch != nullptr && result.converged) {
    scratch->ds_valid = true;
    scratch->ds_refined = options.refine_jitter_with_best_case;
    scratch->ds_table = current;
  }

  result.analysis.subtask_bounds = current;
  result.analysis.eer_bounds.assign(system.task_count(), kTimeInfinity);
  if (result.converged) {
    for (const Task& t : system.tasks()) {
      // Figure 11 step 3: the EER bound is the last subtask's IEER bound.
      result.analysis.eer_bounds[t.id.index()] = current.at(t.last_subtask().ref);
    }
  }
  finalize_schedulability(system, result.analysis);
  return result;
}

}  // namespace e2e
