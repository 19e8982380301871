// Algorithm SA/DS (paper Figure 11): schedulability analysis for the
// Direct Synchronization protocol.
//
// Starting from the optimistic estimate R_{i,j} = sum_{m<=j} e_{i,m},
// Algorithm IEERT is applied repeatedly until the IEER-bound table reaches
// a fixpoint (Theorem 2: any fixpoint consists of correct upper bounds).
// The operator is monotone and the start is an under-approximation, so the
// iterates only grow; when a bound exceeds the paper's cutoff of 300 times
// the task's period it is declared infinite ("failure"), matching the
// failure criterion used for Figure 12.
//
// The iteration is one loop, sa_ds_iterate: in-place ieert_sweep calls
// until a sweep changes nothing. analyze_sa_ds runs it from the
// optimistic init; the admission engine runs it from its committed table
// with an undo journal. Each sweep declares an entry infinite the moment
// it crosses its task's cutoff, so no separate capping step follows.
#pragma once

#include <cstdint>

#include "core/analysis/bounds.h"
#include "core/analysis/ieert.h"
#include "core/analysis/interference.h"
#include "task/system.h"

namespace e2e {

/// Safety net on the number of IEERT sweeps of one SA/DS iteration.
/// Divergence is normally caught by the failure cutoff long before this
/// triggers.
inline constexpr int kSaDsMaxPasses = 10000;

struct SaDsOptions {
  /// A task's bound is declared infinite once it exceeds this multiple of
  /// the task's period (the paper uses 300). Must be positive.
  double failure_period_multiplier = 300.0;
  /// Use the best-case-refined jitter terms (see IeertOptions). Off by
  /// default: the paper's Algorithm SA/DS uses the plain R_{u,v-1} jitter.
  bool refine_jitter_with_best_case = false;
};

struct SaDsResult {
  /// IEER bounds per subtask (cumulative along each chain); the entry for
  /// a task's last subtask is the task's EER bound.
  AnalysisResult analysis;
  /// Number of IEERT sweeps executed, the final unchanged one included.
  int passes = 0;
  /// Number of IEERT entry solves over all sweeps (reporting only).
  std::uint64_t evaluations = 0;
  /// True if the iteration reached an exact fixpoint (including fixpoints
  /// with infinite entries); false only if kSaDsMaxPasses sweeps ran
  /// without one. Then every `analysis.eer_bounds` entry is
  /// conservatively infinite (so every task fails), while
  /// `analysis.subtask_bounds` keeps the table after the last sweep: an
  /// under-approximation of the fixpoint, not a bound. The admission
  /// engine's cold path commits that table as its state (engine_ds.cpp,
  /// run_cold), so its table hash matches this function's.
  bool converged = false;

  /// The paper's per-task "failure": no finite EER bound found.
  [[nodiscard]] bool task_failed(TaskId id) const {
    return is_infinite(analysis.eer_bounds.at(id.index()));
  }
  /// System-level failure as counted in Figure 12: any task failed.
  [[nodiscard]] bool any_failure() const { return !analysis.all_bounded(); }
};

[[nodiscard]] SaDsResult analyze_sa_ds(const TaskSystem& system,
                                       const SaDsOptions& options = {});

/// As above, reusing a prebuilt interference map.
[[nodiscard]] SaDsResult analyze_sa_ds(const TaskSystem& system,
                                       const InterferenceMap& interference,
                                       const SaDsOptions& options = {});

/// The IEERT options of every SA/DS sweep over `system`: the jitter mode,
/// the per-task failure cutoff, and the divergence cap
/// 2 x sat_scale(multiplier, max_period()) -- twice the largest per-task
/// cutoff, since sat_scale is monotone in the period. O(1).
[[nodiscard]] IeertOptions sa_ds_pass_options(const TaskSystem& system,
                                              const SaDsOptions& options);

struct SaDsIteration {
  int passes = 0;          ///< sweeps run, the final unchanged one included
  bool converged = false;  ///< a sweep changed nothing before the budget ran out
};

/// Figure 11 step 2 in place: ieert_sweep over `table` until a sweep
/// changes nothing (`table` is then the least fixpoint above its start,
/// when the start under-approximates it) or kSaDsMaxPasses sweeps ran.
/// `state` must be indexed and sized as ieert_sweep requires; `undo`,
/// when set, journals the sweeps for a trial rollback.
[[nodiscard]] SaDsIteration sa_ds_iterate(const TaskSystem& system,
                                          const InterferenceMap& interference,
                                          SubtaskTable& table,
                                          const IeertOptions& pass_options,
                                          IeertIncrementalState& state,
                                          IeertSweepUndo* undo = nullptr);

}  // namespace e2e
