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
#pragma once

#include <cstdint>

#include "core/analysis/bounds.h"
#include "core/analysis/interference.h"
#include "core/analysis/scratch.h"
#include "task/system.h"

namespace e2e {

struct SaDsOptions {
  /// A task's bound is declared infinite once it exceeds this multiple of
  /// the task's period (the paper uses 300).
  double failure_period_multiplier = 300.0;
  /// Safety net on the number of IEERT passes. Divergence is normally
  /// caught by the multiplier cap long before this triggers.
  int max_passes = 10000;
  /// Use the best-case-refined jitter terms (see IeertOptions). Off by
  /// default: the paper's Algorithm SA/DS uses the plain R_{u,v-1} jitter.
  bool refine_jitter_with_best_case = false;
};

struct SaDsResult {
  /// IEER bounds per subtask (cumulative along each chain); the entry for
  /// a task's last subtask is the task's EER bound.
  AnalysisResult analysis;
  /// Number of IEERT passes executed.
  int passes = 0;
  /// Number of IEERT entry solves over all passes (reporting only).
  std::uint64_t evaluations = 0;
  /// True if the iteration reached an exact fixpoint (including fixpoints
  /// with infinite entries); false only if max_passes was exhausted. Then
  /// every `analysis.eer_bounds` entry is conservatively infinite (so
  /// every task fails), while `analysis.subtask_bounds` keeps the
  /// mid-iteration table of the last pass: an under-approximation of the
  /// fixpoint, not a bound. The admission engine's cold path commits
  /// that table as its state (engine_ds.cpp, run_cold), so its table
  /// hash matches this function's.
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

/// As above, reusing a prebuilt interference map. When `scratch` is
/// non-null and the caller armed `scratch->monotone` (demand grew, caps
/// and failure cutoffs did not), the IEERT iteration starts from the
/// elementwise max of the optimistic init and the previous converged
/// table -- both under-approximations of the new fixpoint, so the
/// iteration converges to exactly the table the cold start produces, in
/// fewer passes. The scratch only stores converged tables, and a table
/// computed under a different refine_jitter_with_best_case flag is
/// ignored (the two operators' fixpoints are not comparable).
[[nodiscard]] SaDsResult analyze_sa_ds(const TaskSystem& system,
                                       const InterferenceMap& interference,
                                       const SaDsOptions& options = {},
                                       AnalysisScratch* scratch = nullptr);

}  // namespace e2e
