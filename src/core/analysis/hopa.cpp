#include "core/analysis/hopa.h"

#include <algorithm>
#include <vector>

#include "common/error.h"
#include "core/analysis/sa_pm.h"
#include "task/builder.h"

namespace e2e {
namespace {

/// Rebuilds `system` with per-subtask priority levels from `levels`
/// (indexed like the subtask tables).
TaskSystem with_priorities(const TaskSystem& system,
                           const std::vector<std::vector<std::int32_t>>& levels) {
  TaskSystemBuilder builder{system.processor_count()};
  for (const Task& t : system.tasks()) {
    auto handle = builder.add_task({.period = t.period,
                                    .phase = t.phase,
                                    .deadline = t.relative_deadline,
                                    .release_jitter = t.release_jitter,
                                    .name = t.name});
    for (const Subtask& s : t.subtasks) {
      handle.subtask(
          s.processor, s.execution_time,
          Priority{levels[t.id.index()][static_cast<std::size_t>(s.ref.index)]},
          s.name);
      if (!s.preemptible) handle.non_preemptible();
    }
  }
  return std::move(builder).build();
}

double margin_of(const AnalysisResult& analysis, const TaskSystem& system,
                 double unbounded_margin) {
  double worst = 0.0;
  for (const Task& t : system.tasks()) {
    const Duration bound = analysis.eer_bound(t.id);
    const double ratio = is_infinite(bound)
                             ? unbounded_margin
                             : static_cast<double>(bound) /
                                   static_cast<double>(t.relative_deadline);
    worst = std::max(worst, ratio);
  }
  return worst;
}

/// Deadline-monotonic levels per processor from local deadlines
/// (ties broken by task then chain index, as elsewhere).
std::vector<std::vector<std::int32_t>> levels_from_local_deadlines(
    const TaskSystem& system, const std::vector<std::vector<double>>& local_deadline) {
  std::vector<std::vector<std::int32_t>> levels(system.task_count());
  for (const Task& t : system.tasks()) {
    levels[t.id.index()].resize(t.subtasks.size(), 0);
  }
  for (std::size_t p = 0; p < system.processor_count(); ++p) {
    std::vector<SubtaskRef> refs;
    for (const SubtaskRef ref :
         system.subtasks_on(ProcessorId{static_cast<std::int32_t>(p)})) {
      refs.push_back(ref);
    }
    std::sort(refs.begin(), refs.end(), [&](SubtaskRef a, SubtaskRef b) {
      const double da = local_deadline[a.task.index()][static_cast<std::size_t>(a.index)];
      const double db = local_deadline[b.task.index()][static_cast<std::size_t>(b.index)];
      if (da != db) return da < db;
      return a < b;
    });
    for (std::size_t level = 0; level < refs.size(); ++level) {
      levels[refs[level].task.index()][static_cast<std::size_t>(refs[level].index)] =
          static_cast<std::int32_t>(level);
    }
  }
  return levels;
}

/// True iff `levels` equals the priority levels `system` already carries.
bool levels_unchanged(const TaskSystem& system,
                      const std::vector<std::vector<std::int32_t>>& levels) {
  for (const Task& t : system.tasks()) {
    for (const Subtask& s : t.subtasks) {
      if (s.priority.level !=
          levels[t.id.index()][static_cast<std::size_t>(s.ref.index)]) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace

double schedulability_margin(const TaskSystem& system, double unbounded_margin) {
  return margin_of(analyze_sa_pm(system), system, unbounded_margin);
}

double schedulability_margin(const TaskSystem& system, const AnalysisResult& analysis,
                             double unbounded_margin) {
  return margin_of(analysis, system, unbounded_margin);
}

HopaResult optimize_priorities_hopa(const TaskSystem& system,
                                    const HopaOptions& options) {
  E2E_ASSERT(options.iterations >= 0, "iterations must be non-negative");

  HopaResult result{.system = system};
  // One scratch spans the initial analysis and every round: a priority
  // reshuffle typically leaves most subtasks' demand equations untouched,
  // and those reuse their converged fixpoints by signature.
  AnalysisScratch scratch;
  AnalysisScratch* sc = options.warm_start ? &scratch : nullptr;
  AnalysisResult analysis =
      analyze_sa_pm(result.system, InterferenceMap{result.system}, options.analysis, sc);
  result.initial_margin = margin_of(analysis, result.system, options.unbounded_margin);
  result.margin = result.initial_margin;

  TaskSystem current = system;
  for (int round = 0; round < options.iterations; ++round) {
    ++result.iterations_run;
    // Redistribute each task's end-to-end deadline over its subtasks in
    // proportion to their current response bounds (capped when infinite:
    // the redistribution then leans on the finite sibling bounds).
    std::vector<std::vector<double>> local_deadline(current.task_count());
    for (const Task& t : current.tasks()) {
      local_deadline[t.id.index()].resize(t.subtasks.size(), 0.0);
      double share_sum = 0.0;
      std::vector<double> shares(t.subtasks.size());
      for (const Subtask& s : t.subtasks) {
        const Duration bound = analysis.subtask_bounds.at(s.ref);
        const double share =
            is_infinite(bound)
                ? 10.0 * static_cast<double>(t.relative_deadline)
                : static_cast<double>(std::max<Duration>(bound, 1));
        shares[static_cast<std::size_t>(s.ref.index)] = share;
        share_sum += share;
      }
      for (std::size_t j = 0; j < t.subtasks.size(); ++j) {
        local_deadline[t.id.index()][j] =
            static_cast<double>(t.relative_deadline) * shares[j] / share_sum;
      }
    }

    const auto levels = levels_from_local_deadlines(current, local_deadline);
    // The redistribution usually reaches a fixpoint within a few rounds;
    // once the levels stop moving, rebuilding the system and re-analyzing
    // would reproduce `analysis` bit for bit round after round. The warm
    // path skips that recomputation; the cold reference (warm_start off)
    // rebuilds every round.
    if (options.warm_start && levels_unchanged(current, levels)) {
      const double margin = margin_of(analysis, current, options.unbounded_margin);
      if (margin < result.margin) {
        result.margin = margin;
        result.system = current;
      }
      if (margin <= 1.0 && result.margin <= 1.0 && margin >= result.margin) {
        break;
      }
      continue;
    }
    current = with_priorities(current, levels);
    analysis = analyze_sa_pm(current, InterferenceMap{current}, options.analysis, sc);
    const double margin = margin_of(analysis, current, options.unbounded_margin);
    if (margin < result.margin) {
      result.margin = margin;
      result.system = current;
    }
    if (margin <= 1.0 && result.margin <= 1.0 && margin >= result.margin) {
      break;  // schedulable and no longer improving
    }
  }
  return result;
}

}  // namespace e2e
