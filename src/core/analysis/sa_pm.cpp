#include "core/analysis/sa_pm.h"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/error.h"
#include "common/math.h"
#include "core/analysis/demand.h"
#include "core/analysis/fixpoint.h"
#include "core/analysis/kernels.h"

namespace e2e {
namespace {

/// The pre-fast-path code shape: every demand evaluation routed through a
/// type-erased std::function, cold-started fixpoints, no warm seeds.
/// Kept verbatim so benchmarks can measure the fast path (the shared
/// kernel in core/analysis/kernels.h) against the historical baseline.
Duration bound_subtask_response_legacy(const TaskSystem& system,
                                       const Subtask& subtask,
                                       std::span<const Interferer> hp_aos,
                                       Duration blocking, Time cap,
                                       SubtaskScratch* sc) {
  const Task& task = system.task(subtask.ref.task);
  const Duration period = task.period;
  const Duration exec = subtask.execution_time;
  const Duration jitter = task.release_jitter;
  const FixpointOptions fp{.cap = cap};

  const auto record_unbounded = [&]() -> Duration {
    if (sc != nullptr) {
      sc->has = true;
      sc->busy = 0;
      sc->bound = kTimeInfinity;
      sc->completions.clear();
    }
    return kTimeInfinity;
  };

  // Step 1: busy-period duration D_{i,j} (interference set plus self).
  const DemandFn busy_fn = [&](Time t) -> Duration {
    Duration sum = sat_add(blocking, jittered_demand(t, jitter, period, exec));
    for (const Interferer& h : hp_aos) {
      sum = sat_add(sum, jittered_demand(t, h.task_release_jitter, h.period,
                                         h.execution_time));
    }
    return sum;
  };
  const std::optional<Time> busy = solve_fixpoint(busy_fn, fp);
  if (!busy) return record_unbounded();

  // Step 2: number of instances in the busy period.
  const std::int64_t instances = ceil_div(sat_add(*busy, jitter), period);

  // Steps 3-4: bound each instance's response time, take the max.
  Duration worst = 0;
  Time previous_completion = 0;
  std::vector<Time> completions;
  if (sc != nullptr) completions.reserve(static_cast<std::size_t>(instances));
  for (std::int64_t m = 1; m <= instances; ++m) {
    const DemandFn completion_fn = [&](Time t) -> Duration {
      Duration sum = sat_add(blocking, sat_mul(m, exec));
      for (const Interferer& h : hp_aos) {
        sum = sat_add(sum, jittered_demand(t, h.task_release_jitter, h.period,
                                           h.execution_time));
      }
      return sum;
    };
    const std::optional<Time> completion = solve_fixpoint_from(
        std::max(sat_mul(m, exec), sat_add(previous_completion, exec)), completion_fn,
        fp);
    if (!completion) return record_unbounded();
    previous_completion = *completion;
    if (sc != nullptr) completions.push_back(*completion);
    worst = std::max(worst, sat_add(*completion, jitter) - (m - 1) * period);
  }
  if (sc != nullptr) {
    sc->has = true;
    sc->busy = *busy;
    sc->bound = worst;
    sc->completions = std::move(completions);
  }
  return worst;
}

/// True if `pm` has one entry per subtask of `system`.
bool pm_shape_matches(const std::vector<std::vector<SubtaskScratch>>& pm,
                      const TaskSystem& system) {
  if (pm.size() != system.task_count()) return false;
  for (const Task& t : system.tasks()) {
    if (pm[t.id.index()].size() != t.subtasks.size()) return false;
  }
  return true;
}

}  // namespace

AnalysisResult analyze_sa_pm(const TaskSystem& system, const SaPmOptions& options) {
  return analyze_sa_pm(system, InterferenceMap{system}, options);
}

AnalysisResult analyze_sa_pm(const TaskSystem& system,
                             const InterferenceMap& interference,
                             const SaPmOptions& options, AnalysisScratch* scratch) {
  AnalysisResult result;
  result.subtask_bounds = SubtaskTable{system, 0};
  result.eer_bounds.assign(system.task_count(), 0);

  const Time cap = sat_scale(options.cap_period_multiplier, system.max_period());

  // Consume the one-shot monotonicity promise and make sure the scratch
  // is shaped for this system; a mismatched scratch is wiped, not trusted.
  const bool monotone = scratch != nullptr && scratch->monotone;
  if (scratch != nullptr) scratch->monotone = false;
  bool reuse_allowed = false;
  if (scratch != nullptr) {
    reuse_allowed = scratch->pm_valid && pm_shape_matches(scratch->pm, system);
    if (!reuse_allowed) {
      scratch->pm.assign(system.task_count(), {});
      for (const Task& t : system.tasks()) {
        scratch->pm[t.id.index()].assign(t.subtasks.size(), SubtaskScratch{});
      }
    }
  }

  for (const Task& t : system.tasks()) {
    Duration eer = 0;
    for (const Subtask& s : t.subtasks) {
      const Duration blocking = interference.blocking(s.ref);
      const InterferenceMap::SoaView hp = interference.soa_of(s.ref);
      const ResponseEquation eq{.period = t.period,
                                .exec = s.execution_time,
                                .jitter = t.release_jitter,
                                .blocking = blocking,
                                .cap = cap};
      SubtaskScratch* sc =
          scratch != nullptr
              ? &scratch->pm[t.id.index()][static_cast<std::size_t>(s.ref.index)]
              : nullptr;
      Duration r = 0;
      bool reused = false;
      std::uint64_t sig = 0;
      if (sc != nullptr) {
        sig = response_equation_signature(eq, hp);
        if (reuse_allowed && sc->has && sc->signature == sig) {
          // Bit-identical equation: same least fixpoint, no iteration.
          r = sc->bound;
          reused = true;
        }
      }
      if (!reused) {
        r = options.legacy_demand_path
                ? bound_subtask_response_legacy(system, s, interference.of(s.ref),
                                                blocking, cap, sc)
                : solve_response_bound(eq, hp, sc, reuse_allowed && monotone);
        if (sc != nullptr) sc->signature = sig;
      }
      result.subtask_bounds.set(s.ref, r);
      eer = sat_add(eer, r);
    }
    result.eer_bounds[t.id.index()] = eer;  // Step 5
  }
  if (scratch != nullptr) scratch->pm_valid = true;
  finalize_schedulability(system, result);
  return result;
}

}  // namespace e2e
