#include "core/analysis/sa_pm.h"

#include <cstdint>
#include <vector>

#include "common/math.h"
#include "core/analysis/kernels.h"

namespace e2e {
namespace {

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

  // Make sure the scratch is shaped for this system; a mismatched
  // scratch is wiped, not trusted.
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
        r = solve_response_bound(eq, hp, sc, false);
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
