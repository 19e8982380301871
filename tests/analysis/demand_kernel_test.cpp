// Property tests for the analysis fast path: across 200 generated
// systems (N cycling 2..6, U cycling 50..80%), the inlined
// structure-of-arrays demand kernels, signature-exact scratch reuse and
// monotone warm starts must reproduce the committed result hashes --
// exact Time equality, bound for bound and verdict for verdict. The
// hashes were captured from the std::function cold-start path these
// kernels replaced, which produced them bit for bit before it was
// retired.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/hash.h"
#include "common/math.h"
#include "common/rng.h"
#include "core/analysis/fixpoint.h"
#include "core/analysis/ieert.h"
#include "core/analysis/kernels.h"
#include "core/analysis/sa_ds.h"
#include "core/analysis/sa_pm.h"
#include "workload/generator.h"
#include "workload/scaling.h"

namespace e2e {
namespace {

constexpr int kSystems = 200;

/// analyze_sa_pm folded over all kSystems systems, and analyze_sa_ds
/// (plus its convergence flag) over every fourth one; see fold_result.
constexpr std::uint64_t kSaPmGolden = 0x0b990921cd21be55;
constexpr std::uint64_t kSaDsGolden = 0x0bd83249db40c40c;

TaskSystem system_for(int i) {
  constexpr int kSubtasks[] = {2, 3, 4, 5, 6};
  constexpr int kUtil[] = {50, 60, 70, 80};
  Rng rng{std::uint64_t{0x9e3779b97f4a7c15} ^
          (static_cast<std::uint64_t>(i) * std::uint64_t{2654435761})};
  return generate_system(
      rng, options_for({.subtasks_per_task = kSubtasks[i % 5],
                        .utilization_percent = kUtil[i % 4]}));
}

/// Folds every subtask bound, then each task's EER bound and verdict.
std::uint64_t fold_result(std::uint64_t h, const TaskSystem& system,
                          const AnalysisResult& r) {
  h = hash_combine(h, r.subtask_bounds.content_hash());
  for (const Task& t : system.tasks()) {
    h = hash_combine(h, static_cast<std::uint64_t>(r.eer_bounds[t.id.index()]));
    h = hash_combine(h, r.task_schedulable[t.id.index()] ? 1 : 0);
  }
  return h;
}

void expect_identical(const TaskSystem& system, const AnalysisResult& want,
                      const AnalysisResult& got, const char* what, int i) {
  ASSERT_EQ(want.eer_bounds, got.eer_bounds) << what << ", system " << i;
  ASSERT_EQ(want.task_schedulable, got.task_schedulable) << what << ", system " << i;
  for (const Task& t : system.tasks()) {
    for (std::size_t k = 0; k < t.subtasks.size(); ++k) {
      const SubtaskRef ref{t.id, static_cast<std::int32_t>(k)};
      ASSERT_EQ(want.subtask_bounds.at(ref), got.subtask_bounds.at(ref))
          << what << ", system " << i << ", task " << t.id.index()
          << " subtask " << k;
    }
  }
}

TEST(DemandKernel, SaPmAndSignatureReuseMatchGoldenHash) {
  std::uint64_t h = 0;
  for (int i = 0; i < kSystems; ++i) {
    const TaskSystem system = system_for(i);
    const InterferenceMap interference{system};
    AnalysisScratch scratch;
    const AnalysisResult fresh = analyze_sa_pm(system, interference, {}, &scratch);
    h = fold_result(h, system, fresh);
    // Re-analyzing the unchanged system hits the signature-exact reuse
    // path: every bound is copied from the scratch, never re-solved.
    const AnalysisResult reused = analyze_sa_pm(system, interference, {}, &scratch);
    expect_identical(system, fresh, reused, "signature reuse", i);
  }
  EXPECT_EQ(h, kSaPmGolden);
}

TEST(DemandKernel, SaPmMonotoneWarmStartMatchesColdStart) {
  for (int i = 0; i < kSystems; ++i) {
    const TaskSystem base = system_for(i);
    AnalysisScratch scratch;
    (void)analyze_sa_pm(base, InterferenceMap{base}, {}, &scratch);
    // Uniformly inflating execution times grows demand pointwise while
    // periods (hence caps) stay put -- the monotone warm-start contract.
    const TaskSystem scaled = scale_execution_times(base, 1.15);
    const InterferenceMap interference{scaled};
    const AnalysisResult cold = analyze_sa_pm(scaled, interference, {});
    scratch.monotone = true;
    const AnalysisResult warm = analyze_sa_pm(scaled, interference, {}, &scratch);
    expect_identical(scaled, cold, warm, "monotone warm start", i);
  }
}

// solve_response_bound writes the scratch's completions in place. A
// scratch that already holds more, or fewer, completions than the new
// equation solves -- reused cold, or warm from a dominated equation --
// must end with exactly the bound, busy period and completions a fresh
// scratch gets from a cold solve.
TEST(DemandKernel, ResponseBoundReusesScratchCompletionsExactly) {
  struct Equation {
    std::vector<Duration> periods, execs, jitters;
    ResponseEquation eq;
    [[nodiscard]] HpView hp() const { return HpView{periods, execs, jitters}; }
  };
  const auto draw = [](Rng& rng) {
    Equation e;
    const auto interferers = rng.uniform_int(0, 4);
    for (std::int64_t k = 0; k < interferers; ++k) {
      e.periods.push_back(rng.uniform_int(8, 120));
      e.execs.push_back(rng.uniform_int(1, 6));
      e.jitters.push_back(rng.uniform_int(0, 10));
    }
    e.eq = ResponseEquation{.period = rng.uniform_int(6, 90),
                            .exec = rng.uniform_int(1, 8),
                            .jitter = rng.uniform_int(0, 40),
                            .blocking = rng.uniform_int(0, 4),
                            .cap = 3000};
    return e;
  };
  const auto expect_same = [](const SubtaskScratch& want, const SubtaskScratch& got,
                              Duration want_bound, Duration got_bound, const char* what,
                              int i) {
    EXPECT_EQ(got_bound, want_bound) << what << ", draw " << i;
    EXPECT_EQ(got.bound, want.bound) << what << ", draw " << i;
    EXPECT_EQ(got.busy, want.busy) << what << ", draw " << i;
    EXPECT_EQ(got.completions, want.completions) << what << ", draw " << i;
  };
  int cold_more = 0, cold_fewer = 0, warm_more = 0, warm_fewer = 0;
  Rng rng{20261020};
  for (int i = 0; i < 3000; ++i) {
    const Equation target = draw(rng);
    SubtaskScratch fresh;
    const Duration want = solve_response_bound(target.eq, target.hp(), &fresh, false);

    // Cold, over a scratch an unrelated equation filled.
    const Equation other = draw(rng);
    SubtaskScratch reused;
    (void)solve_response_bound(other.eq, other.hp(), &reused, false);
    cold_more += reused.completions.size() > fresh.completions.size() ? 1 : 0;
    cold_fewer += reused.completions.size() < fresh.completions.size() ? 1 : 0;
    const Duration cold = solve_response_bound(target.eq, target.hp(), &reused, false);
    expect_same(fresh, reused, want, cold, "cold reuse", i);

    // Warm, from the same equation with a smaller execution time and
    // blocking term: pointwise less demand under the same cap.
    Equation dominated = target;
    dominated.eq.exec = rng.uniform_int(1, target.eq.exec);
    dominated.eq.blocking = rng.uniform_int(0, target.eq.blocking);
    SubtaskScratch seeded;
    (void)solve_response_bound(dominated.eq, dominated.hp(), &seeded, false);
    warm_more += seeded.completions.size() > fresh.completions.size() ? 1 : 0;
    warm_fewer += seeded.completions.size() < fresh.completions.size() ? 1 : 0;
    const Duration warm = solve_response_bound(target.eq, target.hp(), &seeded, true);
    expect_same(fresh, seeded, want, warm, "warm reuse", i);
  }
  // Both directions of the size mismatch were exercised, both ways.
  EXPECT_GT(cold_more, 0);
  EXPECT_GT(cold_fewer, 0);
  EXPECT_GT(warm_more, 0);
  EXPECT_GT(warm_fewer, 0);
}

TEST(DemandKernel, SaDsMatchesGoldenHash) {
  std::uint64_t h = 0;
  for (int i = 0; i < kSystems; i += 4) {
    const TaskSystem system = system_for(i);
    const SaDsResult r = analyze_sa_ds(system, InterferenceMap{system}, {});
    h = hash_combine(fold_result(h, system, r.analysis), r.converged ? 1 : 0);
  }
  EXPECT_EQ(h, kSaDsGolden);
}

/// Algorithm SA/DS spelled out as Figure 11 reads: Jacobi IEERT passes
/// (ieert_pass without incremental state) from the optimistic init, each
/// followed by the failure cap, until the table stops changing. Uses the
/// pass options analyze_sa_ds derives from its defaults; nullopt when the
/// pass budget runs out first.
std::optional<SubtaskTable> jacobi_sa_ds(const TaskSystem& system,
                                         const InterferenceMap& interference) {
  const SaDsOptions defaults;
  SubtaskTable current{system, 0};
  Duration max_cutoff = 0;
  for (const Task& t : system.tasks()) {
    Duration cumulative = 0;
    for (const Subtask& s : t.subtasks) {
      cumulative += s.execution_time;
      current.set(s.ref, cumulative);
    }
    max_cutoff = std::max(
        max_cutoff, sat_scale(defaults.failure_period_multiplier, t.period));
  }
  const IeertOptions pass_options{
      .cap = sat_mul(max_cutoff, 2),
      .failure_period_multiplier = defaults.failure_period_multiplier};
  for (int pass = 0; pass < defaults.max_passes; ++pass) {
    SubtaskTable next = ieert_pass(system, interference, current, pass_options);
    for (const Task& t : system.tasks()) {
      const Duration cutoff = sat_scale(defaults.failure_period_multiplier, t.period);
      for (const Subtask& s : t.subtasks) {
        if (!is_infinite(next.at(s.ref)) && next.at(s.ref) > cutoff) {
          next.set(s.ref, kTimeInfinity);
        }
      }
    }
    if (next == current) return current;
    current = std::move(next);
  }
  return std::nullopt;
}

// The incremental Gauss-Seidel sweep analyze_sa_ds runs must land on the
// same least fixpoint as the paper-literal Jacobi iteration.
TEST(DemandKernel, SaDsIncrementalMatchesJacobiFixpoint) {
  for (int i = 0; i < kSystems; i += 4) {
    const TaskSystem system = system_for(i);
    const InterferenceMap interference{system};
    const std::optional<SubtaskTable> jacobi = jacobi_sa_ds(system, interference);
    const SaDsResult incremental = analyze_sa_ds(system, interference, {});
    ASSERT_TRUE(jacobi.has_value()) << "system " << i;
    ASSERT_TRUE(incremental.converged) << "system " << i;
    ASSERT_EQ(*jacobi, incremental.analysis.subtask_bounds) << "system " << i;
  }
}

TEST(DemandKernel, SaDsMonotoneWarmStartMatchesColdStart) {
  for (int i = 0; i < kSystems; i += 4) {
    const TaskSystem base = system_for(i);
    AnalysisScratch scratch;
    (void)analyze_sa_ds(base, InterferenceMap{base}, {}, &scratch);
    const TaskSystem scaled = scale_execution_times(base, 1.15);
    const InterferenceMap interference{scaled};
    const SaDsResult cold = analyze_sa_ds(scaled, interference, {});
    scratch.monotone = true;
    const SaDsResult warm = analyze_sa_ds(scaled, interference, {}, &scratch);
    expect_identical(scaled, cold.analysis, warm.analysis, "SA/DS warm start", i);
    // Starting above the optimistic init can only shorten the iteration.
    EXPECT_LE(warm.passes, cold.passes) << "system " << i;
  }
}

// Regression for the duplicated seed evaluation: solve_fixpoint used to
// call demand(1) twice before iterating. A constant demand now costs
// exactly two evaluations (the seed probe and the fixpoint check).
TEST(DemandKernel, SolveFixpointEvaluatesSeedOnce) {
  int calls = 0;
  const auto demand = [&calls](Time) {
    ++calls;
    return Duration{3};
  };
  const auto w = solve_fixpoint(demand, {.cap = 1000});
  ASSERT_TRUE(w.has_value());
  EXPECT_EQ(*w, 3);
  EXPECT_EQ(calls, 2);
}

}  // namespace
}  // namespace e2e
