// Property tests for the analysis fast path: across 200 generated
// systems (N cycling 2..6, U cycling 50..80%), the inlined
// structure-of-arrays demand kernels and signature-exact scratch reuse
// must reproduce the committed result hashes -- exact Time equality,
// bound for bound and verdict for verdict. The hashes were captured from
// the std::function cold-start path these kernels replaced, which
// produced them bit for bit before it was retired. A third hash pins the
// SA/DS iteration's trajectory (sweeps, entry solves, convergence).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/hash.h"
#include "common/math.h"
#include "common/rng.h"
#include "core/analysis/demand.h"
#include "core/analysis/fixpoint.h"
#include "core/analysis/holistic.h"
#include "core/analysis/ieert.h"
#include "core/analysis/kernels.h"
#include "core/analysis/sa_ds.h"
#include "core/analysis/sa_pm.h"
#include "workload/generator.h"

namespace e2e {
namespace {

constexpr int kSystems = 200;

/// analyze_sa_pm folded over all kSystems systems, and analyze_sa_ds
/// (plus its convergence flag) over every fourth one; see fold_result.
constexpr std::uint64_t kSaPmGolden = 0x0b990921cd21be55;
constexpr std::uint64_t kSaDsGolden = 0x0bd83249db40c40c;
/// SaDsResult::passes, evaluations and converged of analyze_sa_ds and
/// analyze_holistic_ds over the kSaDsGolden systems, in that order.
constexpr std::uint64_t kSaDsTrajectoryGolden = 0x123e3dd71607be60;

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

/// The least t >= start with W(t) <= t, by plain iteration from `start`
/// (<= the least fixpoint), or nullopt once the iterate passes `cap`.
template <typename Demand>
std::optional<Time> reference_fixpoint(Time start, const Demand& demand, Time cap) {
  for (Time t = start;; t = demand(t)) {
    if (t > cap) return std::nullopt;
    if (demand(t) <= t) return t;
  }
}

/// How far a reference solve's instance loop went: M, and whether it got
/// to m = M before the prune stopped it.
struct Reach {
  std::int64_t instances = 0;
  bool last = false;
};

/// SA/PM steps 1-4 as the paper states them: D from t = 1, then every
/// C(m) solved from m * exec -- no warm seed and no last-instance
/// shortcut. Fills `sc` as a cold solve_response_bound does.
Duration reference_response_bound(const ResponseEquation& eq, const HpView& hp,
                                  SubtaskScratch& sc, Reach& reach) {
  reach = {};
  const DemandEvaluator busy_eval{.periods = hp.periods,
                                  .execs = hp.execs,
                                  .jitters = hp.jitters,
                                  .constant = eq.blocking,
                                  .self_period = eq.period,
                                  .self_exec = eq.exec,
                                  .self_jitter = eq.jitter};
  const std::optional<Time> busy = reference_fixpoint(1, busy_eval, eq.cap);
  sc = SubtaskScratch{.has = true, .busy = 0, .bound = kTimeInfinity};
  if (!busy) return kTimeInfinity;
  sc.busy = *busy;
  const std::int64_t instances = ceil_div(*busy + eq.jitter, eq.period);
  reach.instances = instances;
  Duration worst = 0;
  for (std::int64_t m = 1; m <= instances; ++m) {
    const DemandEvaluator completion_eval{.periods = hp.periods,
                                         .execs = hp.execs,
                                         .jitters = hp.jitters,
                                         .constant = eq.blocking + m * eq.exec};
    const std::optional<Time> c = reference_fixpoint(m * eq.exec, completion_eval, eq.cap);
    EXPECT_TRUE(c.has_value()) << "C(m) <= D <= cap";
    sc.completions.push_back(*c);
    worst = std::max(worst, *c + eq.jitter - (m - 1) * eq.period);
    reach.last = m == instances;
    if (*busy + eq.jitter - m * eq.period <= worst) break;
  }
  sc.bound = worst;
  return worst;
}

/// IEERT steps 1-4 likewise, with solve_ieer_bound's warm-entry
/// bookkeeping: `warm` (optional) gets the new D and the solved C(m) over
/// its old seeds, resized to M.
Duration reference_ieer_bound(const IeerEquation& eq, const HpView& hp,
                              IeertWarmEntry* warm, Reach& reach) {
  reach = {};
  if (eq.own_accum > eq.cutoff) return kTimeInfinity;
  const DemandEvaluator busy_eval{.periods = hp.periods,
                                  .execs = hp.execs,
                                  .jitters = hp.jitters,
                                  .constant = eq.blocking,
                                  .self_period = eq.period,
                                  .self_exec = eq.exec,
                                  .self_jitter = eq.own_jitter};
  const std::optional<Time> busy = reference_fixpoint(1, busy_eval, eq.cap);
  if (!busy) return kTimeInfinity;
  const std::int64_t instances = ceil_div(*busy + eq.own_jitter, eq.period);
  reach.instances = instances;
  if (warm != nullptr) {
    warm->busy = *busy;
    warm->completions.resize(static_cast<std::size_t>(instances), 0);
  }
  Duration worst = 0;
  for (std::int64_t m = 1; m <= instances; ++m) {
    const DemandEvaluator completion_eval{.periods = hp.periods,
                                         .execs = hp.execs,
                                         .jitters = hp.jitters,
                                         .constant = eq.blocking + m * eq.exec};
    const std::optional<Time> c = reference_fixpoint(m * eq.exec, completion_eval, eq.cap);
    EXPECT_TRUE(c.has_value()) << "C(m) <= D <= cap";
    if (warm != nullptr) warm->completions[static_cast<std::size_t>(m - 1)] = *c;
    worst = std::max(worst, *c + eq.own_accum - (m - 1) * eq.period);
    reach.last = m == instances;
    if (worst > eq.cutoff) return kTimeInfinity;
    if (*busy + eq.own_accum - m * eq.period <= worst) break;
  }
  return worst;
}

// Both kernels take C(M) to be the busy period D instead of solving it.
// Against the reference above, over equations whose jitter and blocking
// make most busy periods span several instances, with caps and cutoffs
// that bind, the bound and every stored fixpoint must be the same, cold
// and warm (seeded from a pointwise-dominated equation).
//
// The loop gets to m = M only when M == 1. The prune lets it reach M
// only if R(M) > R(1), i.e. C(1) < D - (M-1)p; and D - (M-1)p <= p - J
// (J the jitter in M = ceil((D + J)/p)). So C(1) + J < p, which makes
// C(1) a busy-period fixpoint: D == C(1) and M == 1 (docs/analysis.md).
// The multi-instance draws run the instances before M, which a shortcut
// taken too early would break.
TEST(DemandKernel, LastInstanceCompletionIsTheBusyPeriod) {
  struct Equation {
    std::vector<Duration> periods, execs, jitters;
    Duration period = 0, exec = 0, jitter = 0, blocking = 0, accum = 0, cutoff = 0;
    Time cap = 0;
    [[nodiscard]] HpView hp() const { return HpView{periods, execs, jitters}; }
    [[nodiscard]] ResponseEquation pm() const {
      return {.period = period, .exec = exec, .jitter = jitter, .blocking = blocking,
              .cap = cap};
    }
    [[nodiscard]] IeerEquation ieer() const {
      return {.period = period, .exec = exec, .own_jitter = jitter, .own_accum = accum,
              .blocking = blocking, .cutoff = cutoff, .cap = cap};
    }
  };
  const auto draw = [](Rng& rng) {
    Equation e;
    const auto interferers = rng.uniform_int(0, 4);
    for (std::int64_t k = 0; k < interferers; ++k) {
      e.periods.push_back(rng.uniform_int(8, 120));
      e.execs.push_back(rng.uniform_int(1, 8));
      e.jitters.push_back(rng.uniform_int(0, 60));
    }
    e.period = rng.uniform_int(6, 60);
    e.exec = rng.uniform_int(1, std::max<Duration>(1, e.period / 2));
    e.jitter = rng.uniform_int(0, e.period);
    e.blocking = rng.uniform_int(0, 30);
    e.accum = e.exec + rng.uniform_int(0, 60);
    e.cutoff = rng.uniform_int(0, 2) == 0 ? rng.uniform_int(e.period, 6 * e.period)
                                          : kTimeInfinity;
    e.cap = rng.uniform_int(0, 3) == 0 ? rng.uniform_int(20, 200) : 5000;
    return e;
  };
  // Same cap and period; no more exec, blocking or jitter anywhere, so
  // its D and every C(m) are <= the target's.
  const auto dominated = [](Rng& rng, Equation e) {
    e.exec = rng.uniform_int(1, e.exec);
    e.blocking = rng.uniform_int(0, e.blocking);
    e.jitter = rng.uniform_int(0, e.jitter);
    for (Duration& j : e.jitters) j = rng.uniform_int(0, j);
    return e;
  };
  struct Counts {
    int single = 0;      // M == 1: C(1) is D
    int multi = 0;       // M >= 2
    int multi_last = 0;  // M >= 2 and the loop got to m = M
    int infinite = 0;    // a cap or cutoff bound
    void add(const Reach& r, Duration bound) {
      single += r.instances == 1 && r.last ? 1 : 0;
      multi += r.instances >= 2 ? 1 : 0;
      multi_last += r.instances >= 2 && r.last ? 1 : 0;
      infinite += is_infinite(bound) ? 1 : 0;
    }
  };
  Counts pm, ieer;
  Rng rng{20261021};
  for (int i = 0; i < 4000; ++i) {
    const Equation target = draw(rng);
    const Equation below = dominated(rng, target);
    Reach reach;

    // SA/PM, cold and warm.
    SubtaskScratch want_sc;
    const Duration want_pm =
        reference_response_bound(target.pm(), target.hp(), want_sc, reach);
    pm.add(reach, want_pm);
    SubtaskScratch cold;
    EXPECT_EQ(solve_response_bound(target.pm(), target.hp(), &cold, false), want_pm)
        << "SA/PM cold, draw " << i;
    SubtaskScratch seeded;
    (void)solve_response_bound(below.pm(), below.hp(), &seeded, false);
    EXPECT_EQ(solve_response_bound(target.pm(), target.hp(), &seeded, true), want_pm)
        << "SA/PM warm, draw " << i;
    for (const SubtaskScratch* got : {&cold, &seeded}) {
      EXPECT_EQ(got->has, want_sc.has) << "draw " << i;
      EXPECT_EQ(got->busy, want_sc.busy) << "draw " << i;
      EXPECT_EQ(got->bound, want_sc.bound) << "draw " << i;
      EXPECT_EQ(got->completions, want_sc.completions) << "draw " << i;
    }

    // IEERT: no entry, a fresh entry, and one seeded by the dominated
    // equation (whose stale seeds past a break or cutoff must survive).
    IeertWarmEntry want_fresh;
    const Duration want_ieer =
        reference_ieer_bound(target.ieer(), target.hp(), &want_fresh, reach);
    ieer.add(reach, want_ieer);
    EXPECT_EQ(solve_ieer_bound(target.ieer(), target.hp(), nullptr), want_ieer)
        << "IEERT without entry, draw " << i;
    IeertWarmEntry fresh;
    EXPECT_EQ(solve_ieer_bound(target.ieer(), target.hp(), &fresh), want_ieer)
        << "IEERT fresh entry, draw " << i;
    EXPECT_EQ(fresh.busy, want_fresh.busy) << "draw " << i;
    EXPECT_EQ(fresh.completions, want_fresh.completions) << "draw " << i;
    IeertWarmEntry warm;
    (void)solve_ieer_bound(below.ieer(), below.hp(), &warm);
    IeertWarmEntry want_warm = warm;
    (void)reference_ieer_bound(target.ieer(), target.hp(), &want_warm, reach);
    EXPECT_EQ(solve_ieer_bound(target.ieer(), target.hp(), &warm), want_ieer)
        << "IEERT warm, draw " << i;
    EXPECT_EQ(warm.busy, want_warm.busy) << "draw " << i;
    EXPECT_EQ(warm.completions, want_warm.completions) << "draw " << i;
  }
  for (const Counts* c : {&pm, &ieer}) {
    EXPECT_GT(c->single, 100);
    EXPECT_GT(c->multi, 100);
    EXPECT_EQ(c->multi_last, 0);
    EXPECT_GT(c->infinite, 100);
  }
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

// The bounds alone cannot see a loop rewrite that changes how many sweeps
// or entry solves the iteration takes to reach the same fixpoint.
TEST(DemandKernel, SaDsTrajectoryMatchesGoldenHash) {
  std::uint64_t h = 0;
  for (int i = 0; i < kSystems; i += 4) {
    const TaskSystem system = system_for(i);
    const InterferenceMap interference{system};
    for (const SaDsResult& r : {analyze_sa_ds(system, interference),
                                analyze_holistic_ds(system, interference)}) {
      h = hash_combine(h, static_cast<std::uint64_t>(r.passes));
      h = hash_combine(h, r.evaluations);
      h = hash_combine(h, r.converged ? 1 : 0);
    }
  }
  EXPECT_EQ(h, kSaDsTrajectoryGolden);
}

/// Algorithm SA/DS spelled out as Figure 11 reads: Jacobi IEERT passes
/// (ieert_pass) from the optimistic init, each followed by the failure
/// cap, until the table stops changing. Derives the cap from the
/// per-task cutoffs as the paper states it; nullopt when the pass budget
/// runs out first.
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
  for (int pass = 0; pass < kSaDsMaxPasses; ++pass) {
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

// The in-place Gauss-Seidel loop analyze_sa_ds runs (sa_ds_iterate) must
// land on the same least fixpoint as the paper-literal Jacobi iteration.
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
