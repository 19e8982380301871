// Behavior under injected faults: each fault dimension provokes exactly
// the protocol reaction the robustness experiments measure -- lost
// signals force MPM-R retransmissions, skewed clocks make PM release
// ahead of its predecessors, and the precedence policies react as
// documented (record counts, defer holds, abort throws).
#include <gtest/gtest.h>

#include "core/analysis/sa_pm.h"
#include "core/protocols/factory.h"
#include "core/protocols/mpm_retransmit.h"
#include "core/protocols/phase_modification.h"
#include "sim/engine.h"
#include "sim/fault/fault_injector.h"
#include "sim/fault/fault_plan.h"
#include "task/paper_examples.h"

namespace e2e {
namespace {

// Seed chosen so the draw puts Example 2's second processor's clock
// ahead of the first's; its timeline is in single-digit ticks, so a
// small offset bound is already disruptive (PM releases T2,2 before
// T2,1 completes).
constexpr FaultPlan kSkewPlan{.seed = 4, .clock_offset_max = 3};

TEST(FaultInjection, SignalLossForcesMpmRetransmit) {
  const TaskSystem sys = paper::example2();
  MpmRetransmitProtocol mpmr{sys, analyze_sa_pm(sys).subtask_bounds};
  FaultInjector faults{sys, FaultPlan{.seed = 3, .signal_loss_prob = 0.5}};
  Engine engine{sys, mpmr, {.horizon = 600, .faults = &faults}};
  engine.run();

  EXPECT_GT(engine.stats().dropped_signals, 0);
  EXPECT_GT(mpmr.retransmits(), 0);
  // The retransmission recovers every lost release: completion-gated
  // signalling can never release ahead of a predecessor.
  EXPECT_EQ(engine.stats().precedence_violations, 0);
  EXPECT_GT(engine.stats().jobs_completed, 0);
}

TEST(FaultInjection, ClockSkewMakesPmViolatePrecedence) {
  const TaskSystem sys = paper::example2();
  PhaseModificationProtocol pm{sys, analyze_sa_pm(sys).subtask_bounds};
  FaultInjector faults{sys, kSkewPlan};
  Engine engine{sys, pm, {.horizon = 600, .faults = &faults}};
  engine.run();
  // PM trusts its precomputed phases; a skewed local clock fires them
  // before the cross-processor predecessor finished.
  EXPECT_GT(engine.stats().precedence_violations, 0);
}

TEST(FaultInjection, DeferReleasePolicyNeverViolates) {
  const TaskSystem sys = paper::example2();
  PhaseModificationProtocol pm{sys, analyze_sa_pm(sys).subtask_bounds};
  FaultInjector faults{sys, kSkewPlan};
  Engine engine{sys, pm,
                {.horizon = 600,
                 .faults = &faults,
                 .precedence_policy = PrecedencePolicy::kDeferRelease}};
  engine.run();
  // The same faulted run, but violating releases are held until their
  // predecessor completes: violations trade into deferred releases.
  EXPECT_EQ(engine.stats().precedence_violations, 0);
  EXPECT_GT(engine.stats().deferred_releases, 0);
}

TEST(FaultInjection, AbortPolicyThrows) {
  const TaskSystem sys = paper::example2();
  PhaseModificationProtocol pm{sys, analyze_sa_pm(sys).subtask_bounds};
  FaultInjector faults{sys, kSkewPlan};
  Engine engine{sys, pm,
                {.horizon = 600,
                 .faults = &faults,
                 .precedence_policy = PrecedencePolicy::kAbort}};
  EXPECT_THROW(engine.run(), PrecedenceViolationError);
}

std::uint64_t faulted_rg_hash(std::uint64_t seed) {
  const TaskSystem sys = paper::example2();
  const auto protocol = make_protocol(ProtocolKind::kReleaseGuard, sys);
  FaultInjector faults{sys,
                       FaultPlan{.seed = seed,
                                 .clock_offset_max = 2,
                                 .drift_ppm_max = 1000,
                                 .signal_loss_prob = 0.2,
                                 .signal_delay_max = 4,
                                 .signal_duplicate_prob = 0.2,
                                 .timer_jitter_max = 2}};
  Engine engine{sys, *protocol, {.horizon = 600, .faults = &faults}};
  engine.run();
  return engine.schedule_hash();
}

TEST(FaultInjection, DrawsAreReproducibleFromTheSeed) {
  EXPECT_EQ(faulted_rg_hash(21), faulted_rg_hash(21));
  EXPECT_NE(faulted_rg_hash(21), faulted_rg_hash(22));
}

}  // namespace
}  // namespace e2e
