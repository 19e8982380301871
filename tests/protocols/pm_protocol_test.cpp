#include "core/protocols/phase_modification.h"

#include <gtest/gtest.h>

#include "common/error.h"
#include "core/analysis/sa_pm.h"
#include "core/protocols/modified_pm.h"
#include "metrics/eer_collector.h"
#include "report/gantt.h"
#include "sim/arrival.h"
#include "sim/engine.h"
#include "task/builder.h"
#include "task/paper_examples.h"

namespace e2e {
namespace {

TEST(PhaseModification, PhasesAreCumulativeResponseBounds) {
  const TaskSystem sys = paper::example2();
  const AnalysisResult bounds = analyze_sa_pm(sys);
  PhaseModificationProtocol pm{sys, bounds.subtask_bounds};
  // f(T2,1) = f(T2) = 0; f(T2,2) = 0 + R(T2,1) = 4 (paper Figure 5).
  EXPECT_EQ(pm.phase_of(SubtaskRef{TaskId{1}, 0}), 0);
  EXPECT_EQ(pm.phase_of(SubtaskRef{TaskId{1}, 1}), 4);
}

TEST(PhaseModification, SubtasksReleasedStrictlyPeriodically) {
  const TaskSystem sys = paper::example2();
  const AnalysisResult bounds = analyze_sa_pm(sys);
  PhaseModificationProtocol pm{sys, bounds.subtask_bounds};
  GanttRecorder gantt{sys, 30};
  Engine engine{sys, pm, {.horizon = 30}};
  engine.add_sink(&gantt);
  engine.run();
  // T2,2 released at 4, 10, 16, 22, 28 (Figure 5: strictly periodic).
  const std::vector<Time> expected = {4, 10, 16, 22, 28};
  EXPECT_EQ(gantt.releases(SubtaskRef{TaskId{1}, 1}), expected);
}

TEST(PhaseModification, T3MeetsDeadlineAsInFigure5) {
  const TaskSystem sys = paper::example2();
  const AnalysisResult bounds = analyze_sa_pm(sys);
  PhaseModificationProtocol pm{sys, bounds.subtask_bounds};
  EerCollector eer{sys};
  Engine engine{sys, pm, {.horizon = 60}};
  engine.add_sink(&eer);
  engine.run();
  EXPECT_LE(eer.worst_eer(TaskId{2}), 6);
}

TEST(PhaseModification, NoPrecedenceViolationsUnderPeriodicArrivals) {
  const TaskSystem sys = paper::example1_monitor_with_interference();
  const AnalysisResult bounds = analyze_sa_pm(sys);
  PhaseModificationProtocol pm{sys, bounds.subtask_bounds};
  Engine engine{sys, pm, {.horizon = 2000}};
  engine.run();
  EXPECT_EQ(engine.stats().precedence_violations, 0);
}

TEST(PhaseModification, ViolatesPrecedenceUnderSporadicArrivals) {
  // Paper Section 3.1: "if the inter-release time of the first subtask is
  // greater than the period ... the protocol does not work correctly".
  const TaskSystem sys = paper::example1_monitor_with_interference();
  const AnalysisResult bounds = analyze_sa_pm(sys);
  PhaseModificationProtocol pm{sys, bounds.subtask_bounds};
  SporadicArrivals arrivals{Rng{7}, sys.min_period()};
  Engine engine{sys, pm, {.horizon = 5000, .arrivals = &arrivals}};
  engine.run();
  EXPECT_GT(engine.stats().precedence_violations, 0);
}

TEST(PhaseModification, RejectsInfiniteBounds) {
  const TaskSystem sys = paper::example2();
  SubtaskTable bad{sys, kTimeInfinity};
  EXPECT_THROW((PhaseModificationProtocol{sys, bad}), InvalidArgument);
}

TEST(PhaseModification, InfiniteBoundOnLastSubtaskIsFine) {
  // Only *non-last* subtasks need finite bounds (phases never use the
  // last bound).
  const TaskSystem sys = paper::example2();
  const AnalysisResult bounds = analyze_sa_pm(sys);
  SubtaskTable table = bounds.subtask_bounds;
  table.set(SubtaskRef{TaskId{1}, 1}, kTimeInfinity);
  table.set(SubtaskRef{TaskId{2}, 0}, kTimeInfinity);
  EXPECT_NO_THROW((PhaseModificationProtocol{sys, table}));
}

TEST(ModifiedPm, IdenticalScheduleToPmUnderIdealConditions) {
  // Paper Section 3.1: "under the ideal conditions ... the PM protocol and
  // the MPM protocol produce identical schedules".
  const TaskSystem sys = paper::example1_monitor_with_interference();
  const AnalysisResult bounds = analyze_sa_pm(sys);

  PhaseModificationProtocol pm{sys, bounds.subtask_bounds};
  Engine pm_engine{sys, pm, {.horizon = 3000}};
  pm_engine.run();
  ModifiedPmProtocol mpm{sys, bounds.subtask_bounds};
  Engine mpm_engine{sys, mpm, {.horizon = 3000}};
  mpm_engine.run();
  EXPECT_EQ(pm_engine.schedule_hash(), mpm_engine.schedule_hash());
}

TEST(ModifiedPm, NoViolationsUnderSporadicArrivals) {
  // MPM's raison d'etre: correct even without strictly periodic firsts.
  const TaskSystem sys = paper::example1_monitor_with_interference();
  const AnalysisResult bounds = analyze_sa_pm(sys);
  ModifiedPmProtocol mpm{sys, bounds.subtask_bounds};
  SporadicArrivals arrivals{Rng{7}, sys.min_period()};
  Engine engine{sys, mpm, {.horizon = 5000, .arrivals = &arrivals}};
  engine.run();
  EXPECT_EQ(engine.stats().precedence_violations, 0);
  EXPECT_EQ(mpm.overruns(), 0);
}

TEST(ModifiedPm, TwoInterruptsPerInstance) {
  const ProtocolTraits t = ModifiedPmProtocol::traits();
  EXPECT_EQ(t.interrupts_per_instance, 2);
  EXPECT_TRUE(t.needs_timer_interrupt_support);
  EXPECT_TRUE(t.needs_sync_interrupt_support);
  EXPECT_FALSE(t.needs_global_clock);
}

TEST(PhaseModification, RequiresGlobalClockTrait) {
  EXPECT_TRUE(PhaseModificationProtocol::traits().needs_global_clock);
  EXPECT_TRUE(PhaseModificationProtocol::traits().needs_global_load_info);
}

}  // namespace
}  // namespace e2e
