#include "task/system.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/error.h"
#include "task/builder.h"
#include "task/paper_examples.h"

namespace e2e {
namespace {

TaskSystem two_processor_system() {
  TaskSystemBuilder b{2};
  b.add_task({.period = 4, .name = "A"}).subtask(ProcessorId{0}, 2, Priority{0});
  b.add_task({.period = 6, .name = "B"})
      .subtask(ProcessorId{0}, 2, Priority{1})
      .subtask(ProcessorId{1}, 3, Priority{0});
  return std::move(b).build();
}

TEST(TaskSystem, SubtasksOnGroupsByProcessor) {
  const TaskSystem sys = two_processor_system();
  EXPECT_EQ(sys.subtasks_on(ProcessorId{0}).size(), 2u);
  EXPECT_EQ(sys.subtasks_on(ProcessorId{1}).size(), 1u);
}

TEST(TaskSystem, ProcessorUtilization) {
  const TaskSystem sys = two_processor_system();
  // P0: 2/4 + 2/6 = 5/6; P1: 3/6 = 1/2.
  EXPECT_NEAR(sys.processor_utilization(ProcessorId{0}), 5.0 / 6.0, 1e-12);
  EXPECT_NEAR(sys.processor_utilization(ProcessorId{1}), 0.5, 1e-12);
  EXPECT_NEAR(sys.max_processor_utilization(), 5.0 / 6.0, 1e-12);
}

TEST(TaskSystem, Hyperperiod) {
  const TaskSystem sys = two_processor_system();
  EXPECT_EQ(sys.hyperperiod(), 12);
}

TEST(TaskSystem, PeriodExtremes) {
  const TaskSystem sys = two_processor_system();
  EXPECT_EQ(sys.max_period(), 6);
  EXPECT_EQ(sys.min_period(), 4);
  // The default simulation horizon is 30 max periods: 30 x 6 for Example 2.
  EXPECT_EQ(paper::example2().default_horizon(), 180);
}

TEST(TaskSystem, ContainsChecksBothDimensions) {
  const TaskSystem sys = two_processor_system();
  EXPECT_TRUE(sys.contains(SubtaskRef{TaskId{1}, 1}));
  EXPECT_FALSE(sys.contains(SubtaskRef{TaskId{1}, 2}));
  EXPECT_FALSE(sys.contains(SubtaskRef{TaskId{2}, 0}));
  EXPECT_FALSE(sys.contains(SubtaskRef{TaskId{0}, -1}));
}

TEST(TaskSystem, TotalExecutionTime) {
  const TaskSystem sys = two_processor_system();
  EXPECT_EQ(sys.task(TaskId{1}).total_execution_time(), 5);
}

TEST(TaskSystem, SetPhasesUpdatesTasksAndMaxPhase) {
  TaskSystem sys = two_processor_system();
  EXPECT_EQ(sys.max_phase(), 0);
  sys.set_phases(std::vector<Time>{3, 5});
  EXPECT_EQ(sys.task(TaskId{0}).phase, 3);
  EXPECT_EQ(sys.task(TaskId{1}).phase, 5);
  EXPECT_EQ(sys.max_phase(), 5);
  // Re-phasing downward shrinks max_phase (recomputed, not maxed in).
  sys.set_phases(std::vector<Time>{1, 0});
  EXPECT_EQ(sys.max_phase(), 1);
}

TEST(TaskSystem, SetPhasesRejectsNegativePhases) {
  TaskSystem sys = two_processor_system();
  EXPECT_THROW(sys.set_phases(std::vector<Time>{0, -1}), InvalidArgument);
}

TEST(PaperExample2, MatchesFigure2Parameters) {
  const TaskSystem sys = paper::example2();
  ASSERT_EQ(sys.task_count(), 3u);
  ASSERT_EQ(sys.processor_count(), 2u);

  const Task& t1 = sys.task(TaskId{0});
  EXPECT_EQ(t1.period, 4);
  EXPECT_EQ(t1.phase, 0);
  EXPECT_EQ(t1.subtasks[0].execution_time, 2);

  const Task& t2 = sys.task(TaskId{1});
  EXPECT_EQ(t2.period, 6);
  ASSERT_EQ(t2.chain_length(), 2u);
  EXPECT_EQ(t2.subtasks[0].execution_time, 2);
  EXPECT_EQ(t2.subtasks[1].execution_time, 3);

  const Task& t3 = sys.task(TaskId{2});
  EXPECT_EQ(t3.phase, 4);
  EXPECT_EQ(t3.period, 6);

  // Priorities: T1 above T2,1 on P1; T2,2 above T3 on P2.
  EXPECT_TRUE(higher_priority(t1.subtasks[0].priority, t2.subtasks[0].priority));
  EXPECT_TRUE(higher_priority(t2.subtasks[1].priority, t3.subtasks[0].priority));
}

TEST(PaperExample1, ChainCrossesThreeProcessors) {
  const TaskSystem sys = paper::example1_monitor();
  ASSERT_EQ(sys.task_count(), 1u);
  const Task& monitor = sys.task(TaskId{0});
  ASSERT_EQ(monitor.chain_length(), 3u);
  EXPECT_NE(monitor.subtasks[0].processor, monitor.subtasks[1].processor);
  EXPECT_NE(monitor.subtasks[1].processor, monitor.subtasks[2].processor);
  EXPECT_EQ(monitor.subtasks[0].name, "sample");
  EXPECT_EQ(monitor.subtasks[2].name, "display");
}

TEST(PaperExample1, InterferenceVariantKeepsProcessorsBusy) {
  const TaskSystem sys = paper::example1_monitor_with_interference();
  EXPECT_EQ(sys.task_count(), 4u);
  for (std::size_t p = 0; p < sys.processor_count(); ++p) {
    EXPECT_GE(sys.subtasks_on(ProcessorId{static_cast<std::int32_t>(p)}).size(), 2u);
  }
}

}  // namespace
}  // namespace e2e
