#include "task/system.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
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

// A random task over `processors` processors. Periods come from a
// small co-prime-rich pool, or (`huge`) near 2^62 so an lcm saturates.
Task random_task(Rng& rng, std::size_t processors, bool huge) {
  Task t;
  t.period = huge ? (std::int64_t{1} << 62) - rng.uniform_int(1, 1000)
                  : rng.uniform_int(5, 400);
  t.phase = rng.uniform_int(0, 50);
  t.relative_deadline = rng.uniform_int(0, 1) == 0 ? 0 : t.period;
  t.release_jitter = rng.uniform_int(0, 3);
  t.name = "R" + std::to_string(rng.next_u64() % 100000);
  const auto chain = rng.uniform_int(1, 4);
  for (std::int64_t j = 0; j < chain; ++j) {
    Subtask s;
    s.processor = ProcessorId{static_cast<std::int32_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(processors) - 1))};
    s.execution_time = rng.uniform_int(1, 5);
    s.priority = Priority{static_cast<std::int32_t>(rng.uniform_int(0, 9))};
    s.preemptible = rng.uniform_int(0, 3) != 0;
    s.name = t.name + "," + std::to_string(j + 1);
    t.subtasks.push_back(std::move(s));
  }
  return t;
}

void expect_same_system(const TaskSystem& a, const TaskSystem& b) {
  EXPECT_EQ(a.aggregates(), b.aggregates());
  EXPECT_EQ(a.hyperperiod(), b.hyperperiod());
  EXPECT_EQ(a.max_period(), b.max_period());
  EXPECT_EQ(a.min_period(), b.min_period());
  EXPECT_EQ(a.max_phase(), b.max_phase());
  EXPECT_EQ(a.subtask_count(), b.subtask_count());
  ASSERT_EQ(a.task_count(), b.task_count());
  for (std::size_t i = 0; i < a.task_count(); ++i) {
    const Task& x = a.tasks()[i];
    const Task& y = b.tasks()[i];
    EXPECT_EQ(x.id, y.id);
    EXPECT_EQ(x.period, y.period);
    EXPECT_EQ(x.phase, y.phase);
    EXPECT_EQ(x.relative_deadline, y.relative_deadline);
    EXPECT_EQ(x.release_jitter, y.release_jitter);
    EXPECT_EQ(x.name, y.name);
    ASSERT_EQ(x.subtasks.size(), y.subtasks.size());
    for (std::size_t j = 0; j < x.subtasks.size(); ++j) {
      EXPECT_EQ(x.subtasks[j].ref, y.subtasks[j].ref);
      EXPECT_EQ(x.subtasks[j].processor, y.subtasks[j].processor);
      EXPECT_EQ(x.subtasks[j].execution_time, y.subtasks[j].execution_time);
      EXPECT_EQ(x.subtasks[j].priority, y.subtasks[j].priority);
      EXPECT_EQ(x.subtasks[j].preemptible, y.subtasks[j].preemptible);
      EXPECT_EQ(x.subtasks[j].name, y.subtasks[j].name);
    }
  }
  ASSERT_EQ(a.processor_count(), b.processor_count());
  for (std::size_t p = 0; p < a.processor_count(); ++p) {
    const ProcessorId id{static_cast<std::int32_t>(p)};
    const auto x = a.subtasks_on(id);
    const auto y = b.subtasks_on(id);
    EXPECT_EQ(std::vector<SubtaskRef>(x.begin(), x.end()),
              std::vector<SubtaskRef>(y.begin(), y.end()))
        << "processor " << p;
  }
}

// Appending tasks and popping them again restores the system exactly:
// tasks, every processor's resident list, the subtask count, and the
// aggregates -- including a hyperperiod that the appends saturated.
TEST(TaskSystem, PopLastTasksUndoesAppends) {
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    Rng rng{seed};
    const auto processors = static_cast<std::size_t>(rng.uniform_int(1, 5));
    const auto residents = rng.uniform_int(1, 12);
    TaskSystemBuilder builder{processors};
    for (std::int64_t i = 0; i < residents; ++i) {
      const Task t = random_task(rng, processors, seed % 7 == 0 && i == 0);
      auto handle = builder.add_task({.period = t.period,
                                      .phase = t.phase,
                                      .deadline = t.relative_deadline,
                                      .release_jitter = t.release_jitter,
                                      .name = t.name});
      for (const Subtask& s : t.subtasks) {
        handle.subtask(s.processor, s.execution_time, s.priority, s.name);
        if (!s.preemptible) handle.non_preemptible();
      }
    }
    const TaskSystem before = std::move(builder).build();
    TaskSystem system = before;
    const TaskSystem::Aggregates saved = system.aggregates();
    const auto appended = static_cast<std::size_t>(rng.uniform_int(1, 4));
    for (std::size_t k = 0; k < appended; ++k) {
      // Every third seed appends a huge period, saturating the lcm.
      system.append_task(random_task(rng, processors, seed % 3 == 0 && k == 0));
    }
    ASSERT_EQ(system.task_count(), before.task_count() + appended);
    if (seed % 3 == 0) {
      EXPECT_TRUE(is_infinite(system.hyperperiod())) << "seed " << seed;
    }
    system.pop_last_tasks(appended, saved);
    SCOPED_TRACE("seed " + std::to_string(seed));
    expect_same_system(system, before);
  }
}

/// A builder pass over `tasks`, in order: the reference a retired and
/// compacted system must equal.
TaskSystem build_from(std::size_t processors, const std::vector<Task>& tasks) {
  TaskSystemBuilder builder{processors};
  for (const Task& t : tasks) {
    auto handle = builder.add_task({.period = t.period,
                                    .phase = t.phase,
                                    .deadline = t.relative_deadline,
                                    .release_jitter = t.release_jitter,
                                    .name = t.name});
    for (const Subtask& s : t.subtasks) {
      handle.subtask(s.processor, s.execution_time, s.priority, s.name);
      if (!s.preemptible) handle.non_preemptible();
    }
  }
  return std::move(builder).build();
}

// Retiring tasks one by one keeps the aggregates and every resident list
// equal to a fresh build over the live tasks (holes aside, refs keep
// their numbering), appends land behind the holes, and compact() then
// yields exactly that fresh build -- including retirements of the tasks
// holding the largest and smallest period and the largest phase, and a
// live lcm that un-saturates.
TEST(TaskSystem, RetireAndCompactMatchAFreshBuild) {
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng{seed};
    const auto processors = static_cast<std::size_t>(rng.uniform_int(1, 5));
    std::vector<Task> live;
    const auto count = rng.uniform_int(2, 12);
    for (std::int64_t i = 0; i < count; ++i) {
      live.push_back(random_task(rng, processors, seed % 5 == 0 && i == 0));
      live.back().name = "T" + std::to_string(i);
      live.back().phase = rng.uniform_int(0, 3) == 0 ? rng.uniform_int(1, 50) : 0;
    }
    TaskSystem system = build_from(processors, live);
    std::vector<std::int32_t> ids;  // TaskId in `system` of each live task
    for (std::int64_t i = 0; i < count; ++i) ids.push_back(static_cast<std::int32_t>(i));
    while (live.size() > 1) {
      if (rng.uniform_int(0, 2) == 0) {
        Task t = random_task(rng, processors, false);
        t.name = "A" + std::to_string(system.task_count());
        ids.push_back(static_cast<std::int32_t>(system.task_count()));
        live.push_back(t);
        system.append_task(std::move(t));
      }
      const auto k = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
      system.retire_task(static_cast<std::size_t>(ids[k]));
      EXPECT_TRUE(system.retired(TaskId{ids[k]}));
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(k));
      ids.erase(ids.begin() + static_cast<std::ptrdiff_t>(k));
      const TaskSystem fresh = build_from(processors, live);
      EXPECT_EQ(system.aggregates(), fresh.aggregates());
      EXPECT_EQ(system.task_count() - system.retired_count(), live.size());
      for (std::size_t p = 0; p < processors; ++p) {
        const ProcessorId proc{static_cast<std::int32_t>(p)};
        const auto got = system.subtasks_on(proc);
        const auto want = fresh.subtasks_on(proc);
        ASSERT_EQ(got.size(), want.size()) << "processor " << p;
        for (std::size_t r = 0; r < got.size(); ++r) {
          EXPECT_EQ(got[r].task.value(), ids[want[r].task.index()]) << "processor " << p;
          EXPECT_EQ(got[r].index, want[r].index) << "processor " << p;
        }
      }
      if (rng.uniform_int(0, 3) == 0) {
        system.compact();
        expect_same_system(system, fresh);
        for (std::size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<std::int32_t>(i);
      }
      if (::testing::Test::HasFailure()) return;
    }
    system.compact();
    expect_same_system(system, build_from(processors, live));
  }
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
