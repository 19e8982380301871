#include "core/analysis/interference.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <vector>

#include "common/rng.h"
#include "core/analysis/blocking.h"
#include "task/builder.h"
#include "task/paper_examples.h"

namespace e2e {
namespace {

TEST(Interference, Example2Sets) {
  const TaskSystem sys = paper::example2();
  const InterferenceMap map{sys};

  // T1 is highest on P1: no interference.
  EXPECT_TRUE(map.of(SubtaskRef{TaskId{0}, 0}).empty());
  // T2,1 is interfered by T1.
  const auto t21 = map.of(SubtaskRef{TaskId{1}, 0});
  ASSERT_EQ(t21.size(), 1u);
  EXPECT_EQ(t21[0].ref, (SubtaskRef{TaskId{0}, 0}));
  EXPECT_EQ(t21[0].period, 4);
  EXPECT_EQ(t21[0].execution_time, 2);
  EXPECT_EQ(t21[0].predecessor_index, -1);
  // T2,2 is highest on P2.
  EXPECT_TRUE(map.of(SubtaskRef{TaskId{1}, 1}).empty());
  // T3 is interfered by T2,2, whose predecessor is T2,1 (index 0).
  const auto t3 = map.of(SubtaskRef{TaskId{2}, 0});
  ASSERT_EQ(t3.size(), 1u);
  EXPECT_EQ(t3[0].ref, (SubtaskRef{TaskId{1}, 1}));
  EXPECT_EQ(t3[0].predecessor_index, 0);
}

TEST(Interference, EqualPriorityCountsBothWays) {
  TaskSystemBuilder b{1};
  b.add_task({.period = 10}).subtask(ProcessorId{0}, 2, Priority{3});
  b.add_task({.period = 12}).subtask(ProcessorId{0}, 3, Priority{3});
  const TaskSystem sys = std::move(b).build();
  const InterferenceMap map{sys};
  // The paper's H set uses "priority higher than or equal to": two
  // equal-priority subtasks interfere with each other.
  EXPECT_EQ(map.of(SubtaskRef{TaskId{0}, 0}).size(), 1u);
  EXPECT_EQ(map.of(SubtaskRef{TaskId{1}, 0}).size(), 1u);
}

TEST(Interference, SelfIsExcluded) {
  TaskSystemBuilder b{1};
  b.add_task({.period = 10}).subtask(ProcessorId{0}, 2, Priority{0});
  const TaskSystem sys = std::move(b).build();
  const InterferenceMap map{sys};
  EXPECT_TRUE(map.of(SubtaskRef{TaskId{0}, 0}).empty());
}

TEST(Interference, OtherProcessorsDoNotInterfere) {
  TaskSystemBuilder b{2};
  b.add_task({.period = 10}).subtask(ProcessorId{0}, 2, Priority{0});
  b.add_task({.period = 10}).subtask(ProcessorId{1}, 2, Priority{0});
  const TaskSystem sys = std::move(b).build();
  const InterferenceMap map{sys};
  EXPECT_TRUE(map.of(SubtaskRef{TaskId{0}, 0}).empty());
  EXPECT_TRUE(map.of(SubtaskRef{TaskId{1}, 0}).empty());
}

TEST(Interference, LowerPriorityDoesNotInterfere) {
  TaskSystemBuilder b{1};
  b.add_task({.period = 10}).subtask(ProcessorId{0}, 2, Priority{0});
  b.add_task({.period = 12}).subtask(ProcessorId{0}, 3, Priority{1});
  const TaskSystem sys = std::move(b).build();
  const InterferenceMap map{sys};
  EXPECT_TRUE(map.of(SubtaskRef{TaskId{0}, 0}).empty());
  EXPECT_EQ(map.of(SubtaskRef{TaskId{1}, 0}).size(), 1u);
}

TEST(Interference, SameTaskSiblingsOnOneProcessorInterfere) {
  // Non-consecutive siblings may share a processor; the analyses treat
  // them as independent periodic interferers.
  TaskSystemBuilder b{2};
  b.add_task({.period = 10})
      .subtask(ProcessorId{0}, 1, Priority{0})
      .subtask(ProcessorId{1}, 1, Priority{0})
      .subtask(ProcessorId{0}, 2, Priority{1});
  const TaskSystem sys = std::move(b).build();
  const InterferenceMap map{sys};
  const auto third = map.of(SubtaskRef{TaskId{0}, 2});
  ASSERT_EQ(third.size(), 1u);
  EXPECT_EQ(third[0].ref, (SubtaskRef{TaskId{0}, 0}));
}

TEST(Interference, StoresTheBlockingTerm) {
  TaskSystemBuilder b{1};
  b.add_task({.period = 10}).subtask(ProcessorId{0}, 2, Priority{0});
  b.add_task({.period = 20}).subtask(ProcessorId{0}, 5, Priority{1}).non_preemptible();
  b.add_task({.period = 30}).subtask(ProcessorId{0}, 3, Priority{2}).non_preemptible();
  const TaskSystem sys = std::move(b).build();
  const InterferenceMap map{sys};
  // Strictly lower-priority non-preemptible subtasks block for e - 1.
  EXPECT_EQ(map.blocking(SubtaskRef{TaskId{0}, 0}), 4);
  EXPECT_EQ(map.blocking(SubtaskRef{TaskId{1}, 0}), 2);
  EXPECT_EQ(map.blocking(SubtaskRef{TaskId{2}, 0}), 0);
}

// --- Delta maintenance: apply_admit / revert_admit / apply_remove --------

constexpr int kProcessors = 4;

Task random_task(Rng& rng) {
  Task t;
  t.period = rng.uniform_int(20, 200);
  t.release_jitter = rng.uniform_int(0, 3);
  const auto length = rng.uniform_int(1, 3);
  for (std::int64_t j = 0; j < length; ++j) {
    Subtask s;
    s.processor = ProcessorId{static_cast<std::int32_t>(rng.uniform_int(0, kProcessors - 1))};
    s.execution_time = rng.uniform_int(1, 8);
    s.priority = Priority{static_cast<std::int32_t>(rng.uniform_int(0, 5))};
    s.preemptible = rng.uniform_int(0, 9) >= 4;  // ~40% non-preemptible
    t.subtasks.push_back(s);
  }
  return t;
}

TaskSystem random_system(Rng& rng, int tasks) {
  TaskSystemBuilder b{kProcessors};
  for (int i = 0; i < tasks; ++i) {
    const Task t = random_task(rng);
    auto handle = b.add_task({.period = t.period, .release_jitter = t.release_jitter});
    for (const Subtask& s : t.subtasks) {
      handle.subtask(s.processor, s.execution_time, s.priority);
      if (!s.preemptible) handle.non_preemptible();
    }
  }
  return std::move(b).build();
}

/// Every accessor of a delta-maintained map against fresh construction.
void expect_matches_fresh(const InterferenceMap& map, const TaskSystem& system,
                          int step) {
  const InterferenceMap fresh{system};
  ASSERT_EQ(map.subtask_count(), fresh.subtask_count()) << "step " << step;
  for (const Task& t : system.tasks()) {
    for (const Subtask& s : t.subtasks) {
      const std::size_t flat = fresh.flat_index(s.ref);
      ASSERT_EQ(map.flat_index(s.ref), flat) << "step " << step;
      EXPECT_EQ(map.ref_of(flat), s.ref) << "step " << step;
      EXPECT_EQ(map.blocking(s.ref), fresh.blocking(s.ref)) << "step " << step;
      EXPECT_EQ(map.blocking(s.ref), blocking_term(system, s)) << "step " << step;
      const auto got = map.of(s.ref);
      const auto want = fresh.of(s.ref);
      ASSERT_EQ(got.size(), want.size()) << "step " << step;
      for (std::size_t k = 0; k < got.size(); ++k) {
        EXPECT_EQ(got[k].ref, want[k].ref) << "step " << step;
        EXPECT_EQ(got[k].period, want[k].period) << "step " << step;
        EXPECT_EQ(got[k].execution_time, want[k].execution_time) << "step " << step;
        EXPECT_EQ(got[k].predecessor_index, want[k].predecessor_index) << "step " << step;
        EXPECT_EQ(got[k].task_release_jitter, want[k].task_release_jitter)
            << "step " << step;
      }
      const InterferenceMap::SoaView soa = map.soa_of(s.ref);
      const InterferenceMap::SoaView fresh_soa = fresh.soa_of(s.ref);
      const auto same = [](std::span<const Duration> a, std::span<const Duration> b) {
        return std::vector<Duration>(a.begin(), a.end()) ==
               std::vector<Duration>(b.begin(), b.end());
      };
      EXPECT_TRUE(same(soa.periods, fresh_soa.periods)) << "step " << step;
      EXPECT_TRUE(same(soa.execs, fresh_soa.execs)) << "step " << step;
      EXPECT_TRUE(same(soa.jitters, fresh_soa.jitters)) << "step " << step;
    }
  }
  EXPECT_EQ(map.content_hash(), fresh.content_hash()) << "step " << step;
}

/// Blocking term per (task name, chain index): survives renumbering.
std::map<std::pair<std::string, std::int32_t>, Duration> blocking_by_name(
    const InterferenceMap& map, const TaskSystem& system) {
  std::map<std::pair<std::string, std::int32_t>, Duration> out;
  for (const Task& t : system.tasks()) {
    for (const Subtask& s : t.subtasks) out[{t.name, s.ref.index}] = map.blocking(s.ref);
  }
  return out;
}

TEST(InterferenceDelta, SeededAdmitRevertRemoveMatchFreshConstruction) {
  bool saw_rise = false;
  bool saw_fall = false;
  for (const std::uint64_t seed : {11u, 12u, 13u, 14u}) {
    Rng rng{seed};
    TaskSystem system = random_system(rng, 8);
    InterferenceMap map{system};
    int named = 0;
    for (int step = 0; step < 60; ++step) {
      const auto roll = rng.uniform_int(0, 9);
      if (roll < 5 || system.task_count() <= 2) {
        // Admit; reject (revert) about a third of them.
        Task t = random_task(rng);
        t.name = "admit" + std::to_string(named++);
        system.append_task(t);
        const InterferenceMap::AdmitDelta delta = map.apply_admit(system);
        saw_rise |= !delta.old_blocking.empty();
        expect_matches_fresh(map, system, step);
        if (rng.uniform_int(0, 2) == 0) {
          system.remove_task(system.task_count() - 1);
          map.revert_admit(delta);
          expect_matches_fresh(map, system, step);
        }
      } else {
        const auto removed = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(system.task_count()) - 1));
        const auto before = blocking_by_name(map, system);
        system.remove_task(removed);
        map.apply_remove(system, removed);
        expect_matches_fresh(map, system, step);
        for (const auto& [key, value] : blocking_by_name(map, system)) {
          saw_fall |= value < before.at(key);
        }
      }
      if (::testing::Test::HasFailure()) return;
    }
  }
  // The sequences must actually move blocking terms both ways.
  EXPECT_TRUE(saw_rise);
  EXPECT_TRUE(saw_fall);
}

TEST(InterferenceDelta, BatchedAdmitsRevertInReverseOrder) {
  Rng rng{21};
  TaskSystem system = random_system(rng, 6);
  InterferenceMap map{system};
  const std::uint64_t before = map.content_hash();
  std::vector<InterferenceMap::AdmitDelta> deltas;
  for (int k = 0; k < 4; ++k) {
    Task t = random_task(rng);
    t.name = "batch" + std::to_string(k);
    system.append_task(t);
    deltas.push_back(map.apply_admit(system));
    expect_matches_fresh(map, system, k);
  }
  for (auto it = deltas.rbegin(); it != deltas.rend(); ++it) {
    system.remove_task(system.task_count() - 1);
    map.revert_admit(*it);
  }
  expect_matches_fresh(map, system, -1);
  EXPECT_EQ(map.content_hash(), before);
}

}  // namespace
}  // namespace e2e
