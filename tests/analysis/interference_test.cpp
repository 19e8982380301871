#include "core/analysis/interference.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
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

// --- Delta maintenance: apply_admit / revert_admit / retire / compact ---

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

/// A map with holes against fresh construction over its live tasks:
/// compacts copies of both, checks the returned flat remap, then every
/// accessor.
void expect_compacts_to_fresh(const InterferenceMap& map, const TaskSystem& system,
                              int step) {
  TaskSystem live = system;
  InterferenceMap compacted = map;
  const std::vector<std::uint32_t> new_flat = compacted.compact(live);
  ASSERT_EQ(new_flat.size(), map.subtask_count()) << "step " << step;
  std::uint32_t next = 0;
  for (const Task& t : system.tasks()) {
    for (const Subtask& s : t.subtasks) {
      const std::uint32_t want =
          system.retired(t.id) ? InterferenceMap::kDroppedFlat : next++;
      EXPECT_EQ(new_flat[map.flat_index(s.ref)], want) << "step " << step;
    }
  }
  live.compact();
  EXPECT_EQ(live.retired_count(), 0u) << "step " << step;
  expect_matches_fresh(compacted, live, step);
}

/// Interference set and blocking term per live (task name, chain index):
/// a key that survives compaction's renumbering.
using RowKey = std::pair<std::string, std::int32_t>;
struct RowState {
  std::vector<SubtaskRef> set;
  Duration blocking = 0;
};
std::map<RowKey, RowState> rows_by_name(const InterferenceMap& map,
                                        const TaskSystem& system) {
  std::map<RowKey, RowState> out;
  for (const Task& t : system.tasks()) {
    if (system.retired(t.id)) continue;
    for (const Subtask& s : t.subtasks) {
      RowState& row = out[{t.name, s.ref.index}];
      for (const Interferer& h : map.of(s.ref)) row.set.push_back(h.ref);
      row.blocking = map.blocking(s.ref);
    }
  }
  return out;
}

/// Retires task `index` from both, and checks the RemoveDelta names
/// exactly the live rows that lost an interferer or whose blocking term
/// moved -- the only equations the retirement changed.
InterferenceMap::RemoveDelta retire_and_check(InterferenceMap& map, TaskSystem& system,
                                              std::size_t index, int step,
                                              bool* saw_fall = nullptr) {
  const auto before = rows_by_name(map, system);
  system.retire_task(index);
  const InterferenceMap::RemoveDelta delta = map.retire(system, index);
  std::map<std::string, TaskId> live_ids;
  for (const Task& t : system.tasks()) {
    if (!system.retired(t.id)) live_ids.emplace(t.name, t.id);
  }
  std::vector<std::uint32_t> lost;
  std::vector<std::uint32_t> reblocked;
  for (const auto& [key, row] : rows_by_name(map, system)) {
    const RowState& old = before.at(key);
    const auto flat = static_cast<std::uint32_t>(
        map.flat_index(SubtaskRef{live_ids.at(key.first), key.second}));
    if (row.set != old.set) lost.push_back(flat);
    if (row.blocking != old.blocking) reblocked.push_back(flat);
    if (saw_fall != nullptr) *saw_fall |= row.blocking < old.blocking;
  }
  std::vector<std::uint32_t> got_lost = delta.lost;
  std::vector<std::uint32_t> got_reblocked = delta.reblocked;
  std::sort(got_lost.begin(), got_lost.end());
  std::sort(got_reblocked.begin(), got_reblocked.end());
  std::sort(lost.begin(), lost.end());
  std::sort(reblocked.begin(), reblocked.end());
  EXPECT_EQ(got_lost, lost) << "step " << step;
  EXPECT_EQ(got_reblocked, reblocked) << "step " << step;
  return delta;
}

TEST(InterferenceDelta, SeededAdmitRevertRetireMatchFreshConstruction) {
  bool saw_rise = false;
  bool saw_fall = false;
  bool saw_admit_after_hole = false;
  for (const std::uint64_t seed : {11u, 12u, 13u, 14u}) {
    Rng rng{seed};
    TaskSystem system = random_system(rng, 8);
    InterferenceMap map{system};
    int named = 0;
    for (int step = 0; step < 60; ++step) {
      const std::size_t live = system.task_count() - system.retired_count();
      const auto roll = rng.uniform_int(0, 9);
      if (roll < 5 || live <= 2) {
        // Admit; reject (revert) about a third of them.
        Task t = random_task(rng);
        t.name = "admit" + std::to_string(named++);
        const TaskSystem::Aggregates saved = system.aggregates();
        saw_admit_after_hole |= system.retired_count() > 0;
        system.append_task(t);
        const InterferenceMap::AdmitDelta delta = map.apply_admit(system);
        saw_rise |= !delta.old_blocking.empty();
        expect_compacts_to_fresh(map, system, step);
        if (rng.uniform_int(0, 2) == 0) {
          system.pop_last_tasks(1, saved);
          map.revert_admit(delta);
          expect_compacts_to_fresh(map, system, step);
        }
      } else {
        // Retire a random live task, leaving its rows as holes.
        std::size_t index = 0;
        do {
          index = static_cast<std::size_t>(
              rng.uniform_int(0, static_cast<std::int64_t>(system.task_count()) - 1));
        } while (system.retired(TaskId{static_cast<std::int32_t>(index)}));
        (void)retire_and_check(map, system, index, step, &saw_fall);
        expect_compacts_to_fresh(map, system, step);
      }
      if (rng.uniform_int(0, 3) == 0) {  // compact in place now and then
        (void)map.compact(system);
        system.compact();
        expect_matches_fresh(map, system, step);
      }
      if (::testing::Test::HasFailure()) return;
    }
  }
  // The sequences must actually move blocking terms both ways, and
  // append behind holes.
  EXPECT_TRUE(saw_rise);
  EXPECT_TRUE(saw_fall);
  EXPECT_TRUE(saw_admit_after_hole);
}

// Retiring the first, a middle and the last task, alone and together,
// then appending tasks behind the holes (one of them reverted): the
// compacted map equals fresh construction over the survivors.
TEST(InterferenceDelta, RetireFirstMiddleLastThenCompactMatchesFresh) {
  Rng rng{31};
  const TaskSystem initial = random_system(rng, 9);
  const std::vector<std::vector<std::size_t>> retirements = {
      {0}, {4}, {8}, {0, 4, 8}, {8, 0}, {3, 4, 5}};
  int step = 0;
  for (const std::vector<std::size_t>& order : retirements) {
    TaskSystem system = initial;
    InterferenceMap map{system};
    for (const std::size_t index : order) {
      (void)retire_and_check(map, system, index, step);
      expect_compacts_to_fresh(map, system, step++);
    }
    const TaskSystem::Aggregates saved = system.aggregates();
    Task kept = random_task(rng);
    kept.name = "kept";
    system.append_task(kept);
    (void)map.apply_admit(system);
    const TaskSystem::Aggregates with_kept = system.aggregates();
    Task reverted = random_task(rng);
    reverted.name = "reverted";
    system.append_task(reverted);
    const InterferenceMap::AdmitDelta delta = map.apply_admit(system);
    expect_compacts_to_fresh(map, system, step++);
    system.pop_last_tasks(1, with_kept);
    map.revert_admit(delta);
    expect_compacts_to_fresh(map, system, step++);
    EXPECT_NE(system.aggregates(), saved);
    (void)map.compact(system);
    system.compact();
    expect_matches_fresh(map, system, step++);
    ASSERT_EQ(system.task_count(), initial.task_count() - order.size() + 1);
    EXPECT_EQ(system.tasks().back().name, "kept");
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(InterferenceDelta, BatchedAdmitsRevertInReverseOrder) {
  Rng rng{21};
  TaskSystem system = random_system(rng, 6);
  InterferenceMap map{system};
  const std::uint64_t before = map.content_hash();
  const TaskSystem::Aggregates saved = system.aggregates();
  std::vector<InterferenceMap::AdmitDelta> deltas;
  for (int k = 0; k < 4; ++k) {
    Task t = random_task(rng);
    t.name = "batch" + std::to_string(k);
    system.append_task(t);
    deltas.push_back(map.apply_admit(system));
    expect_matches_fresh(map, system, k);
  }
  system.pop_last_tasks(deltas.size(), saved);
  for (auto it = deltas.rbegin(); it != deltas.rend(); ++it) map.revert_admit(*it);
  expect_matches_fresh(map, system, -1);
  EXPECT_EQ(map.content_hash(), before);
}

}  // namespace
}  // namespace e2e
