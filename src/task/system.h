// TaskSystem: an immutable, validated distributed real-time workload.
//
// Built via TaskSystemBuilder (task/builder.h). Construction validates the
// model invariants once; afterwards every component (simulator, analyses,
// experiments) can rely on them without re-checking.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/error.h"
#include "common/ids.h"
#include "common/math.h"
#include "common/time.h"
#include "task/model.h"

namespace e2e {

class TaskSystemBuilder;

/// Immutable system description. Cheap to copy-construct tasks out of;
/// usually passed by const reference. The single sanctioned mutation is
/// set_phases(): phases participate in no structural invariant, and the
/// Monte-Carlo drivers randomize them thousands of times per second --
/// rebuilding through the builder (names, vectors, re-validation) was
/// their dominant non-simulation cost.
class TaskSystem {
 public:
  /// Number of processors P_0 .. P_{count-1}.
  [[nodiscard]] std::size_t processor_count() const noexcept { return processor_count_; }

  /// All tasks, indexed by TaskId.
  [[nodiscard]] std::span<const Task> tasks() const noexcept { return tasks_; }
  [[nodiscard]] std::size_t task_count() const noexcept { return tasks_.size(); }

  // task()/subtask()/subtasks_on()/contains() are inline: they run on
  // the simulator's hot path (several per processed event).
  [[nodiscard]] const Task& task(TaskId id) const {
    E2E_ASSERT(id.value() >= 0 && id.index() < tasks_.size(), "TaskId out of range");
    return tasks_[id.index()];
  }
  [[nodiscard]] const Subtask& subtask(SubtaskRef ref) const {
    const Task& t = task(ref.task);
    E2E_ASSERT(ref.index >= 0 &&
                   static_cast<std::size_t>(ref.index) < t.subtasks.size(),
               "subtask index out of range");
    return t.subtasks[static_cast<std::size_t>(ref.index)];
  }

  /// Subtasks resident on `p`, in an arbitrary but deterministic order.
  [[nodiscard]] std::span<const SubtaskRef> subtasks_on(ProcessorId p) const {
    E2E_ASSERT(p.value() >= 0 && p.index() < per_processor_.size(),
               "ProcessorId out of range");
    return per_processor_[p.index()];
  }

  /// Total number of subtasks over all tasks.
  [[nodiscard]] std::size_t subtask_count() const noexcept { return subtask_count_; }

  /// Utilization sum of subtasks on `p`: sum of e_{i,j}/p_i.
  [[nodiscard]] double processor_utilization(ProcessorId p) const;

  /// Maximum processor utilization across the system.
  [[nodiscard]] double max_processor_utilization() const;

  /// lcm of all task periods, saturating at kTimeInfinity when it
  /// overflows (co-prime tick-scaled periods routinely do).
  [[nodiscard]] Duration hyperperiod() const noexcept { return hyperperiod_; }

  [[nodiscard]] Duration max_period() const noexcept { return max_period_; }
  [[nodiscard]] Duration min_period() const noexcept { return min_period_; }
  [[nodiscard]] Time max_phase() const noexcept { return max_phase_; }

  /// The default simulation-horizon length, in multiples of the maximum
  /// period. Every component that needs a horizon and is not told one
  /// derives it from here (runner, CLI `simulate`, experiment drivers).
  static constexpr double kDefaultHorizonPeriods = 30.0;

  /// Horizon of `periods` maximum periods, in ticks.
  [[nodiscard]] Time horizon_ticks(double periods) const noexcept {
    return sat_scale(periods, max_period_);
  }

  /// The system-wide default horizon: kDefaultHorizonPeriods max-periods.
  [[nodiscard]] Time default_horizon() const noexcept {
    return horizon_ticks(kDefaultHorizonPeriods);
  }

  /// Rewrites every task's phase in place (one entry per task, in TaskId
  /// order) without reallocating. Exactly equivalent to rebuilding the
  /// system with the new phases: phases carry no cross-field invariant
  /// beyond being non-negative (validated here, mirroring the builder).
  void set_phases(std::span<const Time> phases);

  /// Appends `task` as the new last task. Sanctioned mutation number two,
  /// for the admission engines that grow/shrink one committed system
  /// across thousands of requests: `task.id` and its subtasks' refs are
  /// renumbered here, its refs are appended at the end of the resident
  /// lists of its processors, and the cached aggregates are folded in --
  /// all exactly as TaskSystemBuilder::build() would have ordered them,
  /// so analyses over the grown system see the builder's scan order.
  /// Validates the same invariants the builder enforces (positive
  /// period/execution times, in-range processors, non-empty chain,
  /// non-negative phase/deadline/jitter); deadline 0 defaults to the
  /// period, matching the builder.
  void append_task(Task task);

  /// The cached aggregates append_task folds a task into. Saving them
  /// before appends is what lets pop_last_tasks undo those appends
  /// without rescanning the system (an lcm cannot be un-folded).
  struct Aggregates {
    std::size_t subtask_count = 0;
    Duration hyperperiod = 0;
    Duration max_period = 0;
    Duration min_period = 0;
    Time max_phase = 0;
    friend bool operator==(const Aggregates&, const Aggregates&) = default;
  };
  [[nodiscard]] Aggregates aggregates() const noexcept {
    return {subtask_count_, hyperperiod_, max_period_, min_period_, max_phase_};
  }

  /// Undoes the last `count` append_task calls: pops those tasks and
  /// their refs off the tails of their processors' resident lists (where
  /// append_task put them) and restores `before`, the aggregates() taken
  /// just before the first of those appends. O(subtasks popped) -- the
  /// admission engines' exit for rejected candidates.
  void pop_last_tasks(std::size_t count, const Aggregates& before);

  /// Retires the task at `index` in place, for the admission engines'
  /// removals: its refs leave the resident lists of its own processors
  /// (the survivors keep their order) and the cached aggregates are
  /// brought to the live tasks'. Nothing is renumbered: the retired
  /// task keeps its TaskId and its entry in tasks() as a hole, so every
  /// structure keyed on task or subtask indices stays valid, and its
  /// data stays readable until compact(). O(its processors' resident
  /// lists) plus a scan of the tasks that stops once no aggregate can
  /// move. At least one live task must remain.
  ///
  /// A system with holes is the engines' own state: analyses and the
  /// simulator require a system without retired tasks (compact() first).
  void retire_task(std::size_t index);

  /// True if the task `id` was retired and not yet compacted away.
  [[nodiscard]] bool retired(TaskId id) const noexcept {
    return id.index() < retired_.size() && retired_[id.index()] != 0;
  }
  /// Number of retired tasks (holes in tasks()).
  [[nodiscard]] std::size_t retired_count() const noexcept { return retired_count_; }

  /// Drops every retired task, renumbering the survivors (and their
  /// subtasks' refs) down in order. The resident lists keep their order,
  /// so the system equals a fresh builder pass over the live tasks. O(n).
  void compact();

  /// True if `ref` names an existing subtask.
  [[nodiscard]] bool contains(SubtaskRef ref) const noexcept {
    if (ref.task.value() < 0 || ref.task.index() >= tasks_.size()) return false;
    return ref.index >= 0 && static_cast<std::size_t>(ref.index) <
                                 tasks_[ref.task.index()].subtasks.size();
  }

 private:
  friend class TaskSystemBuilder;
  TaskSystem() = default;

  std::vector<Task> tasks_;
  std::vector<std::vector<SubtaskRef>> per_processor_;
  /// Per TaskId: 1 if retired. Sized lazily by retire_task; indices past
  /// its end are live.
  std::vector<std::uint8_t> retired_;
  std::size_t retired_count_ = 0;
  std::size_t processor_count_ = 0;
  std::size_t subtask_count_ = 0;
  Duration hyperperiod_ = 0;
  Duration max_period_ = 0;
  Duration min_period_ = 0;
  Time max_phase_ = 0;
};

}  // namespace e2e
