// Containers for per-subtask and per-task analysis results.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/error.h"
#include "common/ids.h"
#include "common/time.h"
#include "task/system.h"

namespace e2e {

/// A per-subtask table of durations (response-time bounds, IEER bounds,
/// phases, ...), indexed by SubtaskRef and shaped like a TaskSystem.
class SubtaskTable {
 public:
  SubtaskTable() = default;
  /// Creates a table shaped like `system`, filled with `initial`.
  SubtaskTable(const TaskSystem& system, Duration initial);

  // at()/set() are inline: they sit on protocol hot paths (MPM arms one
  // bound timer per instance).
  [[nodiscard]] Duration at(SubtaskRef ref) const {
    E2E_ASSERT(ref.task.value() >= 0 && ref.task.index() < values_.size(),
               "SubtaskTable: task out of range");
    const auto& row = values_[ref.task.index()];
    E2E_ASSERT(ref.index >= 0 && static_cast<std::size_t>(ref.index) < row.size(),
               "SubtaskTable: index out of range");
    return row[static_cast<std::size_t>(ref.index)];
  }
  void set(SubtaskRef ref, Duration value) {
    E2E_ASSERT(ref.task.value() >= 0 && ref.task.index() < values_.size(),
               "SubtaskTable: task out of range");
    auto& row = values_[ref.task.index()];
    E2E_ASSERT(ref.index >= 0 && static_cast<std::size_t>(ref.index) < row.size(),
               "SubtaskTable: index out of range");
    row[static_cast<std::size_t>(ref.index)] = value;
  }

  /// Value for the predecessor of `ref`, or 0 for a first subtask.
  /// This is the R_{u,v-1} term of Algorithm IEERT.
  [[nodiscard]] Duration predecessor_or_zero(SubtaskRef ref) const;

  /// The row for task `task_index` (chain-indexed values).
  [[nodiscard]] std::span<const Duration> row(std::size_t task_index) const {
    E2E_ASSERT(task_index < values_.size(), "SubtaskTable: task out of range");
    return values_[task_index];
  }

  /// Number of task rows.
  [[nodiscard]] std::size_t row_count() const noexcept { return values_.size(); }

  /// Appends a row of `chain_length` entries, all `initial` -- the shape
  /// companion of TaskSystem::append_task.
  void append_row(std::size_t chain_length, Duration initial);

  /// Removes row `task_index`; later rows shift down, matching
  /// TaskSystem::remove_task's renumbering.
  void remove_row(std::size_t task_index);

  /// Order-dependent hash over shape and every entry, for proving a
  /// delta-maintained table equal to a freshly computed one.
  [[nodiscard]] std::uint64_t content_hash() const noexcept;

  /// True if any entry is kTimeInfinity.
  [[nodiscard]] bool any_infinite() const noexcept;

  /// True if this table has one entry per subtask of `system` (the shape
  /// check warm-started analyses run before trusting a scratch table).
  [[nodiscard]] bool shaped_like(const TaskSystem& system) const noexcept;

  friend bool operator==(const SubtaskTable&, const SubtaskTable&) = default;

 private:
  std::vector<std::vector<Duration>> values_;  // [task][chain index]
};

/// Result of a schedulability analysis over a whole system.
struct AnalysisResult {
  /// Upper bound on the response time of each subtask. For SA/DS this
  /// table instead holds IEER (intermediate end-to-end response) bounds,
  /// which are cumulative along the chain.
  SubtaskTable subtask_bounds;
  /// Upper bound on the end-to-end response time of each task, indexed by
  /// TaskId; kTimeInfinity when the analysis failed to bound it.
  std::vector<Duration> eer_bounds;
  /// Per-task schedulability verdict: eer_bound <= relative deadline.
  std::vector<bool> task_schedulable;

  /// True iff every task has a finite EER bound.
  [[nodiscard]] bool all_bounded() const noexcept;
  /// True iff every task is schedulable (finite bound within deadline).
  [[nodiscard]] bool system_schedulable() const noexcept;
  [[nodiscard]] Duration eer_bound(TaskId id) const { return eer_bounds.at(id.index()); }
};

/// Fills `result.task_schedulable` from `result.eer_bounds` and the
/// deadlines in `system`.
void finalize_schedulability(const TaskSystem& system, AnalysisResult& result);

}  // namespace e2e
