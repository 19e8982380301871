// Precomputed interference sets.
//
// For subtask T_{i,j}, the paper's H_{i,j} is the set of subtasks that
// (1) execute on the same processor and (2) have priority higher than or
// equal to T_{i,j}'s, excluding T_{i,j} itself. Both SA/PM and Algorithm
// IEERT sum demand over this set; precomputing it once per system keeps
// the fixpoint inner loops tight.
//
// Each subtask owns one row holding its set in two representations:
//  * of(ref): array-of-structs span of Interferer (refs + parameters),
//    used where the interferers' identities matter (IEERT's jitter terms);
//  * soa_of(ref): structure-of-arrays spans over the row's own parallel
//    vectors of periods / execution times / task release jitters, consumed
//    by the inlined DemandEvaluator kernels (core/analysis/demand.h).
// The row also stores the subtask's non-preemptive blocking term
// (blocking(ref)), which like the set is static per system.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/ids.h"
#include "common/time.h"
#include "task/system.h"

namespace e2e {

/// One interfering subtask, with the fields the demand equations need.
struct Interferer {
  SubtaskRef ref;
  Duration period = 0;          ///< p_u (period of its parent task)
  Duration execution_time = 0;  ///< e_{u,v}
  /// Chain index of its predecessor, or -1 if it is a first subtask.
  /// Algorithm IEERT reads the predecessor's IEER bound R_{u,v-1} as the
  /// release jitter of T_{u,v}; -1 means jitter 0.
  std::int32_t predecessor_index = -1;
  /// The parent task's bounded release jitter J_u (extension; 0 in the
  /// paper's model). The jitter-aware equations add this to every
  /// interference ceiling.
  Duration task_release_jitter = 0;
  /// Sum of the execution times through its predecessor, B_{u,v-1}
  /// (0 for a first subtask): the best case the holistic jitter term
  /// R_{u,v-1} - B_{u,v-1} subtracts (IeertOptions::
  /// refine_jitter_with_best_case). Carried here so IEERT gathers every
  /// jitter term from the row and the table alone.
  Duration predecessor_best_case = 0;
};

/// Interference sets for every subtask in a system, indexed by SubtaskRef.
///
/// Besides one-shot construction, the map supports delta maintenance for
/// the admission engines: apply_admit() patches in one task appended at
/// the back of the system, revert_admit() undoes a rejected trial, and
/// retire() patches out one task the system retired in place, leaving
/// its rows behind as inert holes until compact() drops them. Admits and
/// reverts leave the map bit-identical to fresh construction over the
/// mutated system, and a compacted map is bit-identical to fresh
/// construction over the live tasks (the admission property tests pin
/// this via content_hash()): the builder lays per-processor resident
/// lists out task-major, so an appended task's subtasks land at the END
/// of every scan a fresh constructor would do -- appends patch each
/// touched row in place as a pure suffix, and retirements as
/// order-preserving erasure. Blocking terms change only on the admitted
/// or retired task's processors.
class InterferenceMap {
 public:
  /// Empty map; delta-populate via apply_admit or assign a fresh one.
  InterferenceMap() = default;
  explicit InterferenceMap(const TaskSystem& system);

  /// H_{i,j} for the given subtask (same processor, priority >=, not self).
  [[nodiscard]] std::span<const Interferer> of(SubtaskRef ref) const {
    return row(ref).set;
  }

  /// Structure-of-arrays view of H_{i,j}: parallel spans over the row's
  /// contiguous storage. `jitters` holds the interferers' task release
  /// jitters (the jitter term SA/PM uses; IEERT substitutes its own
  /// per-pass jitter vector of the same length).
  struct SoaView {
    std::span<const Duration> periods;
    std::span<const Duration> execs;
    std::span<const Duration> jitters;
    [[nodiscard]] std::size_t size() const noexcept { return periods.size(); }
  };
  [[nodiscard]] SoaView soa_of(SubtaskRef ref) const {
    const Row& r = row(ref);
    return SoaView{.periods = r.periods, .execs = r.execs, .jitters = r.jitters};
  }

  /// B_{i,j} (core/analysis/blocking.h) of the given subtask, stored so
  /// the fixpoint solvers never rescan the processor.
  [[nodiscard]] Duration blocking(SubtaskRef ref) const { return row(ref).blocking; }

  /// Task-major flat index of a subtask (stable for the system's lifetime);
  /// the incremental IEERT pass keys its dirty flags on it.
  [[nodiscard]] std::size_t flat_index(SubtaskRef ref) const {
    E2E_ASSERT(ref.task.value() >= 0 && ref.task.index() + 1 < task_base_.size(),
               "InterferenceMap: task out of range");
    const std::size_t flat = task_base_[ref.task.index()] + static_cast<std::size_t>(ref.index);
    E2E_ASSERT(ref.index >= 0 && flat < task_base_[ref.task.index() + 1],
               "InterferenceMap: subtask index out of range");
    return flat;
  }
  /// The subtask at a flat index (inverse of flat_index).
  [[nodiscard]] SubtaskRef ref_of(std::size_t flat) const {
    E2E_ASSERT(flat < rows_.size(), "InterferenceMap: flat index out of range");
    return rows_[flat].ref;
  }
  /// Total number of subtasks in the system.
  [[nodiscard]] std::size_t subtask_count() const noexcept { return rows_.size(); }

  /// Revert token for one apply_admit: the pre-admit shape, which rows
  /// grew by how much, and the blocking terms the admit raised. Enough to
  /// restore the map byte-for-byte after a rejected trial.
  struct AdmitDelta {
    std::size_t old_tasks = 0;
    std::size_t old_subtasks = 0;
    /// (flat subtask index, interferers appended at the end of its set),
    /// residents only.
    std::vector<std::pair<std::size_t, std::uint32_t>> appended;
    /// (flat subtask index, blocking term before the admit), residents
    /// whose blocking term the admit raised.
    std::vector<std::pair<std::size_t, Duration>> old_blocking;
  };

  /// Patches the map for `system`, which must be the currently mapped
  /// system plus exactly one task appended at the back. Returns the
  /// revert token. Result is bit-identical to InterferenceMap{system}.
  AdmitDelta apply_admit(const TaskSystem& system);

  /// Undoes the most recent apply_admit (rejected trial). Multiple
  /// admits revert in reverse order of application.
  void revert_admit(const AdmitDelta& delta);

  /// What one retire() changed, as flat indices of live rows in the scan
  /// order of the retired task's processors: exactly the rows whose
  /// equations moved, the remove-side counterpart of AdmitDelta.
  struct RemoveDelta {
    /// Rows that lost at least one interferer (the retired task's).
    std::vector<std::uint32_t> lost;
    /// Rows whose blocking term fell (the retired task held its maximum).
    std::vector<std::uint32_t> reblocked;
  };

  /// Patches the map for task `task`, which `system` has just retired
  /// (TaskSystem::retire_task): its interferers leave the rows on its own
  /// processors, the blocking terms it held there are recomputed, and
  /// its own rows stay as holes -- nothing is renumbered, so every flat
  /// index stays valid. Touches only rows on the retired task's
  /// processors.
  RemoveDelta retire(const TaskSystem& system, std::size_t task);

  /// Drops the rows of every task `system` has retired and renumbers the
  /// survivors; call it before TaskSystem::compact(). The result is
  /// bit-identical to fresh construction over the compacted system.
  /// Returns each old flat index's new one, or kDroppedFlat for a
  /// dropped row, for the structures keyed on flat indices. O(n).
  static constexpr std::uint32_t kDroppedFlat = 0xFFFFFFFFu;
  std::vector<std::uint32_t> compact(const TaskSystem& system);

  /// Order-dependent hash of every row: the interference set (refs +
  /// parameters), its SoA arrays and the blocking term -- the
  /// delta-vs-fresh equivalence check of the admission property tests.
  [[nodiscard]] std::uint64_t content_hash() const noexcept;

 private:
  struct Row {
    SubtaskRef ref;
    ProcessorId processor;
    Duration blocking = 0;
    std::vector<Interferer> set;
    std::vector<Duration> periods;  // parallel to `set`
    std::vector<Duration> execs;
    std::vector<Duration> jitters;

    void push(const Interferer& h);
    void truncate(std::size_t size);
  };

  /// The row of `system`'s subtask `s` built from scratch: the
  /// constructor's scan of its processor.
  [[nodiscard]] static Row build_row(const TaskSystem& system, const Subtask& s);

  [[nodiscard]] const Row& row(SubtaskRef ref) const { return rows_[flat_index(ref)]; }

  /// Flat index of each task's first row, plus the total: size tasks + 1.
  std::vector<std::size_t> task_base_{0};
  std::vector<Row> rows_;  ///< task-major (flat index order)
};

}  // namespace e2e
