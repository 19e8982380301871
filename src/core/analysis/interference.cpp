#include "core/analysis/interference.h"

#include <algorithm>

#include "common/error.h"
#include "common/hash.h"
#include "core/analysis/blocking.h"

namespace e2e {

void InterferenceMap::Row::push(const Interferer& h) {
  set.push_back(h);
  periods.push_back(h.period);
  execs.push_back(h.execution_time);
  jitters.push_back(h.task_release_jitter);
}

void InterferenceMap::Row::truncate(std::size_t size) {
  set.resize(size);
  periods.resize(size);
  execs.resize(size);
  jitters.resize(size);
}

namespace {

/// B_{u,v-1} of subtask `ref` of `task`: the execution times before it.
Duration predecessor_best_case(const Task& task, SubtaskRef ref) {
  Duration sum = 0;
  for (std::int32_t j = 0; j < ref.index; ++j) {
    sum += task.subtasks[static_cast<std::size_t>(j)].execution_time;
  }
  return sum;
}

/// True if chain position `j` is the first of `task`'s subtasks on its
/// processor: walking those positions visits each processor once.
bool first_on_its_processor(const Task& task, std::size_t j) {
  for (std::size_t prev = 0; prev < j; ++prev) {
    if (task.subtasks[prev].processor == task.subtasks[j].processor) return false;
  }
  return true;
}

}  // namespace

InterferenceMap::Row InterferenceMap::build_row(const TaskSystem& system,
                                                const Subtask& s) {
  Row row{.ref = s.ref, .processor = s.processor};
  for (const SubtaskRef other_ref : system.subtasks_on(s.processor)) {
    if (other_ref == s.ref) continue;
    const Subtask& other = system.subtask(other_ref);
    if (higher_or_equal_priority(other.priority, s.priority)) {
      const Task& other_task = system.task(other_ref.task);
      row.push(Interferer{
          .ref = other_ref,
          .period = other_task.period,
          .execution_time = other.execution_time,
          .predecessor_index = other_ref.index - 1,
          .task_release_jitter = other_task.release_jitter,
          .predecessor_best_case = predecessor_best_case(other_task, other_ref),
      });
    } else if (!other.preemptible) {
      // blocking_term's rule, folded into the same scan.
      row.blocking = std::max(row.blocking, other.execution_time - 1);
    }
  }
  return row;
}

InterferenceMap::InterferenceMap(const TaskSystem& system) {
  E2E_ASSERT(system.retired_count() == 0, "InterferenceMap: compact the system first");
  rows_.reserve(system.subtask_count());
  task_base_.reserve(system.task_count() + 1);
  for (const Task& t : system.tasks()) {
    for (const Subtask& s : t.subtasks) rows_.push_back(build_row(system, s));
    task_base_.push_back(rows_.size());
  }
}

InterferenceMap::AdmitDelta InterferenceMap::apply_admit(const TaskSystem& system) {
  E2E_ASSERT(system.task_count() == task_base_.size(),
             "apply_admit: system must have exactly one appended task");
  AdmitDelta delta;
  delta.old_tasks = task_base_.size() - 1;
  delta.old_subtasks = rows_.size();
  const Task& cand = system.tasks().back();

  // 1. Resident rows on the candidate's processors gain the candidate
  // subtasks that interfere with them -- appended at the END of each set,
  // in candidate chain order, exactly where a fresh subtasks_on(p) scan
  // (candidate refs last, builder layout) would have put them. Lower
  // priority non-preemptible candidates raise the blocking term instead.
  for (std::size_t cj = 0; cj < cand.subtasks.size(); ++cj) {
    if (!first_on_its_processor(cand, cj)) continue;
    const ProcessorId proc = cand.subtasks[cj].processor;
    for (const SubtaskRef ref : system.subtasks_on(proc)) {
      if (ref.task == cand.id) continue;  // candidate rows built below
      const Subtask& s = system.subtask(ref);
      const std::size_t flat = flat_index(ref);
      Row& row = rows_[flat];
      std::uint32_t appended = 0;
      Duration blocking = row.blocking;
      for (const Subtask& c : cand.subtasks) {
        if (c.processor != proc) continue;
        if (higher_or_equal_priority(c.priority, s.priority)) {
          row.push(Interferer{
              .ref = c.ref,
              .period = cand.period,
              .execution_time = c.execution_time,
              .predecessor_index = c.ref.index - 1,
              .task_release_jitter = cand.release_jitter,
              .predecessor_best_case = predecessor_best_case(cand, c.ref),
          });
          ++appended;
        } else if (!c.preemptible) {
          blocking = std::max(blocking, c.execution_time - 1);
        }
      }
      if (appended > 0) delta.appended.emplace_back(flat, appended);
      if (blocking != row.blocking) {
        delta.old_blocking.emplace_back(flat, row.blocking);
        row.blocking = blocking;
      }
    }
  }

  // 2. The candidate's own rows, built with the constructor's scan (its
  // interferers include residents AND earlier/later candidate subtasks
  // sharing a processor).
  for (const Subtask& s : cand.subtasks) rows_.push_back(build_row(system, s));
  task_base_.push_back(rows_.size());
  return delta;
}

void InterferenceMap::revert_admit(const AdmitDelta& delta) {
  E2E_ASSERT(task_base_.size() == delta.old_tasks + 2,
             "revert_admit: not the most recent admit");
  task_base_.pop_back();
  rows_.resize(delta.old_subtasks);
  for (const auto& [flat, count] : delta.appended) {
    Row& row = rows_[flat];
    E2E_ASSERT(row.set.size() >= count, "revert_admit: set smaller than recorded append");
    row.truncate(row.set.size() - count);
  }
  for (const auto& [flat, blocking] : delta.old_blocking) rows_[flat].blocking = blocking;
}

InterferenceMap::RemoveDelta InterferenceMap::retire(const TaskSystem& system,
                                                     std::size_t task) {
  E2E_ASSERT(task + 1 < task_base_.size(), "retire: task out of range");
  E2E_ASSERT(system.retired(TaskId{static_cast<std::int32_t>(task)}),
             "retire: the system has not retired the task");
  const Task& gone = system.tasks()[task];
  RemoveDelta delta;
  for (std::size_t gj = 0; gj < gone.subtasks.size(); ++gj) {
    if (!first_on_its_processor(gone, gj)) continue;
    const ProcessorId proc = gone.subtasks[gj].processor;
    for (const SubtaskRef ref : system.subtasks_on(proc)) {
      const Subtask& s = system.subtask(ref);
      const auto flat = static_cast<std::uint32_t>(flat_index(ref));
      Row& row = rows_[flat];
      bool interfered = false;
      bool held_blocking = false;
      for (const Subtask& g : gone.subtasks) {
        if (g.processor != proc) continue;
        if (higher_or_equal_priority(g.priority, s.priority)) {
          interfered = true;
        } else if (!g.preemptible && g.execution_time - 1 == row.blocking &&
                   row.blocking > 0) {
          held_blocking = true;
        }
      }
      if (interfered) {
        std::size_t write = 0;
        for (std::size_t read = 0; read < row.set.size(); ++read) {
          if (row.set[read].ref.task.index() == task) continue;
          row.set[write] = row.set[read];
          row.periods[write] = row.periods[read];
          row.execs[write] = row.execs[read];
          row.jitters[write] = row.jitters[read];
          ++write;
        }
        row.truncate(write);
        delta.lost.push_back(flat);
      }
      // The retired subtasks may have been the maximal blockers here.
      if (held_blocking) {
        const Duration blocking = blocking_term(system, s);
        if (blocking != row.blocking) {
          row.blocking = blocking;
          delta.reblocked.push_back(flat);
        }
      }
    }
  }
  return delta;
}

std::vector<std::uint32_t> InterferenceMap::compact(const TaskSystem& system) {
  const std::size_t tasks = task_base_.size() - 1;
  E2E_ASSERT(system.task_count() == tasks, "compact: system not shaped like the map");
  std::vector<std::uint32_t> new_flat(rows_.size(), kDroppedFlat);
  std::vector<std::int32_t> new_task(tasks, -1);
  std::size_t write = 0;
  std::size_t kept_tasks = 0;
  for (std::size_t t = 0; t < tasks; ++t) {
    const std::size_t begin = task_base_[t];
    const std::size_t end = task_base_[t + 1];
    task_base_[kept_tasks] = write;
    if (system.retired(TaskId{static_cast<std::int32_t>(t)})) continue;
    new_task[t] = static_cast<std::int32_t>(kept_tasks++);
    for (std::size_t f = begin; f < end; ++f) {
      new_flat[f] = static_cast<std::uint32_t>(write);
      if (write != f) rows_[write] = std::move(rows_[f]);
      ++write;
    }
  }
  task_base_[kept_tasks] = write;
  task_base_.resize(kept_tasks + 1);
  rows_.erase(rows_.begin() + static_cast<std::ptrdiff_t>(write), rows_.end());
  for (Row& row : rows_) {
    row.ref.task = TaskId{new_task[row.ref.task.index()]};
    for (Interferer& h : row.set) h.ref.task = TaskId{new_task[h.ref.task.index()]};
  }
  return new_flat;
}

std::uint64_t InterferenceMap::content_hash() const noexcept {
  std::uint64_t h = hash_combine(0, task_base_.size());
  for (const std::size_t base : task_base_) h = hash_combine(h, base);
  for (const Row& row : rows_) {
    h = hash_combine(h, static_cast<std::uint64_t>(row.ref.task.value()));
    h = hash_combine(h, static_cast<std::uint64_t>(row.ref.index));
    h = hash_combine(h, static_cast<std::uint64_t>(row.processor.value()));
    h = hash_combine(h, static_cast<std::uint64_t>(row.blocking));
    h = hash_combine(h, row.set.size());
    for (const Interferer& e : row.set) {
      h = hash_combine(h, static_cast<std::uint64_t>(e.ref.task.value()));
      h = hash_combine(h, static_cast<std::uint64_t>(e.ref.index));
      h = hash_combine(h, static_cast<std::uint64_t>(e.period));
      h = hash_combine(h, static_cast<std::uint64_t>(e.execution_time));
      h = hash_combine(h, static_cast<std::uint64_t>(e.predecessor_index));
      h = hash_combine(h, static_cast<std::uint64_t>(e.task_release_jitter));
      h = hash_combine(h, static_cast<std::uint64_t>(e.predecessor_best_case));
    }
    for (const auto* soa : {&row.periods, &row.execs, &row.jitters}) {
      h = hash_combine(h, soa->size());
      for (const Duration v : *soa) h = hash_combine(h, static_cast<std::uint64_t>(v));
    }
  }
  return h;
}

}  // namespace e2e
