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
    const ProcessorId proc = cand.subtasks[cj].processor;
    // Handle each distinct processor once, at its first chain occurrence.
    bool first_occurrence = true;
    for (std::size_t prev = 0; prev < cj; ++prev) {
      if (cand.subtasks[prev].processor == proc) {
        first_occurrence = false;
        break;
      }
    }
    if (!first_occurrence) continue;
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

void InterferenceMap::apply_remove(const TaskSystem& system, std::size_t removed) {
  E2E_ASSERT(removed + 1 < task_base_.size(), "apply_remove: task out of range");
  const std::size_t begin = task_base_[removed];
  const std::size_t len = task_base_[removed + 1] - begin;
  std::vector<ProcessorId> touched;
  for (std::size_t f = begin; f < begin + len; ++f) {
    if (std::find(touched.begin(), touched.end(), rows_[f].processor) == touched.end()) {
      touched.push_back(rows_[f].processor);
    }
  }
  rows_.erase(rows_.begin() + static_cast<std::ptrdiff_t>(begin),
              rows_.begin() + static_cast<std::ptrdiff_t>(begin + len));
  task_base_.erase(task_base_.begin() + static_cast<std::ptrdiff_t>(removed));
  for (std::size_t t = removed; t < task_base_.size(); ++t) task_base_[t] -= len;

  const auto removed_id = static_cast<std::int32_t>(removed);
  const auto renumber = [removed_id](SubtaskRef& ref) {
    if (ref.task.value() > removed_id) ref.task = TaskId{ref.task.value() - 1};
  };
  for (Row& row : rows_) {
    renumber(row.ref);
    std::size_t write = 0;
    for (std::size_t read = 0; read < row.set.size(); ++read) {
      Interferer h = row.set[read];
      if (h.ref.task.value() == removed_id) continue;
      renumber(h.ref);
      row.set[write] = h;
      row.periods[write] = row.periods[read];
      row.execs[write] = row.execs[read];
      row.jitters[write] = row.jitters[read];
      ++write;
    }
    row.truncate(write);
  }
  // The departed subtasks may have been the maximal blockers there.
  for (const ProcessorId p : touched) {
    for (const SubtaskRef ref : system.subtasks_on(p)) {
      rows_[flat_index(ref)].blocking = blocking_term(system, system.subtask(ref));
    }
  }
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
