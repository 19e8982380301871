#include "task/system.h"

#include <algorithm>
#include <utility>

#include "common/error.h"
#include "common/math.h"

namespace e2e {

double TaskSystem::processor_utilization(ProcessorId p) const {
  double total = 0.0;
  for (const SubtaskRef ref : subtasks_on(p)) {
    const Subtask& s = subtask(ref);
    total += static_cast<double>(s.execution_time) /
             static_cast<double>(task(ref.task).period);
  }
  return total;
}

void TaskSystem::set_phases(std::span<const Time> phases) {
  E2E_ASSERT(phases.size() == tasks_.size(), "set_phases needs one phase per task");
  for (const Time phase : phases) {
    if (phase < 0) throw InvalidArgument("task phase must be non-negative");
  }
  Time max_phase = 0;
  for (std::size_t i = 0; i < tasks_.size(); ++i) {
    tasks_[i].phase = phases[i];
    max_phase = std::max(max_phase, phases[i]);
  }
  max_phase_ = max_phase;
}

void TaskSystem::append_task(Task task) {
  if (task.period <= 0) throw InvalidArgument("task period must be positive");
  if (task.phase < 0) throw InvalidArgument("task phase must be non-negative");
  if (task.relative_deadline < 0) {
    throw InvalidArgument("task deadline must be non-negative");
  }
  if (task.release_jitter < 0) {
    throw InvalidArgument("task release jitter must be non-negative");
  }
  if (task.subtasks.empty()) {
    throw InvalidArgument("task '" + task.name + "' has no subtasks");
  }
  if (task.relative_deadline == 0) task.relative_deadline = task.period;

  const TaskId id{static_cast<std::int32_t>(tasks_.size())};
  task.id = id;
  for (std::size_t j = 0; j < task.subtasks.size(); ++j) {
    Subtask& s = task.subtasks[j];
    if (s.processor.value() < 0 || s.processor.index() >= processor_count_) {
      throw InvalidArgument("subtask processor id out of range");
    }
    if (s.execution_time <= 0) {
      throw InvalidArgument("subtask execution time must be positive");
    }
    s.ref = SubtaskRef{id, static_cast<std::int32_t>(j)};
  }

  subtask_count_ += task.subtasks.size();
  hyperperiod_ = lcm64_saturating(hyperperiod_, task.period);
  max_period_ = std::max(max_period_, task.period);
  min_period_ = std::min(min_period_, task.period);
  max_phase_ = std::max(max_phase_, task.phase);
  for (const Subtask& s : task.subtasks) {
    per_processor_[s.processor.index()].push_back(s.ref);
  }
  tasks_.push_back(std::move(task));
}

void TaskSystem::pop_last_tasks(std::size_t count, const Aggregates& before) {
  E2E_ASSERT(count <= tasks_.size(), "pop_last_tasks: more tasks than the system has");
  for (std::size_t k = 0; k < count; ++k) {
    const Task& t = tasks_.back();
    E2E_ASSERT(!retired(t.id), "pop_last_tasks: popping a retired task");
    for (auto s = t.subtasks.rbegin(); s != t.subtasks.rend(); ++s) {
      std::vector<SubtaskRef>& plane = per_processor_[s->processor.index()];
      E2E_ASSERT(!plane.empty() && plane.back() == s->ref,
                 "pop_last_tasks: resident list tail is not the popped task");
      plane.pop_back();
    }
    tasks_.pop_back();
  }
  subtask_count_ = before.subtask_count;
  hyperperiod_ = before.hyperperiod;
  max_period_ = before.max_period;
  min_period_ = before.min_period;
  max_phase_ = before.max_phase;
}

void TaskSystem::retire_task(std::size_t index) {
  E2E_ASSERT(index < tasks_.size(), "retire_task: index out of range");
  E2E_ASSERT(!retired(TaskId{static_cast<std::int32_t>(index)}),
             "retire_task: task already retired");
  E2E_ASSERT(tasks_.size() - retired_count_ > 1, "retire_task: cannot retire the last task");

  for (const Subtask& s : tasks_[index].subtasks) {
    std::vector<SubtaskRef>& plane = per_processor_[s.processor.index()];
    const auto it = std::find(plane.begin(), plane.end(), s.ref);
    E2E_ASSERT(it != plane.end(), "retire_task: ref missing from its resident list");
    plane.erase(it);
  }
  if (retired_.size() < tasks_.size()) retired_.resize(tasks_.size(), 0);
  retired_[index] = 1;
  ++retired_count_;

  // The aggregates over the live tasks, by one scan that stops as soon as
  // nothing can move any more. An extremum moves only if the retired task
  // attained it and no live task attains it too. The live lcm divides the
  // old one (a saturated lcm stays saturated), so it is final once the
  // refold reaches the old value.
  const Task& gone = tasks_[index];
  subtask_count_ -= gone.subtasks.size();
  const Duration old_hyperperiod = hyperperiod_;
  bool open_max = gone.period == max_period_;
  bool open_min = gone.period == min_period_;
  bool open_phase = gone.phase == max_phase_ && max_phase_ > 0;
  bool open_lcm = true;
  Duration hyperperiod = 1;
  Duration max_period = 0;
  Duration min_period = kTimeInfinity;
  Time max_phase = 0;
  for (const Task& t : tasks_) {
    if (!(open_lcm || open_max || open_min || open_phase)) break;
    if (retired(t.id)) continue;
    if (open_lcm) {
      hyperperiod = lcm64_saturating(hyperperiod, t.period);
      open_lcm = hyperperiod != old_hyperperiod;
    }
    max_period = std::max(max_period, t.period);
    min_period = std::min(min_period, t.period);
    max_phase = std::max(max_phase, t.phase);
    open_max = open_max && t.period != max_period_;
    open_min = open_min && t.period != min_period_;
    open_phase = open_phase && t.phase != max_phase_;
  }
  // A quantity still open ran the whole scan, so its fold is final.
  hyperperiod_ = hyperperiod;
  if (open_max) max_period_ = max_period;
  if (open_min) min_period_ = min_period;
  if (open_phase) max_phase_ = max_phase;
}

void TaskSystem::compact() {
  if (retired_count_ == 0) return;
  std::vector<std::int32_t> new_id(tasks_.size(), -1);
  std::size_t write = 0;
  for (std::size_t i = 0; i < tasks_.size(); ++i) {
    if (retired(TaskId{static_cast<std::int32_t>(i)})) continue;
    new_id[i] = static_cast<std::int32_t>(write);
    if (write != i) tasks_[write] = std::move(tasks_[i]);
    Task& t = tasks_[write++];
    t.id = TaskId{new_id[i]};
    for (Subtask& s : t.subtasks) s.ref.task = t.id;
  }
  tasks_.erase(tasks_.begin() + static_cast<std::ptrdiff_t>(write), tasks_.end());
  for (auto& plane : per_processor_) {
    for (SubtaskRef& ref : plane) ref.task = TaskId{new_id[ref.task.index()]};
  }
  retired_.clear();
  retired_count_ = 0;
}

double TaskSystem::max_processor_utilization() const {
  double best = 0.0;
  for (std::size_t k = 0; k < processor_count_; ++k) {
    best = std::max(best,
                    processor_utilization(ProcessorId{static_cast<std::int32_t>(k)}));
  }
  return best;
}

}  // namespace e2e
