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

void TaskSystem::remove_task(std::size_t index) {
  E2E_ASSERT(index < tasks_.size(), "remove_task: index out of range");
  E2E_ASSERT(tasks_.size() > 1, "remove_task: cannot remove the last task");

  const auto removed = static_cast<std::int32_t>(index);
  for (auto& plane : per_processor_) {
    std::size_t write = 0;
    for (SubtaskRef ref : plane) {
      if (ref.task.value() == removed) continue;
      if (ref.task.value() > removed) ref.task = TaskId{ref.task.value() - 1};
      plane[write++] = ref;
    }
    plane.resize(write);
  }

  tasks_.erase(tasks_.begin() + static_cast<std::ptrdiff_t>(index));
  for (std::size_t i = index; i < tasks_.size(); ++i) {
    Task& t = tasks_[i];
    t.id = TaskId{static_cast<std::int32_t>(i)};
    for (Subtask& s : t.subtasks) s.ref.task = t.id;
  }

  subtask_count_ = 0;
  hyperperiod_ = 1;
  max_period_ = 0;
  min_period_ = kTimeInfinity;
  max_phase_ = 0;
  for (const Task& t : tasks_) {
    subtask_count_ += t.subtasks.size();
    hyperperiod_ = lcm64_saturating(hyperperiod_, t.period);
    max_period_ = std::max(max_period_, t.period);
    min_period_ = std::min(min_period_, t.period);
    max_phase_ = std::max(max_phase_, t.phase);
  }
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
