#include "metrics/eer_collector.h"

#include <cmath>

#include "common/error.h"

namespace e2e {

EerCollector::EerCollector(const TaskSystem& system, Options options)
    : system_(system), options_(options) {
  per_task_.resize(system.task_count());
  ieer_.resize(system.task_count());
  for (const Task& t : system.tasks()) {
    ieer_[t.id.index()].resize(t.subtasks.size());
  }
}

void EerCollector::on_release(const Job& job) {
  if (job.ref.index != 0) return;
  auto& releases = per_task_[job.ref.task.index()].first_releases;
  E2E_ASSERT(static_cast<std::int64_t>(releases.size()) == job.instance,
             "first-subtask releases observed out of order");
  releases.push_back(job.release_time);
}

void EerCollector::on_complete(const Job& job, Time now) {
  PerTask& pt = per_task_[job.ref.task.index()];
  if (static_cast<std::size_t>(job.instance) >= pt.first_releases.size()) {
    // Completion ahead of the matching first release: only possible under
    // a precedence-violating protocol use; there is no EER to measure.
    ++unmatched_completions_;
    return;
  }
  const Duration elapsed =
      now - pt.first_releases[static_cast<std::size_t>(job.instance)];

  if (options_.track_ieer) {
    ieer_[job.ref.task.index()][static_cast<std::size_t>(job.ref.index)].add(
        static_cast<double>(elapsed));
  }

  const Task& task = system_.task(job.ref.task);
  if (job.ref.index + 1 != static_cast<std::int32_t>(task.chain_length())) return;

  pt.eer.add(static_cast<double>(elapsed));
  if (pt.previous_eer.has_value()) {
    pt.jitter.add(std::abs(static_cast<double>(elapsed - *pt.previous_eer)));
  }
  pt.previous_eer = elapsed;
  if (options_.keep_series) pt.series.push_back(elapsed);
}

const RunningStats& EerCollector::eer(TaskId task) const {
  return per_task_.at(task.index()).eer;
}

Duration EerCollector::worst_eer(TaskId task) const {
  const RunningStats& s = per_task_.at(task.index()).eer;
  return s.count() > 0 ? static_cast<Duration>(s.max()) : 0;
}

double EerCollector::average_eer(TaskId task) const {
  return per_task_.at(task.index()).eer.mean();
}

std::int64_t EerCollector::completed_instances(TaskId task) const {
  return per_task_.at(task.index()).eer.count();
}

const RunningStats& EerCollector::output_jitter(TaskId task) const {
  return per_task_.at(task.index()).jitter;
}

const RunningStats& EerCollector::ieer(SubtaskRef ref) const {
  E2E_ASSERT(options_.track_ieer, "IEER tracking was not enabled");
  return ieer_.at(ref.task.index()).at(static_cast<std::size_t>(ref.index));
}

const std::vector<Duration>& EerCollector::eer_series(TaskId task) const {
  E2E_ASSERT(options_.keep_series, "EER series tracking was not enabled");
  return per_task_.at(task.index()).series;
}

}  // namespace e2e
