// EerCollector: measures end-to-end response times from a simulation.
//
// The EER time of instance m of task T_i is the completion time of
// T_{i,n_i}(m) minus the release time of T_{i,1}(m) (paper Section 1).
// The collector also reports output jitter -- the difference in the EER
// times of two consecutive instances (Section 2) -- and intermediate
// end-to-end response (IEER) times per subtask when enabled, which the
// tests compare against the analyses' bounds.
#pragma once

#include <optional>
#include <vector>

#include "common/ids.h"
#include "common/time.h"
#include "metrics/stats.h"
#include "sim/trace.h"
#include "task/system.h"

namespace e2e {

class EerCollector final : public TraceSink {
 public:
  struct Options {
    /// Keep the full EER series of every task (memory ~ instances).
    bool keep_series = false;
    /// Track per-subtask IEER statistics, not just task-level EER.
    bool track_ieer = false;
  };

  explicit EerCollector(const TaskSystem& system)
      : EerCollector(system, Options{}) {}
  EerCollector(const TaskSystem& system, Options options);

  void on_release(const Job& job) override;
  void on_complete(const Job& job, Time now) override;

  /// EER statistics of `task` over all completed instances.
  [[nodiscard]] const RunningStats& eer(TaskId task) const;
  /// Observed worst EER across completed instances (== eer(task).max()).
  [[nodiscard]] Duration worst_eer(TaskId task) const;
  /// Mean EER; 0 if no instance completed.
  [[nodiscard]] double average_eer(TaskId task) const;
  /// Number of completed end-to-end instances.
  [[nodiscard]] std::int64_t completed_instances(TaskId task) const;

  /// Output jitter statistics: |EER(m) - EER(m-1)| per consecutive pair.
  [[nodiscard]] const RunningStats& output_jitter(TaskId task) const;

  /// IEER statistics of a subtask (requires Options::track_ieer).
  [[nodiscard]] const RunningStats& ieer(SubtaskRef ref) const;

  /// Full EER series (requires Options::keep_series).
  [[nodiscard]] const std::vector<Duration>& eer_series(TaskId task) const;

  /// Completions that had no matching first release (nonzero only under a
  /// precedence-violating protocol use).
  [[nodiscard]] std::int64_t unmatched_completions() const noexcept {
    return unmatched_completions_;
  }

 private:
  struct PerTask {
    std::vector<Time> first_releases;  // indexed by instance
    RunningStats eer;
    RunningStats jitter;
    std::optional<Duration> previous_eer;
    std::vector<Duration> series;
  };

  const TaskSystem& system_;
  Options options_;
  std::vector<PerTask> per_task_;
  std::vector<std::vector<RunningStats>> ieer_;  // [task][chain index]
  std::int64_t unmatched_completions_ = 0;
};

}  // namespace e2e
