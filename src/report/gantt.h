// GanttRecorder: records a schedule and renders it as ASCII art, one row
// per subtask grouped by processor -- the tool that regenerates the
// paper's schedule figures (3, 4, 5, 6, 7) in the paper-examples report
// (examples/scenarios/paper_examples.e2es).
//
// Cell legend (one cell per `ticks_per_column` ticks):
//   '#'  the subtask executes during (part of) the column
//   '-'  an instance is released but not executing (waiting or preempted)
//   ' '  no live instance
// A column in which an instance is released is marked on the scale row
// above each processor block.
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "sim/trace.h"
#include "task/system.h"

namespace e2e {

class GanttRecorder final : public TraceSink {
 public:
  /// Records only events at or before `t_end` (rendering window).
  explicit GanttRecorder(const TaskSystem& system, Time t_end);

  void on_release(const Job& job) override;
  void on_start(const Job& job, Time now) override;
  void on_preempt(const Job& job, Time now) override;
  void on_complete(const Job& job, Time now) override;

  /// Renders the recorded window.
  [[nodiscard]] std::string render(Time ticks_per_column = 1) const;

  /// Execution segments of one subtask, ordered by time (for tests).
  struct Segment {
    Time begin;
    Time end;
    std::int64_t instance;
    friend bool operator==(const Segment&, const Segment&) = default;
  };
  [[nodiscard]] const std::vector<Segment>& segments(SubtaskRef ref) const;
  [[nodiscard]] const std::vector<Time>& releases(SubtaskRef ref) const;
  [[nodiscard]] const std::vector<Time>& completions(SubtaskRef ref) const;

 private:
  struct PerSubtask {
    std::vector<Segment> segments;
    std::vector<Time> releases;
    std::vector<Time> completions;
    Time open_start = -1;  // start of the in-progress segment, -1 if none
    std::int64_t open_instance = -1;
  };

  [[nodiscard]] PerSubtask& record(SubtaskRef ref);
  [[nodiscard]] const PerSubtask& record(SubtaskRef ref) const;
  void close_segment(const Job& job, Time now);

  const TaskSystem& system_;
  Time t_end_;
  std::vector<std::vector<PerSubtask>> per_subtask_;  // [task][chain index]
};

}  // namespace e2e
