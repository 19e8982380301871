#include "experiments/paper_example_report.h"

#include <algorithm>
#include <span>

#include "core/analysis/sa_ds.h"
#include "core/analysis/sa_pm.h"
#include "core/protocols/direct_sync.h"
#include "core/protocols/modified_pm.h"
#include "core/protocols/phase_modification.h"
#include "core/protocols/release_guard.h"
#include "report/gantt.h"
#include "report/table.h"
#include "sim/engine.h"
#include "task/paper_examples.h"

namespace e2e {
namespace {

struct ExampleRun {
  SimStats stats;
  std::string gantt;
  std::uint64_t schedule_hash = 0;
  Duration worst_t3_eer = 0;
};

ExampleRun run_example2(SyncProtocol& protocol, Time window) {
  const TaskSystem system = paper::example2();
  GanttRecorder gantt{system, window};
  Engine engine{system, protocol, {.horizon = window}};
  engine.add_sink(&gantt);
  engine.run();
  const std::span<const Duration> t3_eer = engine.eer_series(TaskId{2});
  return ExampleRun{.stats = engine.stats(),
                    .gantt = gantt.render(),
                    .schedule_hash = engine.schedule_hash(),
                    .worst_t3_eer = t3_eer.empty() ? 0 : std::ranges::max(t3_eer)};
}

}  // namespace

void report_example2(std::ostream& out) {
  const TaskSystem system = paper::example2();
  const TaskId t2{1};
  const TaskId t3{2};

  out << "== Paper Example 2 (Figure 2) ==\n"
      << "P1: T1 (4,2) high prio, T2,1 (6,2) low prio; "
      << "P2: T2,2 (6,3) high prio, T3 (6,2) low prio, phase 4\n\n";

  const AnalysisResult pm = analyze_sa_pm(system);
  const SaDsResult ds = analyze_sa_ds(system);

  TextTable analysis({"quantity", "paper", "this library"});
  analysis.add_row({"SA/PM bound R(T2,1)", "4",
                    std::to_string(pm.subtask_bounds.at(SubtaskRef{t2, 0}))});
  analysis.add_row({"PM phase of T2,2", "4",
                    std::to_string(pm.subtask_bounds.at(SubtaskRef{t2, 0}))});
  analysis.add_row({"SA/PM EER bound of T3 (<= deadline 6)", "5",
                    std::to_string(pm.eer_bound(t3))});
  analysis.add_row({"SA/DS EER bound of T3 (> deadline 6)", "7 (*)",
                    std::to_string(ds.analysis.eer_bound(t3))});
  analysis.add_row({"SA/DS EER bound of T2", "-",
                    std::to_string(ds.analysis.eer_bound(t2))});
  out << analysis.to_string()
      << "(*) the paper quotes 7, but Algorithm IEERT's completion times for\n"
         "    T3 are of the form 2+3k, so its bound must be 8 -- and Figure 3\n"
         "    itself shows T3's first instance responding in 8 time units\n"
         "    (released 4, done 12). Our value 8 is the exact fixpoint and a\n"
         "    genuine upper bound; the qualitative conclusion (bound exceeds\n"
         "    the deadline of 6, T3 not assertably schedulable) is unchanged.\n\n";

  const Time window = 24;

  DirectSyncProtocol ds_protocol;
  ExampleRun ds_run = run_example2(ds_protocol, window);
  out << "-- Figure 3: DS schedule (T3's first instance misses its deadline "
         "at 10; completes at 12) --\n"
      << ds_run.gantt << "T3 worst EER: " << ds_run.worst_t3_eer
      << " (deadline 6); end-to-end deadline misses: " << ds_run.stats.deadline_misses
      << "\n\n";

  PhaseModificationProtocol pm_protocol{system, pm.subtask_bounds};
  ExampleRun pm_run = run_example2(pm_protocol, window);
  out << "-- Figure 5: PM schedule (T2,2 phase-shifted to 4; T3 meets its "
         "deadline) --\n"
      << pm_run.gantt << "T3 worst EER: " << pm_run.worst_t3_eer << " (deadline 6)\n\n";

  ModifiedPmProtocol mpm_protocol{system, pm.subtask_bounds};
  ExampleRun mpm_run = run_example2(mpm_protocol, window);
  out << "-- MPM (same schedule as PM under ideal conditions): schedules "
      << (mpm_run.schedule_hash == pm_run.schedule_hash ? "IDENTICAL" : "DIFFER")
      << " --\n\n";

  ReleaseGuardProtocol rg_protocol{system};
  ExampleRun rg_run = run_example2(rg_protocol, window);
  out << "-- Figure 7: RG schedule (second T2,2 released at the idle point "
         "9, not 8; T3 meets its deadline) --\n"
      << rg_run.gantt << "T3 worst EER: " << rg_run.worst_t3_eer << " (deadline 6)\n";
}

void report_example1(std::ostream& out) {
  out << "\n== Paper Example 1: the monitor task (Figure 1) ==\n"
      << "sample -> transfer -> display across field / link / central "
         "processors, with local interference so response bounds exceed "
         "execution times\n\n";
  const TaskSystem system = paper::example1_monitor_with_interference();
  const AnalysisResult pm = analyze_sa_pm(system);
  const TaskId monitor{0};

  TextTable bounds({"subtask", "exec", "SA/PM bound", "PM phase"});
  Time phase = system.task(monitor).phase;
  for (const Subtask& s : system.task(monitor).subtasks) {
    bounds.add_row({s.name, std::to_string(s.execution_time),
                    std::to_string(pm.subtask_bounds.at(s.ref)),
                    std::to_string(phase)});
    phase += pm.subtask_bounds.at(s.ref);
  }
  out << bounds.to_string() << "\n";

  const Time window = 36;
  PhaseModificationProtocol pm_protocol{system, pm.subtask_bounds};
  GanttRecorder pm_gantt{system, window};
  {
    Engine engine{system, pm_protocol, {.horizon = window}};
    engine.add_sink(&pm_gantt);
    engine.run();
  }
  out << "-- Figure 4: PM schedule of the monitor task --\n" << pm_gantt.render(1);

  ModifiedPmProtocol mpm_protocol{system, pm.subtask_bounds};
  GanttRecorder mpm_gantt{system, window};
  {
    Engine engine{system, mpm_protocol, {.horizon = window}};
    engine.add_sink(&mpm_gantt);
    engine.run();
  }
  out << "\n-- Figure 6: MPM schedule (signals delayed to the response-time "
         "bound; same schedule) --\n"
      << mpm_gantt.render(1) << "MPM bound overruns: " << mpm_protocol.overruns()
      << "\n";
}

}  // namespace e2e
