#include "sim/engine.h"

#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "core/analysis/sa_pm.h"
#include "core/protocols/direct_sync.h"
#include "core/protocols/factory.h"
#include "core/protocols/phase_modification.h"
#include "metrics/eer_collector.h"
#include "sim/fault/fault_injector.h"
#include "task/builder.h"
#include "task/paper_examples.h"
#include "workload/generator.h"

namespace e2e {
namespace {

/// Protocol that never releases successors (fine for single-subtask tasks).
class NullProtocol final : public SyncProtocol {
 public:
  [[nodiscard]] std::string_view name() const override { return "null"; }
};

/// Records every callback as a readable string.
class EventLog final : public TraceSink {
 public:
  void on_release(const Job& job) override { add("release", job, job.release_time); }
  void on_start(const Job& job, Time now) override { add("start", job, now); }
  void on_preempt(const Job& job, Time now) override { add("preempt", job, now); }
  void on_complete(const Job& job, Time now) override { add("complete", job, now); }
  void on_idle_point(ProcessorId, Time now) override {
    entries.push_back("idle@" + std::to_string(now));
  }

  std::vector<std::string> entries;

 private:
  void add(const char* kind, const Job& job, Time now) {
    entries.push_back(std::string(kind) + " T" +
                      std::to_string(job.ref.task.value() + 1) + "," +
                      std::to_string(job.ref.index + 1) + "#" +
                      std::to_string(job.instance) + "@" + std::to_string(now));
  }
};

/// Sets one timer at `at` and logs its firing into `log`, interleaved
/// with whatever a sink writes there.
class TimerProbe final : public SyncProtocol {
 public:
  TimerProbe(Time at, std::vector<std::string>& log) : at_(at), log_(&log) {}
  [[nodiscard]] std::string_view name() const override { return "timer-probe"; }
  void initialize(Engine& engine) override {
    engine.set_timer(at_, SubtaskRef{TaskId{0}, 0}, 0);
  }
  void on_timer(Engine& engine, SubtaskRef, std::int64_t) override {
    log_->push_back("timer@" + std::to_string(engine.now()));
  }

 private:
  Time at_;
  std::vector<std::string>* log_;
};

TEST(Engine, SingleTaskRunsPeriodically) {
  TaskSystemBuilder b{1};
  b.add_task({.period = 10, .phase = 2}).subtask(ProcessorId{0}, 3, Priority{0});
  const TaskSystem sys = std::move(b).build();
  NullProtocol protocol;
  EventLog log;
  Engine engine{sys, protocol, {.horizon = 25}};
  engine.add_sink(&log);
  engine.run();

  const std::vector<std::string> expected = {
      "release T1,1#0@2",  "start T1,1#0@2",  "complete T1,1#0@5",  "idle@5",
      "release T1,1#1@12", "start T1,1#1@12", "complete T1,1#1@15", "idle@15",
      "release T1,1#2@22", "start T1,1#2@22", "complete T1,1#2@25", "idle@25"};
  EXPECT_EQ(log.entries, expected);
  EXPECT_EQ(engine.stats().jobs_released, 3);
  EXPECT_EQ(engine.stats().jobs_completed, 3);
  EXPECT_EQ(engine.stats().preemptions, 0);
}

TEST(Engine, PreemptionByHigherPriority) {
  TaskSystemBuilder b{1};
  b.add_task({.period = 100, .phase = 2, .name = "hi"})
      .subtask(ProcessorId{0}, 3, Priority{0});
  b.add_task({.period = 100, .phase = 0, .name = "lo"})
      .subtask(ProcessorId{0}, 4, Priority{1});
  const TaskSystem sys = std::move(b).build();
  NullProtocol protocol;
  EventLog log;
  Engine engine{sys, protocol, {.horizon = 50}};
  engine.add_sink(&log);
  engine.run();

  // lo runs 0-2, preempted; hi runs 2-5; lo resumes 5-7.
  const std::vector<std::string> expected = {
      "release T2,1#0@0", "start T2,1#0@0",    "release T1,1#0@2",
      "preempt T2,1#0@2", "start T1,1#0@2",    "complete T1,1#0@5",
      "start T2,1#0@5",   "complete T2,1#0@7", "idle@7"};
  EXPECT_EQ(log.entries, expected);
  EXPECT_EQ(engine.stats().preemptions, 1);
  EXPECT_EQ(engine.stats().dispatches, 3);  // two starts + one resume
}

TEST(Engine, NoPreemptionAmongEqualPriorityFifo) {
  TaskSystemBuilder b{1};
  b.add_task({.period = 100, .phase = 0}).subtask(ProcessorId{0}, 4, Priority{0});
  b.add_task({.period = 100, .phase = 1}).subtask(ProcessorId{0}, 2, Priority{0});
  const TaskSystem sys = std::move(b).build();
  NullProtocol protocol;
  EventLog log;
  Engine engine{sys, protocol, {.horizon = 20}};
  engine.add_sink(&log);
  engine.run();
  // Task 2 arrives at 1 with equal priority: no preemption, runs after.
  const std::vector<std::string> expected = {
      "release T1,1#0@0",  "start T1,1#0@0", "release T2,1#0@1",
      "complete T1,1#0@4", "start T2,1#0@4", "complete T2,1#0@6",
      "idle@6"};
  EXPECT_EQ(log.entries, expected);
  EXPECT_EQ(engine.stats().preemptions, 0);
}

TEST(Engine, EqualPriorityTieBrokenByReleaseTimeThenSeq) {
  TaskSystemBuilder b{1};
  b.add_task({.period = 100, .phase = 5}).subtask(ProcessorId{0}, 2, Priority{0});
  b.add_task({.period = 100, .phase = 5}).subtask(ProcessorId{0}, 2, Priority{0});
  const TaskSystem sys = std::move(b).build();
  NullProtocol protocol;
  EventLog log;
  Engine engine{sys, protocol, {.horizon = 20}};
  engine.add_sink(&log);
  engine.run();
  // Same priority, same release time: the global release sequence (task
  // id order here) breaks the tie. Dispatch happens once per instant,
  // after both simultaneous releases.
  const std::vector<std::string> expected = {
      "release T1,1#0@5",  "release T2,1#0@5", "start T1,1#0@5",
      "complete T1,1#0@7", "start T2,1#0@7",   "complete T2,1#0@9",
      "idle@9"};
  EXPECT_EQ(log.entries, expected);
}

TEST(Engine, ChainReleaseViaDirectSync) {
  TaskSystemBuilder b{2};
  b.add_task({.period = 20})
      .subtask(ProcessorId{0}, 2, Priority{0})
      .subtask(ProcessorId{1}, 3, Priority{0});
  const TaskSystem sys = std::move(b).build();
  DirectSyncProtocol protocol;
  EventLog log;
  Engine engine{sys, protocol, {.horizon = 10}};
  engine.add_sink(&log);
  engine.run();
  const std::vector<std::string> expected = {
      "release T1,1#0@0",  "start T1,1#0@0",    "complete T1,1#0@2", "idle@2",
      "release T1,2#0@2",  "start T1,2#0@2",    "complete T1,2#0@5", "idle@5"};
  EXPECT_EQ(log.entries, expected);
  EXPECT_EQ(engine.stats().sync_signals, 1);
  EXPECT_EQ(engine.stats().precedence_violations, 0);
}

TEST(Engine, HorizonCutsOffEvents) {
  TaskSystemBuilder b{1};
  b.add_task({.period = 10}).subtask(ProcessorId{0}, 9, Priority{0});
  const TaskSystem sys = std::move(b).build();
  NullProtocol protocol;
  Engine engine{sys, protocol, {.horizon = 25}};
  engine.run();
  // Releases at 0, 10, 20; the instance released at 20 completes at 29 >
  // horizon, so only two completions are observed.
  EXPECT_EQ(engine.stats().jobs_released, 3);
  EXPECT_EQ(engine.stats().jobs_completed, 2);
}

TEST(Engine, DeadlineMissesCounted) {
  TaskSystemBuilder b{1};
  b.add_task({.period = 10, .deadline = 3}).subtask(ProcessorId{0}, 4, Priority{0});
  const TaskSystem sys = std::move(b).build();
  NullProtocol protocol;
  Engine engine{sys, protocol, {.horizon = 40}};
  engine.run();
  // Every instance responds in 4 > deadline 3.
  EXPECT_EQ(engine.stats().deadline_misses, engine.stats().jobs_completed);
}

TEST(Engine, FirstReleaseTimesRecorded) {
  TaskSystemBuilder b{1};
  b.add_task({.period = 7, .phase = 3}).subtask(ProcessorId{0}, 1, Priority{0});
  const TaskSystem sys = std::move(b).build();
  NullProtocol protocol;
  Engine engine{sys, protocol, {.horizon = 20}};
  engine.run();
  EXPECT_EQ(engine.first_release_time(TaskId{0}, 0), 3);
  EXPECT_EQ(engine.first_release_time(TaskId{0}, 1), 10);
  EXPECT_EQ(engine.first_release_time(TaskId{0}, 2), 17);
  EXPECT_EQ(engine.first_release_time(TaskId{0}, 3), std::nullopt);
}

TEST(Engine, CompletedAndReleasedCounters) {
  TaskSystemBuilder b{1};
  b.add_task({.period = 5}).subtask(ProcessorId{0}, 2, Priority{0});
  const TaskSystem sys = std::move(b).build();
  NullProtocol protocol;
  Engine engine{sys, protocol, {.horizon = 22}};
  engine.run();
  const SubtaskRef ref{TaskId{0}, 0};
  EXPECT_EQ(engine.released_instances(ref), 5);  // 0,5,10,15,20
  EXPECT_EQ(engine.completed_instances(ref), 5);  // last completes at 22
}

TEST(Engine, DeterministicAcrossRuns) {
  TaskSystemBuilder b1{2};
  b1.add_task({.period = 7})
      .subtask(ProcessorId{0}, 2, Priority{0})
      .subtask(ProcessorId{1}, 3, Priority{0});
  b1.add_task({.period = 5}).subtask(ProcessorId{1}, 1, Priority{1});
  const TaskSystem sys = std::move(b1).build();

  const auto run_once = [&]() {
    DirectSyncProtocol protocol;
    EventLog log;
    Engine engine{sys, protocol, {.horizon = 200}};
    engine.add_sink(&log);
    engine.run();
    return log.entries;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Engine, BusyTimeAccountsAllExecution) {
  // P0 runs 2 ticks every 10 over [0, 40]; with preemption on P0 the
  // accounting must still add up to completed work.
  TaskSystemBuilder b{2};
  b.add_task({.period = 10, .phase = 1}).subtask(ProcessorId{0}, 2, Priority{0});
  b.add_task({.period = 20, .phase = 0}).subtask(ProcessorId{0}, 7, Priority{1});
  b.add_task({.period = 40, .phase = 0}).subtask(ProcessorId{1}, 5, Priority{0});
  const TaskSystem sys = std::move(b).build();
  NullProtocol protocol;
  Engine engine{sys, protocol, {.horizon = 40}};
  engine.run();
  // P0 work in [0,40]: task1 instances at 1,11,21,31 (2 each, all done by
  // 40) + task2 instances at 0,20 (7 each): 8 + 14 = 22.
  EXPECT_EQ(engine.busy_time(ProcessorId{0}), 22);
  // P1: instances at 0 and 40; the one at 40 has not run yet.
  EXPECT_EQ(engine.busy_time(ProcessorId{1}), 5);
  EXPECT_GT(engine.stats().preemptions, 0);  // the scenario really preempts
}

TEST(Engine, SameInstantCompletionsRetireInDispatchOrderFirst) {
  // Three processors finish at t=10. They were dispatched P2 (t=0), P0
  // (t=2), P1 (t=4), so the completions retire in that order rather than
  // by processor index -- and all of them before the timer and the
  // release that share the instant.
  TaskSystemBuilder b{3};
  b.add_task({.period = 100, .phase = 0}).subtask(ProcessorId{2}, 10, Priority{0});
  b.add_task({.period = 100, .phase = 2}).subtask(ProcessorId{0}, 8, Priority{0});
  b.add_task({.period = 100, .phase = 4}).subtask(ProcessorId{1}, 6, Priority{0});
  b.add_task({.period = 100, .phase = 10}).subtask(ProcessorId{0}, 1, Priority{0});
  const TaskSystem sys = std::move(b).build();
  EventLog log;
  TimerProbe protocol{10, log.entries};
  Engine engine{sys, protocol, {.horizon = 20}};
  engine.add_sink(&log);
  engine.run();

  const std::vector<std::string> expected = {
      "release T1,1#0@0",   "start T1,1#0@0",   "release T2,1#0@2",
      "start T2,1#0@2",     "release T3,1#0@4", "start T3,1#0@4",
      "complete T1,1#0@10", "idle@10",          "complete T2,1#0@10",
      "idle@10",            "complete T3,1#0@10", "idle@10",
      "timer@10",           "release T4,1#0@10", "start T4,1#0@10",
      "complete T4,1#0@11", "idle@11"};
  EXPECT_EQ(log.entries, expected);
  EXPECT_EQ(engine.stats().timer_interrupts, 1);
}

/// Logs timer firings as "timer#<instance>@<now>"; the hooks below arm
/// them.
class ScriptedTimers : public SyncProtocol {
 public:
  explicit ScriptedTimers(std::vector<std::string>& log) : log_(&log) {}
  [[nodiscard]] std::string_view name() const override { return "scripted"; }
  void on_timer(Engine& engine, SubtaskRef, std::int64_t instance) override {
    log_->push_back("timer#" + std::to_string(instance) + "@" +
                    std::to_string(engine.now()));
  }

 private:
  std::vector<std::string>* log_;
};

TEST(Engine, SameInstantTimerFromAReleaseRunsBeforeTheRemainingReleases) {
  // Three arrivals share t=10. The first one's release handler arms a
  // timer for t=10 itself: the timer phase precedes the release phase, so
  // it fires before the two arrivals still queued for the instant.
  class TimerOnFirstRelease final : public ScriptedTimers {
   public:
    using ScriptedTimers::ScriptedTimers;
    void on_job_released(Engine& engine, const Job& job) override {
      if (job.ref.task == TaskId{0}) engine.set_timer(engine.now(), job.ref, 7);
    }
  };
  TaskSystemBuilder b{3};
  for (std::int32_t p = 0; p < 3; ++p) {
    b.add_task({.period = 100, .phase = 10}).subtask(ProcessorId{p}, 1, Priority{0});
  }
  const TaskSystem sys = std::move(b).build();
  EventLog log;
  TimerOnFirstRelease protocol{log.entries};
  Engine engine{sys, protocol, {.horizon = 10}};
  engine.add_sink(&log);
  engine.run();

  const std::vector<std::string> expected = {
      "release T1,1#0@10", "timer#7@10",        "release T2,1#0@10",
      "release T3,1#0@10", "start T1,1#0@10",   "start T2,1#0@10",
      "start T3,1#0@10"};
  EXPECT_EQ(log.entries, expected);
  EXPECT_EQ(engine.stats().timer_interrupts, 1);
  EXPECT_EQ(engine.stats().events_processed, 4);
}

TEST(Engine, ReleaseNowFromACompletionRunsAfterTheInstantsQueuedReleases) {
  // T1,1 completes at t=10, where two arrivals are already queued. DS
  // releases T1,2 from the completion handler; that release is created
  // during the instant, so it comes after both queued arrivals.
  TaskSystemBuilder b{3};
  b.add_task({.period = 100})
      .subtask(ProcessorId{0}, 10, Priority{0})
      .subtask(ProcessorId{1}, 1, Priority{0});
  b.add_task({.period = 100, .phase = 10}).subtask(ProcessorId{1}, 1, Priority{1});
  b.add_task({.period = 100, .phase = 10}).subtask(ProcessorId{2}, 1, Priority{0});
  const TaskSystem sys = std::move(b).build();
  EventLog log;
  DirectSyncProtocol protocol;
  Engine engine{sys, protocol, {.horizon = 10}};
  engine.add_sink(&log);
  engine.run();

  const std::vector<std::string> expected = {
      "release T1,1#0@0",  "start T1,1#0@0",    "complete T1,1#0@10",
      "idle@10",           "release T2,1#0@10", "release T3,1#0@10",
      "release T1,2#0@10", "start T1,2#0@10",   "start T3,1#0@10"};
  EXPECT_EQ(log.entries, expected);
  EXPECT_EQ(engine.stats().sync_signals, 1);
}

TEST(Engine, EventsScheduledAtZeroDuringInitializeKeepTheirHeapOrder) {
  // initialize() schedules, in this order, a release of T4, a timer, a
  // release of T3 and a timer, all for t=0. No instant is open yet, so
  // they go through the heap: at t=0 the timers fire first, then the
  // releases, each in scheduling order.
  // T3 and T4 never arrive (phase beyond the horizon); T1's first arrival
  // is at t=5, so nothing else shares t=0.
  class ScheduleAtZero final : public ScriptedTimers {
   public:
    using ScriptedTimers::ScriptedTimers;
    void initialize(Engine& engine) override {
      engine.schedule_release(SubtaskRef{TaskId{3}, 0}, 0, 0);
      engine.set_timer(0, SubtaskRef{TaskId{0}, 0}, 1);
      engine.schedule_release(SubtaskRef{TaskId{2}, 0}, 0, 0);
      engine.set_timer(0, SubtaskRef{TaskId{0}, 0}, 2);
    }
  };
  TaskSystemBuilder b{3};
  b.add_task({.period = 100, .phase = 5}).subtask(ProcessorId{0}, 1, Priority{0});
  b.add_task({.period = 100, .phase = 5}).subtask(ProcessorId{1}, 1, Priority{0});
  b.add_task({.period = 100, .phase = 50}).subtask(ProcessorId{2}, 1, Priority{0});
  b.add_task({.period = 100, .phase = 50}).subtask(ProcessorId{0}, 1, Priority{0});
  const TaskSystem sys = std::move(b).build();
  EventLog log;
  ScheduleAtZero protocol{log.entries};
  Engine engine{sys, protocol, {.horizon = 5}};
  engine.add_sink(&log);
  engine.run();

  const std::vector<std::string> expected = {
      "timer#1@0",         "timer#2@0",       "release T4,1#0@0",
      "release T3,1#0@0",  "start T4,1#0@0",  "start T3,1#0@0",
      "complete T4,1#0@1", "idle@1",          "complete T3,1#0@1",
      "idle@1",            "release T1,1#0@5", "release T2,1#0@5",
      "start T1,1#0@5",    "start T2,1#0@5"};
  EXPECT_EQ(log.entries, expected);
}

TEST(Engine, DroppedCompletionInsideHorizonCountsAsAnEvent) {
  // lo starts at 0 with its completion due at 10; hi preempts it at 2, so
  // that completion is dropped (lo resumes at 5 and would finish at 13).
  TaskSystemBuilder b{1};
  b.add_task({.period = 100, .phase = 2, .name = "hi"})
      .subtask(ProcessorId{0}, 3, Priority{0});
  b.add_task({.period = 100, .phase = 0, .name = "lo"})
      .subtask(ProcessorId{0}, 10, Priority{1});
  const TaskSystem sys = std::move(b).build();
  NullProtocol protocol;

  // Inside the horizon: the arrivals at 0 and 2, hi's completion at 5,
  // plus the dropped completion at 10, which also ends the clock there.
  Engine inside{sys, protocol, {.horizon = 10}};
  inside.run();
  EXPECT_EQ(inside.stats().preemptions, 1);
  EXPECT_EQ(inside.stats().events_processed, 4);
  EXPECT_EQ(inside.now(), 10);
  // lo ran 0-2, hi 2-5, and lo is credited 5-10 in flight.
  EXPECT_EQ(inside.busy_time(ProcessorId{0}), 10);

  // Past the horizon: the dropped completion neither counts nor moves
  // the clock past hi's completion.
  Engine past{sys, protocol, {.horizon = 9}};
  past.run();
  EXPECT_EQ(past.stats().preemptions, 1);
  EXPECT_EQ(past.stats().events_processed, 3);
  EXPECT_EQ(past.now(), 5);
  EXPECT_EQ(past.busy_time(ProcessorId{0}), 5);
}

/// Runs `engine` with an EerCollector{keep_series} attached -- the
/// reference the engine-owned series replaced in the Monte-Carlo driver --
/// and expects both series to be equal, task by task.
struct SeriesCheck {
  std::int64_t unmatched = 0;  ///< the collector's unmatched completions
  std::size_t samples = 0;     ///< EER samples compared
};
SeriesCheck expect_series_match(const TaskSystem& sys, Engine& engine,
                                const std::string& label) {
  EerCollector eer{sys, {.keep_series = true}};
  engine.add_sink(&eer);
  engine.run();
  SeriesCheck check{.unmatched = eer.unmatched_completions()};
  for (const Task& t : sys.tasks()) {
    const std::span<const Duration> series = engine.eer_series(t.id);
    EXPECT_EQ(std::vector<Duration>(series.begin(), series.end()), eer.eer_series(t.id))
        << label << " task " << t.name;
    check.samples += series.size();
  }
  return check;
}

/// make_protocol, or nullptr for a PM-family protocol on a system without
/// finite SA/PM bounds.
std::unique_ptr<SyncProtocol> protocol_or_null(ProtocolKind kind, const TaskSystem& sys) {
  try {
    return make_protocol(kind, sys);
  } catch (const InvalidArgument&) {
    return nullptr;
  }
}

TaskSystem series_system(std::uint64_t seed) {
  Rng rng{seed};
  GeneratorOptions options;
  options.processors = 3;
  options.tasks = 5;
  options.subtasks_per_task = 3;
  options.utilization = 0.6;
  return generate_system(rng, options);
}

TEST(Engine, EerSeriesMatchesEerCollector) {
  std::size_t compared = 0;
  // Returns how many of the six protocols could run on `sys`.
  const auto check_all = [&](const std::string& label, const TaskSystem& sys) {
    int runs = 0;
    for (const ProtocolKind kind : kSelectableProtocolKinds) {
      const auto protocol = protocol_or_null(kind, sys);
      if (protocol == nullptr) continue;
      Engine engine{sys, *protocol, {.horizon = sys.max_phase() + sys.horizon_ticks(10.0)}};
      compared +=
          expect_series_match(sys, engine, label + " " + std::string(to_string(kind)))
              .samples;
      ++runs;
    }
    return runs;
  };
  EXPECT_EQ(check_all("example2", paper::example2()), 6);
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    check_all("seed " + std::to_string(seed), series_system(seed));
  }
  EXPECT_GT(compared, 0u);
}

TEST(Engine, EerSeriesMatchesEerCollectorUnderDeferredReleases) {
  // Faulted channel and skewed clocks with kDeferRelease: held-back
  // releases complete late, and the series must still match.
  std::int64_t deferred = 0;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const TaskSystem sys = series_system(seed);
    for (const ProtocolKind kind : kSelectableProtocolKinds) {
      const auto protocol = protocol_or_null(kind, sys);
      if (protocol == nullptr) continue;
      FaultPlan plan;
      plan.seed = 0xDEFu + seed;
      plan.clock_offset_max = 2000;
      plan.drift_ppm_max = 200;
      plan.signal_loss_prob = 0.1;
      plan.signal_delay_max = 1500;
      plan.signal_duplicate_prob = 0.05;
      plan.timer_jitter_max = 300;
      FaultInjector faults{sys, plan};
      Engine engine{sys,
                    *protocol,
                    {.horizon = sys.max_phase() + sys.horizon_ticks(10.0),
                     .faults = &faults,
                     .precedence_policy = PrecedencePolicy::kDeferRelease}};
      expect_series_match(sys, engine,
                          "seed " + std::to_string(seed) + " " +
                              std::string(to_string(kind)) + " faulted");
      deferred += engine.stats().deferred_releases;
    }
  }
  EXPECT_GT(deferred, 0) << "no release was ever deferred";
}

TEST(Engine, EerSeriesSkipsCompletionsAheadOfTheirFirstRelease) {
  // PM under sporadic arrivals (paper Section 3.1's failure mode) completes
  // last subtasks whose first-subtask instance has not arrived yet; those
  // have no EER, in the engine's series as in the collector's.
  const TaskSystem sys = paper::example1_monitor_with_interference();
  const AnalysisResult bounds = analyze_sa_pm(sys);
  PhaseModificationProtocol pm{sys, bounds.subtask_bounds};
  SporadicArrivals arrivals{Rng{7}, sys.min_period()};
  Engine engine{sys, pm, {.horizon = 5000, .arrivals = &arrivals}};
  const SeriesCheck check = expect_series_match(sys, engine, "PM sporadic");
  EXPECT_GT(check.unmatched, 0);
  EXPECT_GT(check.samples, 0u);
}

TEST(Engine, EerSeriesIsRewoundByReset) {
  const TaskSystem sys = paper::example2();
  DirectSyncProtocol ds;
  const EngineOptions options{.horizon = 30 * sys.max_period()};
  Engine fresh{sys, ds, options};
  fresh.run();
  Engine reused{sys, ds, {.horizon = 7 * sys.max_period()}};
  reused.run();
  reused.reset(ds, options);
  reused.run();
  for (const Task& t : sys.tasks()) {
    const std::span<const Duration> a = fresh.eer_series(t.id);
    const std::span<const Duration> b = reused.eer_series(t.id);
    EXPECT_EQ(std::vector<Duration>(a.begin(), a.end()),
              std::vector<Duration>(b.begin(), b.end()))
        << t.name;
  }
}

TEST(EngineDeathTest, RunTwiceAborts) {
  TaskSystemBuilder b{1};
  b.add_task({.period = 5}).subtask(ProcessorId{0}, 1, Priority{0});
  const TaskSystem sys = std::move(b).build();
  NullProtocol protocol;
  Engine engine{sys, protocol, {.horizon = 10}};
  engine.run();
  EXPECT_DEATH(engine.run(), "run may be called only once");
}

TEST(EngineDeathTest, ZeroHorizonAborts) {
  TaskSystemBuilder b{1};
  b.add_task({.period = 5}).subtask(ProcessorId{0}, 1, Priority{0});
  const TaskSystem sys = std::move(b).build();
  NullProtocol protocol;
  EXPECT_DEATH((Engine{sys, protocol, {.horizon = 0}}), "horizon must be positive");
}

}  // namespace
}  // namespace e2e
