// Property tests: protocol invariants checked over randomized workloads
// (parameterized sweep over seeds and configuration cells).
#include <gtest/gtest.h>

#include "core/analysis/sa_ds.h"
#include "core/analysis/sa_pm.h"
#include "core/protocols/direct_sync.h"
#include "core/protocols/modified_pm.h"
#include "core/protocols/phase_modification.h"
#include "core/protocols/release_guard.h"
#include "metrics/eer_collector.h"
#include "sim/engine.h"
#include "workload/generator.h"

namespace e2e {
namespace {

struct Params {
  std::uint64_t seed;
  int subtasks;
  int utilization;
};

void PrintTo(const Params& p, std::ostream* os) {
  *os << "seed" << p.seed << "_N" << p.subtasks << "_U" << p.utilization;
}

class ProtocolProperty : public ::testing::TestWithParam<Params> {
 protected:
  /// A scaled-down paper workload: 3 processors / 6 tasks keeps each case
  /// fast while preserving chain structure and contention.
  TaskSystem make_system() const {
    const Params& p = GetParam();
    Rng rng{p.seed};
    GeneratorOptions options = options_for(
        {.subtasks_per_task = p.subtasks, .utilization_percent = p.utilization});
    options.processors = 3;
    options.tasks = 6;
    options.ticks_per_unit = 10;  // keep horizons small
    return generate_system(rng, options);
  }

  static Time horizon_for(const TaskSystem& sys) {
    return static_cast<Time>(25.0 * static_cast<double>(sys.max_period()));
  }
};

/// Sink asserting that instance m of subtask j never starts before
/// instance m of subtask j-1 completed (stronger than the engine's
/// release-time check: it looks at starts).
class PrecedenceOracle final : public TraceSink {
 public:
  explicit PrecedenceOracle(const TaskSystem& sys) : sys_(sys) {
    completed_.resize(sys.task_count());
    for (const Task& t : sys.tasks()) completed_[t.id.index()].resize(t.chain_length(), 0);
  }
  void on_start(const Job& job, Time) override {
    if (job.ref.index == 0) return;
    const auto pred_done =
        completed_[job.ref.task.index()][static_cast<std::size_t>(job.ref.index) - 1];
    EXPECT_GT(pred_done, job.instance)
        << "subtask " << job.ref.index << " instance " << job.instance
        << " started before its predecessor completed";
  }
  void on_complete(const Job& job, Time) override {
    ++completed_[job.ref.task.index()][static_cast<std::size_t>(job.ref.index)];
  }

 private:
  const TaskSystem& sys_;
  std::vector<std::vector<std::int64_t>> completed_;
};

TEST_P(ProtocolProperty, DsPreservesPrecedenceAndNeverViolates) {
  const TaskSystem sys = make_system();
  DirectSyncProtocol ds;
  PrecedenceOracle oracle{sys};
  Engine engine{sys, ds, {.horizon = horizon_for(sys)}};
  engine.add_sink(&oracle);
  engine.run();
  EXPECT_EQ(engine.stats().precedence_violations, 0);
}

TEST_P(ProtocolProperty, RgPreservesPrecedence) {
  const TaskSystem sys = make_system();
  ReleaseGuardProtocol rg{sys};
  PrecedenceOracle oracle{sys};
  Engine engine{sys, rg, {.horizon = horizon_for(sys)}};
  engine.add_sink(&oracle);
  engine.run();
  EXPECT_EQ(engine.stats().precedence_violations, 0);
}

TEST_P(ProtocolProperty, PmAndMpmPreservePrecedenceUnderPeriodicArrivals) {
  const TaskSystem sys = make_system();
  const AnalysisResult bounds = analyze_sa_pm(sys);
  if (!bounds.all_bounded()) GTEST_SKIP() << "SA/PM unbounded (not generated at U<=0.9)";
  {
    PhaseModificationProtocol pm{sys, bounds.subtask_bounds};
    Engine engine{sys, pm, {.horizon = horizon_for(sys)}};
    engine.run();
    EXPECT_EQ(engine.stats().precedence_violations, 0);
  }
  {
    ModifiedPmProtocol mpm{sys, bounds.subtask_bounds};
    Engine engine{sys, mpm, {.horizon = horizon_for(sys)}};
    engine.run();
    EXPECT_EQ(engine.stats().precedence_violations, 0);
    EXPECT_EQ(mpm.overruns(), 0);
  }
}

TEST_P(ProtocolProperty, PmAndMpmSchedulesIdenticalUnderIdealConditions) {
  const TaskSystem sys = make_system();
  const AnalysisResult bounds = analyze_sa_pm(sys);
  if (!bounds.all_bounded()) GTEST_SKIP();
  PhaseModificationProtocol pm{sys, bounds.subtask_bounds};
  Engine pm_engine{sys, pm, {.horizon = horizon_for(sys)}};
  pm_engine.run();
  ModifiedPmProtocol mpm{sys, bounds.subtask_bounds};
  Engine mpm_engine{sys, mpm, {.horizon = horizon_for(sys)}};
  mpm_engine.run();
  EXPECT_EQ(pm_engine.schedule_hash(), mpm_engine.schedule_hash());
}

TEST_P(ProtocolProperty, ObservedWorstEerWithinAnalysisBounds) {
  const TaskSystem sys = make_system();
  const AnalysisResult pm_bounds = analyze_sa_pm(sys);
  if (!pm_bounds.all_bounded()) GTEST_SKIP();

  // PM / MPM / RG simulate within the SA/PM (== Theorem 1) bounds.
  const auto check = [&](SyncProtocol& protocol) {
    EerCollector eer{sys};
    Engine engine{sys, protocol, {.horizon = horizon_for(sys)}};
    engine.add_sink(&eer);
    engine.run();
    for (const Task& t : sys.tasks()) {
      EXPECT_LE(eer.worst_eer(t.id), pm_bounds.eer_bound(t.id))
          << protocol.name() << " task " << t.name;
    }
  };
  PhaseModificationProtocol pm{sys, pm_bounds.subtask_bounds};
  ModifiedPmProtocol mpm{sys, pm_bounds.subtask_bounds};
  ReleaseGuardProtocol rg{sys};
  check(pm);
  check(mpm);
  check(rg);

  // DS simulates within the SA/DS bounds for tasks the analysis bounded.
  const SaDsResult ds_bounds = analyze_sa_ds(sys);
  DirectSyncProtocol ds;
  EerCollector eer{sys};
  Engine engine{sys, ds, {.horizon = horizon_for(sys)}};
  engine.add_sink(&eer);
  engine.run();
  for (const Task& t : sys.tasks()) {
    const Duration bound = ds_bounds.analysis.eer_bound(t.id);
    if (is_infinite(bound)) continue;
    EXPECT_LE(eer.worst_eer(t.id), bound) << "DS task " << t.name;
  }
}

TEST_P(ProtocolProperty, RgInterReleaseNeverBelowPeriodWithoutIdleRule) {
  const TaskSystem sys = make_system();
  ReleaseGuardProtocol rg{sys, {.enable_idle_point_rule = false}};
  struct ReleaseSpacing final : TraceSink {
    explicit ReleaseSpacing(const TaskSystem& s) : sys(s) {
      last.resize(s.task_count());
      for (const Task& t : s.tasks()) last[t.id.index()].resize(t.chain_length(), -1);
    }
    void on_release(const Job& job) override {
      Time& previous = last[job.ref.task.index()][static_cast<std::size_t>(job.ref.index)];
      if (previous >= 0) {
        EXPECT_GE(job.release_time - previous, sys.task(job.ref.task).period);
      }
      previous = job.release_time;
    }
    const TaskSystem& sys;
    std::vector<std::vector<Time>> last;
  } spacing{sys};
  Engine engine{sys, rg, {.horizon = horizon_for(sys)}};
  engine.add_sink(&spacing);
  engine.run();
}

TEST_P(ProtocolProperty, AverageEerDsShorterThanPm) {
  // The headline of Figure 14: PM average EER exceeds DS's. Checked on
  // the per-system mean over tasks (individual tasks can tie).
  const TaskSystem sys = make_system();
  const AnalysisResult bounds = analyze_sa_pm(sys);
  if (!bounds.all_bounded()) GTEST_SKIP();
  const auto mean_eer = [&](SyncProtocol& protocol) {
    EerCollector eer{sys};
    Engine engine{sys, protocol, {.horizon = horizon_for(sys)}};
    engine.add_sink(&eer);
    engine.run();
    double sum = 0.0;
    int counted = 0;
    for (const Task& t : sys.tasks()) {
      if (eer.completed_instances(t.id) > 0) {
        sum += eer.average_eer(t.id);
        ++counted;
      }
    }
    return counted > 0 ? sum / counted : 0.0;
  };
  DirectSyncProtocol ds;
  PhaseModificationProtocol pm{sys, bounds.subtask_bounds};
  // Small tolerance: the ordering is a statistical claim (paper Figure
  // 14), not a per-schedule theorem.
  EXPECT_LE(mean_eer(ds), mean_eer(pm) * 1.02);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ProtocolProperty,
    ::testing::Values(Params{1, 2, 50}, Params{2, 3, 60}, Params{3, 4, 70},
                      Params{4, 5, 80}, Params{5, 6, 90}, Params{6, 8, 70},
                      Params{7, 2, 90}, Params{8, 6, 50}, Params{9, 4, 90},
                      Params{10, 8, 90}, Params{11, 3, 80}, Params{12, 5, 60}),
    [](const ::testing::TestParamInfo<Params>& param_info) {
      return "seed" + std::to_string(param_info.param.seed) + "_N" +
             std::to_string(param_info.param.subtasks) + "_U" +
             std::to_string(param_info.param.utilization);
    });

}  // namespace
}  // namespace e2e
