// TimeService behaviour: config grammar diagnostics, servo convergence
// over the plan's clock-parameter range, monotone holdover uncertainty
// through a partition window, and stratum failover when the primary
// reference goes silent. See src/sim/timesvc/time_service.h for the
// discipline rules under test.
#include "sim/timesvc/time_service.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "common/error.h"
#include "sim/fault/fault_injector.h"
#include "sim/timesvc/timesvc_config.h"
#include "task/paper_examples.h"

namespace e2e {
namespace {

TimeServiceConfig test_config(Duration interval = 1'000) {
  TimeServiceConfig config;
  config.sync_interval = interval;
  return config;
}

TEST(TimeServiceConfig, DisabledByDefault) {
  const TimeServiceConfig config;
  EXPECT_FALSE(config.enabled());
  EXPECT_EQ(write_timesvc_config(config), "-");
  EXPECT_EQ(parse_timesvc_config("-"), config);
}

TEST(TimeServiceConfig, ParseRoundTrip) {
  const TimeServiceConfig config = parse_timesvc_config(
      "interval=500, slew-ppm=40000, holdover-ppm=5, backup-offset=9, "
      "holdover-after=4, failover-after=7");
  EXPECT_EQ(config.sync_interval, 500);
  EXPECT_EQ(config.max_slew_ppm, 40'000);
  EXPECT_EQ(config.holdover_ppm, 5);
  EXPECT_EQ(config.backup_offset, 9);
  EXPECT_EQ(config.holdover_after, 4);
  EXPECT_EQ(config.failover_after, 7);
  EXPECT_TRUE(config.enabled());
  EXPECT_EQ(parse_timesvc_config(write_timesvc_config(config)), config);
}

TEST(TimeServiceConfig, ParseRejectsDuplicateKeys) {
  try {
    (void)parse_timesvc_config("interval=5,slew-ppm=100,interval=6");
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("duplicate timesvc key 'interval'"), std::string::npos);
  }
}

TEST(TimeServiceConfig, ParseErrorsNameTheKeyAndListKnownKeys) {
  try {
    (void)parse_timesvc_config("intervall=5");
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("intervall"), std::string::npos);
    EXPECT_NE(what.find("known:"), std::string::npos);
    EXPECT_NE(what.find("interval"), std::string::npos);
  }
  EXPECT_THROW((void)parse_timesvc_config("interval=abc"), InvalidArgument);
  EXPECT_THROW((void)parse_timesvc_config("interval"), InvalidArgument);
}

TEST(TimeServiceConfig, OverflowIsAnErrorNamingTheKey) {
  // strtoll used to saturate this to INT64_MAX without a word.
  try {
    (void)parse_timesvc_config("interval=99999999999999999999");
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    EXPECT_STREQ(e.what(), "timesvc key 'interval' is out of range: '99999999999999999999'");
  }
  EXPECT_THROW((void)parse_timesvc_config("slew-ppm=+5"), InvalidArgument);
}

TEST(TimeServiceConfig, ValidateRejectsBadValues) {
  EXPECT_THROW((TimeServiceConfig{.sync_interval = -1}).validate(),
               InvalidArgument);
  EXPECT_THROW(
      (TimeServiceConfig{.sync_interval = 5, .max_slew_ppm = 0}).validate(),
      InvalidArgument);
  EXPECT_THROW((TimeServiceConfig{.holdover_ppm = 1'000'000}).validate(),
               InvalidArgument);
  EXPECT_THROW((TimeServiceConfig{.holdover_after = 0}).validate(),
               InvalidArgument);
  EXPECT_THROW((TimeServiceConfig{.failover_after = 0}).validate(),
               InvalidArgument);
  EXPECT_NO_THROW(test_config().validate());
}

TEST(TimeService, PerfectClocksMeasureZero) {
  const TaskSystem sys = paper::example2();
  TimeService svc{sys, /*faults=*/nullptr, test_config()};
  svc.advance_all(100'000);
  for (std::size_t p = 0; p < sys.processor_count(); ++p) {
    const ProcessorId pid{static_cast<std::int32_t>(p)};
    EXPECT_EQ(svc.estimate_now(pid, 100'000), 100'000);
    EXPECT_EQ(svc.plan_alarm(pid, 100'000, 150'000), 150'000);
    // Alarms never land in the past, whatever the target.
    EXPECT_EQ(svc.plan_alarm(pid, 100'000, 50'000), 100'000);
    EXPECT_EQ(svc.drift_estimate_ppm(pid), 0);
    EXPECT_FALSE(svc.in_holdover(pid));
    const TimeService::ProcessorStats& stats = svc.stats(pid);
    EXPECT_GT(stats.exchanges, 0);
    EXPECT_EQ(stats.failures, 0);
    EXPECT_EQ(stats.abs_error_max, 0);
  }
}

// Property: over the plan's whole clock-parameter range the servo
// converges -- the estimated clock ends within a few ticks of the
// reference even though the raw local clock is off by up to
// offset + drift * horizon.
TEST(TimeService, ServoConvergesOverPlanRange) {
  const TaskSystem sys = paper::example2();
  const Time horizon = 200'000;
  for (const std::uint64_t seed : {3u, 7u, 11u, 19u, 23u}) {
    FaultPlan plan;
    plan.seed = seed;
    plan.clock_offset_max = 1'000;
    plan.drift_ppm_max = 500;
    const FaultInjector faults{sys, plan};
    TimeService svc{sys, &faults, test_config()};
    svc.advance_all(horizon);
    for (std::size_t p = 0; p < sys.processor_count(); ++p) {
      const ProcessorId pid{static_cast<std::int32_t>(p)};
      SCOPED_TRACE("seed " + std::to_string(seed) + " processor " +
                   std::to_string(p));
      const Duration raw_error = faults.local_clock_error(pid, horizon);
      const Duration residual = svc.estimate_now(pid, horizon) - horizon;
      // The raw clock may be off by up to 1000 + 0.0005 * 200000 = 1100
      // ticks; the estimate must end close to the truth.
      EXPECT_LE(std::abs(residual), 50)
          << "raw clock error was " << raw_error;
      // The drift estimate tracks the injected rate.
      EXPECT_LE(std::abs(svc.drift_estimate_ppm(pid) -
                         faults.clock_drift_ppm(pid)),
                50);
      EXPECT_FALSE(svc.in_holdover(pid));
      EXPECT_EQ(svc.stats(pid).failures, 0);
    }
  }
}

TEST(TimeService, HoldoverUncertaintyGrowsMonotonically) {
  const TaskSystem sys = paper::example2();
  FaultPlan plan;
  plan.seed = 5;
  plan.clock_offset_max = 500;
  plan.drift_ppm_max = 200;
  plan.partition_at = 50'000;
  plan.partition_for = 100'000;
  const FaultInjector faults{sys, plan};
  TimeService svc{sys, &faults, test_config()};
  const ProcessorId pid{0};

  // Converged before the partition: finite, small uncertainty.
  const Duration before = svc.uncertainty(pid, 49'000);
  ASSERT_LT(before, kTimeInfinity);

  // Inside the window every poll fails; uncertainty is monotone
  // non-decreasing and the servo enters holdover.
  Duration prev = before;
  for (Time t = 60'000; t <= 140'000; t += 10'000) {
    const Duration u = svc.uncertainty(pid, t);
    EXPECT_GE(u, prev) << "uncertainty shrank during holdover at t=" << t;
    prev = u;
  }
  EXPECT_TRUE(svc.in_holdover(pid));
  EXPECT_GT(prev, before);
  EXPECT_GT(svc.stats(pid).holdover_entries, 0);
  EXPECT_GT(svc.stats(pid).holdover_time, 0);

  // The partition heals, a sync lands, holdover ends, uncertainty drops.
  svc.advance_all(160'000);
  EXPECT_FALSE(svc.in_holdover(pid));
  EXPECT_LT(svc.uncertainty(pid, 160'000), prev);
}

TEST(TimeService, FailsOverToBackupWhenPrimaryGoesSilent) {
  const TaskSystem sys = paper::example2();
  FaultPlan plan;
  plan.seed = 9;
  plan.clock_offset_max = 500;
  plan.source_down_at = 10'000;
  plan.source_down_for = 50'000;
  const FaultInjector faults{sys, plan};
  TimeService svc{sys, &faults, test_config()};
  svc.advance_all(100'000);
  for (std::size_t p = 0; p < sys.processor_count(); ++p) {
    const ProcessorId pid{static_cast<std::int32_t>(p)};
    const TimeService::ProcessorStats& stats = svc.stats(pid);
    SCOPED_TRACE("processor " + std::to_string(p));
    // The outage forced a failover; syncing against the backup kept the
    // client out of (long) holdover, at backup_offset accuracy.
    EXPECT_GT(stats.failovers, 0);
    EXPECT_GT(stats.failures, 0);
    EXPECT_FALSE(svc.in_holdover(pid));
    EXPECT_GT(stats.exchanges, stats.failures);
  }
}

/// Runs two services over the same lossy, drifting clocks: `queried` is
/// asked for processor 1's time every 3000 ticks, `driven` only by the
/// final advance_all.
struct QueriedAndDriven {
  QueriedAndDriven(const TaskSystem& sys, const TimeServiceConfig& config)
      : faults_a{sys, plan()}, faults_b{sys, plan()},
        queried{sys, &faults_a, config}, driven{sys, &faults_b, config} {
    for (Time t = 1'000; t <= 90'000; t += 3'000) {
      (void)queried.estimate_now(ProcessorId{1}, t);
    }
    queried.advance_all(100'000);
    driven.advance_all(100'000);
  }
  static FaultPlan plan() {
    FaultPlan plan;
    plan.seed = 13;
    plan.clock_offset_max = 800;
    plan.drift_ppm_max = 300;
    plan.signal_loss_prob = 0.2;
    return plan;
  }
  const FaultInjector faults_a;
  const FaultInjector faults_b;
  TimeService queried;
  TimeService driven;
};

TEST(TimeService, AdvanceIsIdempotentAndQueryOrderIndependentWhileTheSlewNeverBinds) {
  // While the slew limit never cuts a correction short, the applied
  // correction equals the estimate at every slew point, so the extra
  // query points cannot change anything: identical end state. Here the
  // client never fails over, so the backup source's offset never jumps
  // the estimate.
  const TaskSystem sys = paper::example2();
  TimeServiceConfig config = test_config();
  config.failover_after = 1'000'000;
  QueriedAndDriven run{sys, config};

  const ProcessorId pid{1};
  const TimeService::ProcessorStats& queried = run.queried.stats(pid);
  const TimeService::ProcessorStats& driven = run.driven.stats(pid);
  ASSERT_EQ(queried.slew_limited, 0);  // the precondition
  ASSERT_EQ(driven.slew_limited, 0);
  EXPECT_GT(queried.failures, 0);
  EXPECT_GT(queried.abs_error_sum, 0);  // the clocks really err
  EXPECT_EQ(run.queried.estimate_now(pid, 100'000),
            run.driven.estimate_now(pid, 100'000));
  EXPECT_EQ(run.queried.drift_estimate_ppm(pid), run.driven.drift_estimate_ppm(pid));
  EXPECT_EQ(queried.exchanges, driven.exchanges);
  EXPECT_EQ(queried.failures, driven.failures);
  EXPECT_EQ(queried.samples, driven.samples);
  EXPECT_EQ(queried.abs_error_max, driven.abs_error_max);
  EXPECT_EQ(queried.abs_error_sum, driven.abs_error_sum);
}

TEST(TimeService, QueriesChangeThePrecisionOnceTheSlewBinds) {
  // The same run with the default failover: switching between the
  // primary and the backup source jumps the estimate by up to 1000
  // ticks, which the 50000-ppm slew absorbs over many intervals. A
  // clamped slew is path-dependent, so the queries' extra slew points
  // change the achieved precision (as PM-E's service differs from the
  // unqueried replay of timesvc_ladder.e2es), while the exchanges
  // themselves stay the same.
  const TaskSystem sys = paper::example2();
  QueriedAndDriven run{sys, test_config()};

  const ProcessorId pid{1};
  const TimeService::ProcessorStats& queried = run.queried.stats(pid);
  const TimeService::ProcessorStats& driven = run.driven.stats(pid);
  EXPECT_GT(driven.failovers, 0);
  EXPECT_GT(driven.slew_limited, 0);
  EXPECT_GT(queried.slew_limited, driven.slew_limited);
  EXPECT_EQ(queried.exchanges, driven.exchanges);
  EXPECT_EQ(queried.failures, driven.failures);
  EXPECT_EQ(queried.samples, driven.samples);
  EXPECT_NE(queried.abs_error_sum, driven.abs_error_sum);
}

TEST(TimeService, QueriedCountsProtocolQueriesOnly) {
  const TaskSystem sys = paper::example2();
  const FaultPlan plan{.seed = 5, .clock_offset_max = 800};
  const FaultInjector faults{sys, plan};
  const ProcessorId pid{0};
  // Draining to the horizon is not a query: the fault sweep relies on it
  // to tell a replay no protocol shaped from one a protocol did.
  TimeService service{sys, &faults, test_config()};
  service.advance_all(50'000);
  EXPECT_FALSE(service.queried());
  (void)service.drift_estimate_ppm(pid);
  (void)service.in_holdover(pid);
  EXPECT_FALSE(service.queried());

  TimeService by_estimate{sys, &faults, test_config()};
  (void)by_estimate.estimate_now(pid, 10);
  EXPECT_TRUE(by_estimate.queried());
  TimeService by_alarm{sys, &faults, test_config()};
  (void)by_alarm.plan_alarm(pid, 10, 5'000);
  EXPECT_TRUE(by_alarm.queried());
  TimeService by_uncertainty{sys, &faults, test_config()};
  (void)by_uncertainty.uncertainty(pid, 10);
  EXPECT_TRUE(by_uncertainty.queried());
}

}  // namespace
}  // namespace e2e
