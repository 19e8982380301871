// The parallel execution layer's contract: every experiment produces
// byte-identical results at every thread count (RNG streams forked
// serially in index order, ordered serial merge -- see
// exec/thread_pool.h). These tests pin the contract by running each
// experiment at 1, 2 and 8 threads and demanding identical schedule
// hashes, statistics, and derived metrics.
#include <gtest/gtest.h>

#include <iterator>
#include <vector>

#include "experiments/faults.h"
#include "experiments/monte_carlo.h"
#include "experiments/sweep.h"
#include "workload/generator.h"

namespace e2e {
namespace {

constexpr int kThreadCounts[] = {1, 2, 8};

TaskSystem small_system() {
  Rng rng{20260806};
  return generate_system(
      rng, options_for({.subtasks_per_task = 4, .utilization_percent = 60}));
}

TEST(Determinism, MonteCarloIsIdenticalAcrossThreadCounts) {
  const TaskSystem system = small_system();
  MonteCarloOptions options;
  options.runs = 12;
  options.seed = 99;
  options.horizon_periods = 5.0;
  options.execution_min_fraction = 0.8;

  options.threads = 1;
  const MonteCarloResult baseline =
      estimate_latency(system, ProtocolKind::kReleaseGuard, options);
  ASSERT_GT(baseline.events_processed, 0);
  ASSERT_NE(baseline.schedule_hash, 0u);

  for (const int threads : kThreadCounts) {
    options.threads = threads;
    const MonteCarloResult result =
        estimate_latency(system, ProtocolKind::kReleaseGuard, options);
    SCOPED_TRACE("threads = " + std::to_string(threads));
    EXPECT_EQ(result.schedule_hash, baseline.schedule_hash);
    EXPECT_EQ(result.events_processed, baseline.events_processed);
    ASSERT_EQ(result.per_task.size(), baseline.per_task.size());
    for (std::size_t task = 0; task < baseline.per_task.size(); ++task) {
      const TaskLatency& want = baseline.per_task[task];
      const TaskLatency& got = result.per_task[task];
      EXPECT_EQ(got.instances, want.instances);
      EXPECT_EQ(got.misses, want.misses);
      // Bit-exact, not approximately equal: the merge replays the serial
      // accumulation order, so even floating-point rounding must match.
      EXPECT_EQ(got.eer.mean(), want.eer.mean());
      EXPECT_EQ(got.eer.stddev(), want.eer.stddev());
    }
  }
}

TEST(Determinism, SweepConfigurationIsIdenticalAcrossThreadCounts) {
  const Configuration config{.subtasks_per_task = 3, .utilization_percent = 50};
  SweepOptions options;
  options.systems_per_config = 6;
  options.seed = 7;
  options.horizon_periods = 5.0;

  options.threads = 1;
  const ConfigResult baseline = run_configuration(config, options);
  ASSERT_EQ(baseline.systems, 6);
  ASSERT_NE(baseline.schedule_hash, 0u);

  for (const int threads : kThreadCounts) {
    options.threads = threads;
    const ConfigResult result = run_configuration(config, options);
    SCOPED_TRACE("threads = " + std::to_string(threads));
    EXPECT_EQ(result.schedule_hash, baseline.schedule_hash);
    EXPECT_EQ(result.events_processed, baseline.events_processed);
    EXPECT_EQ(result.ds_failures, baseline.ds_failures);
    EXPECT_EQ(result.bound_ratio.count(), baseline.bound_ratio.count());
    EXPECT_EQ(result.bound_ratio.mean(), baseline.bound_ratio.mean());
    EXPECT_EQ(result.pm_ds_ratio.mean(), baseline.pm_ds_ratio.mean());
    EXPECT_EQ(result.rg_ds_ratio.mean(), baseline.rg_ds_ratio.mean());
    EXPECT_EQ(result.pm_rg_ratio.mean(), baseline.pm_rg_ratio.mean());
    EXPECT_EQ(result.rg_jitter.mean(), baseline.rg_jitter.mean());
  }
}

TEST(Determinism, FaultSweepIsIdenticalAcrossThreadCounts) {
  for (const bool timesvc : {false, true}) {
    SCOPED_TRACE(timesvc ? "timesvc on" : "timesvc off");
    FaultSweepOptions options;
    options.systems = 2;
    options.seed = 13;
    options.horizon_periods = 5.0;
    if (timesvc) {
      // PM-E queries its service and reports its own precision; every
      // other protocol merges the (severity, system) replay the sweep
      // computes in a pre-pass over the same executor.
      options.timesvc = TimeServiceConfig{.sync_interval = 25'000};
      options.protocols.assign(std::begin(kExtendedProtocolKinds),
                               std::end(kExtendedProtocolKinds));
      options.protocols.push_back(ProtocolKind::kPmEstimated);
    }

    options.threads = 1;
    const FaultSweepResult baseline = run_fault_sweep(options);
    ASSERT_FALSE(baseline.cells.empty());
    EXPECT_EQ(baseline.service_precision.empty(), !timesvc);

    for (const int threads : kThreadCounts) {
      options.threads = threads;
      const FaultSweepResult result = run_fault_sweep(options);
      SCOPED_TRACE("threads = " + std::to_string(threads));
      EXPECT_EQ(result.skipped_systems, baseline.skipped_systems);
      EXPECT_EQ(result.service_precision, baseline.service_precision);
      ASSERT_EQ(result.cells.size(), baseline.cells.size());
      for (std::size_t i = 0; i < baseline.cells.size(); ++i) {
        const FaultCell& want = baseline.cells[i];
        const FaultCell& got = result.cells[i];
        SCOPED_TRACE(want.severity + " / " + std::string{to_string(want.kind)});
        EXPECT_EQ(got.schedule_hash, want.schedule_hash);
        EXPECT_EQ(got.events_processed, want.events_processed);
        EXPECT_EQ(got.jobs_released, want.jobs_released);
        EXPECT_EQ(got.violations, want.violations);
        EXPECT_EQ(got.instances, want.instances);
        EXPECT_EQ(got.misses, want.misses);
        EXPECT_EQ(got.dropped_signals, want.dropped_signals);
        EXPECT_EQ(got.overruns, want.overruns);
        EXPECT_EQ(got.retransmits, want.retransmits);
        EXPECT_EQ(got.precision, want.precision);
      }
    }
  }
}

TEST(Determinism, MonteCarloHashReactsToTheWorkload) {
  // The hash must actually observe the schedule: different seeds (hence
  // different phasings) may not collide on this workload.
  const TaskSystem system = small_system();
  MonteCarloOptions options;
  options.runs = 4;
  options.horizon_periods = 5.0;

  options.seed = 1;
  const MonteCarloResult a =
      estimate_latency(system, ProtocolKind::kDirectSync, options);
  options.seed = 2;
  const MonteCarloResult b =
      estimate_latency(system, ProtocolKind::kDirectSync, options);
  EXPECT_NE(a.schedule_hash, b.schedule_hash);
}

}  // namespace
}  // namespace e2e
