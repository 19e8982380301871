#include "experiments/monte_carlo.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "core/analysis/sa_pm.h"
#include "task/builder.h"
#include "task/paper_examples.h"
#include "workload/generator.h"

namespace e2e {
namespace {

TEST(MonteCarlo, CollectsSamplesForEveryTask) {
  const TaskSystem sys = paper::example2();
  const MonteCarloResult r = estimate_latency(sys, ProtocolKind::kDirectSync,
                                              {.runs = 5, .seed = 3});
  ASSERT_EQ(r.per_task.size(), 3u);
  EXPECT_EQ(r.runs, 5);
  for (const TaskLatency& latency : r.per_task) {
    EXPECT_GT(latency.instances, 0);
    EXPECT_EQ(latency.eer.count(), latency.instances);
  }
}

TEST(MonteCarlo, Example2DsT3MissesSometimes) {
  // Under DS some phasings reproduce Figure 3's miss; with randomized
  // phases the estimated probability lands strictly between 0 and 1.
  const TaskSystem sys = paper::example2();
  const MonteCarloResult r = estimate_latency(sys, ProtocolKind::kDirectSync,
                                              {.runs = 30, .seed = 7});
  const TaskLatency& t3 = r.per_task[2];
  EXPECT_GT(t3.miss_probability(), 0.0);
  EXPECT_LT(t3.miss_probability(), 1.0);
}

TEST(MonteCarlo, Example2RgT3NeverMisses) {
  // RG makes T3 schedulable (bound 5 <= 6) regardless of phasing.
  const TaskSystem sys = paper::example2();
  const MonteCarloResult r = estimate_latency(sys, ProtocolKind::kReleaseGuard,
                                              {.runs = 30, .seed = 7});
  EXPECT_EQ(r.per_task[2].misses, 0);
}

TEST(MonteCarlo, SamplesNeverExceedWorstCaseBounds) {
  const TaskSystem sys = paper::example2();
  const AnalysisResult bounds = analyze_sa_pm(sys);
  const MonteCarloResult r = estimate_latency(
      sys, ProtocolKind::kReleaseGuard,
      {.runs = 10, .seed = 11, .execution_min_fraction = 0.5});
  for (const Task& t : sys.tasks()) {
    EXPECT_LE(r.per_task[t.id.index()].eer.max(),
              static_cast<double>(bounds.eer_bound(t.id)))
        << t.name;
  }
}

TEST(MonteCarlo, ExecutionVariationLowersTheMean) {
  const TaskSystem sys = paper::example2();
  const MonteCarloResult wcet = estimate_latency(sys, ProtocolKind::kDirectSync,
                                                 {.runs = 10, .seed = 13});
  const MonteCarloResult varied = estimate_latency(
      sys, ProtocolKind::kDirectSync,
      {.runs = 10, .seed = 13, .execution_min_fraction = 0.4});
  EXPECT_LT(varied.per_task[1].eer.mean(), wcet.per_task[1].eer.mean());
}

TEST(MonteCarlo, DeterministicForSeed) {
  const TaskSystem sys = paper::example2();
  const MonteCarloResult a = estimate_latency(sys, ProtocolKind::kDirectSync,
                                              {.runs = 5, .seed = 19});
  const MonteCarloResult b = estimate_latency(sys, ProtocolKind::kDirectSync,
                                              {.runs = 5, .seed = 19});
  EXPECT_EQ(a.per_task[2].instances, b.per_task[2].instances);
  EXPECT_DOUBLE_EQ(a.per_task[2].eer.mean(), b.per_task[2].eer.mean());
}

TEST(MonteCarlo, FixedPhasesReproduceTheInputSystem) {
  const TaskSystem sys = paper::example2();
  MonteCarloOptions options{.runs = 3, .seed = 23, .randomize_phases = false};
  const MonteCarloResult r = estimate_latency(sys, ProtocolKind::kDirectSync, options);
  // All runs identical (same phases, WCET-exact): zero variance in the
  // worst sample across runs.
  EXPECT_EQ(r.per_task[2].eer.max(), 8.0);  // Figure 3's first instance
}

TEST(MonteCarlo, GoldenHashesPerProtocol) {
  // Pins estimate_latency's output for every selectable protocol against
  // committed values: randomized phases and execution-time variation, and
  // enough runs that each worker simulates several, so a protocol carrying
  // state from one run into the next would change the hash. Determinism
  // tests only compare the code with itself; this compares it with the
  // recorded bytes.
  struct Golden {
    ProtocolKind kind;
    std::uint64_t schedule_hash;
    std::int64_t events_processed;
  };
  constexpr Golden kGoldens[] = {
      {ProtocolKind::kDirectSync, 0xb8c6ed1c660ab6c4ULL, 20460},
      {ProtocolKind::kPhaseModification, 0x08ed204afb2f7c9eULL, 20335},
      {ProtocolKind::kModifiedPm, 0x08ed204afb2f7c9eULL, 26803},
      {ProtocolKind::kReleaseGuard, 0x3085c46837f005bfULL, 21871},
      {ProtocolKind::kModifiedPmRetransmit, 0x08ed204afb2f7c9eULL, 26803},
      {ProtocolKind::kPmEstimated, 0x08ed204afb2f7c9eULL, 20335},
  };
  Rng rng{20261017};
  const TaskSystem system = generate_system(
      rng, options_for({.subtasks_per_task = 4, .utilization_percent = 60}));
  for (const Golden& golden : kGoldens) {
    for (const int threads : {1, 3}) {
      SCOPED_TRACE(std::string{to_string(golden.kind)} + " at " +
                   std::to_string(threads) + " threads");
      const MonteCarloResult r = estimate_latency(
          system, golden.kind,
          {.runs = 7,
           .seed = 41,
           .horizon_periods = 5.0,
           .randomize_phases = true,
           .execution_min_fraction = 0.8,
           .threads = threads});
      EXPECT_EQ(r.schedule_hash, golden.schedule_hash);
      EXPECT_EQ(r.events_processed, golden.events_processed);
    }
  }
}

}  // namespace
}  // namespace e2e
