// PM-E: Phase Modification scheduling on the time service's estimated
// clock. The contract under test, both ends of the precision spectrum:
//  * ideal channel -> the service measures zero error, PM-E's alarms
//    land exactly on PM's precomputed phases, and the schedule is
//    byte-identical to PM (the paper's assumption recovered as a
//    special case);
//  * degraded sync -> PM-E compensates for the skew the service has
//    measured and strictly beats raw PM on precedence violations.
#include "core/protocols/pm_estimated.h"

#include <gtest/gtest.h>

#include "core/protocols/factory.h"
#include "experiments/faults.h"
#include "sim/engine.h"
#include "sim/fault/fault_injector.h"
#include "sim/timesvc/time_service.h"
#include "task/paper_examples.h"

namespace e2e {
namespace {

std::uint64_t hash_of_run(const TaskSystem& sys, ProtocolKind kind,
                          const EngineOptions& options) {
  const auto protocol = make_protocol(kind, sys);
  Engine engine{sys, *protocol, options};
  engine.run();
  return engine.schedule_hash();
}

TEST(PmEstimated, FactoryKnowsIt) {
  EXPECT_EQ(to_string(ProtocolKind::kPmEstimated), "PM-E");
  const ProtocolTraits traits = traits_of(ProtocolKind::kPmEstimated);
  EXPECT_FALSE(traits.needs_global_clock);  // the whole point
  EXPECT_TRUE(traits.needs_timer_interrupt_support);
}

TEST(PmEstimated, WithoutAServiceItMatchesPmExactly) {
  const TaskSystem sys = paper::example2();
  const EngineOptions options{.horizon = 240};
  EXPECT_EQ(hash_of_run(sys, ProtocolKind::kPmEstimated, options),
            hash_of_run(sys, ProtocolKind::kPhaseModification, options));
}

TEST(PmEstimated, IdealChannelIsByteIdenticalToPm) {
  const TaskSystem sys = paper::example2();
  const std::uint64_t pm =
      hash_of_run(sys, ProtocolKind::kPhaseModification, {.horizon = 240});

  // A live service over an inert fault plan: every exchange measures
  // exactly zero error, so PM-E's compensation is the identity.
  const FaultInjector inert{sys, FaultPlan{}};
  TimeService svc{sys, &inert, TimeServiceConfig{.sync_interval = 10}};
  const std::uint64_t pme = hash_of_run(
      sys, ProtocolKind::kPmEstimated, {.horizon = 240, .timesvc = &svc});
  EXPECT_EQ(pme, pm);
}

// The headline property, on the sweep machinery timesvc_ladder.e2es runs:
// under clock skew plus a lossy sync channel, scheduling on the
// estimated clock strictly beats scheduling on the raw local clock.
TEST(PmEstimated, BeatsRawPmUnderClockSkewAndLoss) {
  FaultSweepOptions options;
  options.systems = 2;
  options.horizon_periods = 8.0;
  FaultPlan degraded;
  degraded.clock_offset_max = 150'000;
  degraded.drift_ppm_max = 15'000;
  degraded.signal_loss_prob = 0.2;
  degraded.signal_delay_max = 2'000;
  degraded.sync_loss_prob = 0.3;
  options.severities = {{"clock+loss", degraded}};
  options.protocols = {ProtocolKind::kPhaseModification,
                       ProtocolKind::kPmEstimated};
  options.timesvc.sync_interval = 25'000;

  const FaultSweepResult result = run_fault_sweep(options);
  ASSERT_EQ(result.cells.size(), 2u);
  const FaultCell& pm = result.cells[0];
  const FaultCell& pme = result.cells[1];
  ASSERT_EQ(pm.kind, ProtocolKind::kPhaseModification);
  ASSERT_EQ(pme.kind, ProtocolKind::kPmEstimated);

  EXPECT_GT(pm.violations, 0) << "skew this severe must break raw PM";
  EXPECT_LT(pme.violations, pm.violations);

  // The service is protocol-independent: both cells saw the identical
  // sync traffic (the fault-stream pairing check).
  EXPECT_EQ(pm.precision.exchanges, pme.precision.exchanges);
  EXPECT_EQ(pm.precision.failures, pme.precision.failures);
  EXPECT_EQ(pm.precision.abs_error_max, pme.precision.abs_error_max);
  EXPECT_GT(pm.precision.exchanges, 0);
}

// Zero sync faults through the sweep pipeline: PM-E's cell hash equals
// PM's even with the service enabled (the ideal-channel equivalence pin
// at the level the golden outputs care about).
TEST(PmEstimated, SweepIdealRungPinsEquivalence) {
  FaultSweepOptions options;
  options.systems = 2;
  options.horizon_periods = 4.0;
  options.severities = {{"ideal", FaultPlan{}}};
  options.protocols = {ProtocolKind::kPhaseModification,
                       ProtocolKind::kPmEstimated};
  options.timesvc.sync_interval = 25'000;

  const FaultSweepResult result = run_fault_sweep(options);
  ASSERT_EQ(result.cells.size(), 2u);
  EXPECT_EQ(result.cells[0].schedule_hash, result.cells[1].schedule_hash);
  EXPECT_EQ(result.cells[0].violations, 0);
  EXPECT_EQ(result.cells[1].violations, 0);
  // Even on the ideal rung the service was live and measuring (zeros).
  EXPECT_GT(result.cells[1].precision.exchanges, 0);
  EXPECT_EQ(result.cells[1].precision.abs_error_max, 0);
}

}  // namespace
}  // namespace e2e
