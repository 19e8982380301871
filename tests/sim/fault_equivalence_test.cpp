// Fault-free equivalence: with no FaultInjector -- or one built from a
// disabled (all-zero) plan -- the engine must produce the byte-identical
// observable schedule. This pins the zero-cost-when-off guarantee the
// fault layer was built around: the ideal path is the pre-fault-layer
// code path, not an approximation of it.
//
// Also pins MPM-R's design contract: under ideal conditions neither of
// its hardening changes can trigger, so it is *exactly* MPM -- same
// schedule, same signal and timer counts.
#include <gtest/gtest.h>

#include <optional>

#include "common/error.h"
#include "common/rng.h"
#include "core/protocols/factory.h"
#include "sim/engine.h"
#include "sim/fault/fault_injector.h"
#include "sim/fault/fault_plan.h"
#include "task/paper_examples.h"
#include "workload/generator.h"

namespace e2e {
namespace {

struct RunResult {
  std::uint64_t hash;
  SimStats stats;
};

RunResult run_once(const TaskSystem& sys, ProtocolKind kind, Time horizon,
                   FaultInjector* faults) {
  const auto protocol = make_protocol(kind, sys);
  Engine engine{sys, *protocol, {.horizon = horizon, .faults = faults}};
  engine.run();
  return RunResult{engine.schedule_hash(), engine.stats()};
}

void expect_equivalent(const TaskSystem& sys, Time horizon) {
  for (const ProtocolKind kind : kExtendedProtocolKinds) {
    std::optional<RunResult> ideal;
    try {
      ideal = run_once(sys, kind, horizon, nullptr);
    } catch (const InvalidArgument&) {
      continue;  // PM-family protocol on a system SA/PM cannot bound
    }
    FaultInjector disabled{sys, FaultPlan{}};
    const RunResult with_layer = run_once(sys, kind, horizon, &disabled);
    EXPECT_EQ(ideal->hash, with_layer.hash) << to_string(kind);
    EXPECT_EQ(ideal->stats.events_processed, with_layer.stats.events_processed)
        << to_string(kind);
    EXPECT_EQ(ideal->stats.sync_signals, with_layer.stats.sync_signals)
        << to_string(kind);
    // A disabled plan must leave every fault counter untouched.
    EXPECT_EQ(with_layer.stats.dropped_signals, 0);
    EXPECT_EQ(with_layer.stats.late_signals, 0);
    EXPECT_EQ(with_layer.stats.duplicated_signals, 0);
    EXPECT_EQ(with_layer.stats.stalls, 0);
  }
}

TEST(FaultEquivalence, Example1AllProtocols) {
  expect_equivalent(paper::example1_monitor(), 600);
}

TEST(FaultEquivalence, Example2AllProtocols) {
  expect_equivalent(paper::example2(), 600);
}

TEST(FaultEquivalence, RandomSystems) {
  Rng rng{0xFA01};
  for (int i = 0; i < 3; ++i) {
    Rng sys_rng = rng.fork(static_cast<std::uint64_t>(i));
    const TaskSystem sys =
        generate_system(sys_rng, options_for(Configuration{.subtasks_per_task = 3,
                                                           .utilization_percent = 60}));
    expect_equivalent(sys, 3 * sys.max_period());
  }
}

TEST(FaultEquivalence, MpmRetransmitIsExactlyMpmWhenIdeal) {
  const TaskSystem sys = paper::example2();
  const RunResult mpm = run_once(sys, ProtocolKind::kModifiedPm, 600, nullptr);
  const RunResult mpmr =
      run_once(sys, ProtocolKind::kModifiedPmRetransmit, 600, nullptr);
  EXPECT_EQ(mpm.hash, mpmr.hash);
  EXPECT_EQ(mpm.stats.sync_signals, mpmr.stats.sync_signals);
  // No retry timers may be armed on the ideal channel: the timer stream
  // is MPM's bound timers, nothing more.
  EXPECT_EQ(mpm.stats.timer_interrupts, mpmr.stats.timer_interrupts);
  EXPECT_EQ(mpm.stats.events_processed, mpmr.stats.events_processed);
}

}  // namespace
}  // namespace e2e
