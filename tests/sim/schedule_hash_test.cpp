// Engine::schedule_hash(): the fingerprint every driver, golden and
// benchmark JSON reports for a run's schedule.
#include <gtest/gtest.h>

#include "core/analysis/sa_pm.h"
#include "core/protocols/direct_sync.h"
#include "core/protocols/modified_pm.h"
#include "core/protocols/phase_modification.h"
#include "core/protocols/release_guard.h"
#include "metrics/eer_collector.h"
#include "sim/engine.h"
#include "task/paper_examples.h"

namespace e2e {
namespace {

std::uint64_t hash_of(const TaskSystem& sys, SyncProtocol& protocol, Time horizon) {
  Engine engine{sys, protocol, {.horizon = horizon}};
  engine.run();
  return engine.schedule_hash();
}

TEST(ScheduleHash, PinnedValue) {
  // The fold (kind, time, task, chain index, instance) must not drift,
  // or every committed schedule hash would.
  const TaskSystem sys = paper::example2();
  DirectSyncProtocol ds;
  EXPECT_EQ(hash_of(sys, ds, 100), 0x3519f9673a202322u);
  ReleaseGuardProtocol rg{sys};
  EXPECT_EQ(hash_of(sys, rg, 100), 0x4047d061597641fau);
}

TEST(ScheduleHash, SameRunSameHash) {
  const TaskSystem sys = paper::example2();
  DirectSyncProtocol a;
  DirectSyncProtocol b;
  EXPECT_EQ(hash_of(sys, a, 100), hash_of(sys, b, 100));
}

TEST(ScheduleHash, DifferentProtocolsDifferentHash) {
  const TaskSystem sys = paper::example2();
  DirectSyncProtocol ds;
  ReleaseGuardProtocol rg{sys};
  // DS and RG schedules genuinely differ on Example 2 (Figure 3 vs 7).
  EXPECT_NE(hash_of(sys, ds, 100), hash_of(sys, rg, 100));
}

TEST(ScheduleHash, DifferentHorizonDifferentHash) {
  const TaskSystem sys = paper::example2();
  DirectSyncProtocol a;
  DirectSyncProtocol b;
  EXPECT_NE(hash_of(sys, a, 50), hash_of(sys, b, 100));
}

TEST(ScheduleHash, ZeroBeforeRunAndAfterReset) {
  // No events folded yet: the commutative sum starts at 0.
  const TaskSystem sys = paper::example2();
  DirectSyncProtocol ds;
  Engine engine{sys, ds, {.horizon = 100}};
  EXPECT_EQ(engine.schedule_hash(), 0u);
  engine.run();
  EXPECT_NE(engine.schedule_hash(), 0u);
  engine.reset(ds, {.horizon = 100});
  EXPECT_EQ(engine.schedule_hash(), 0u);
}

TEST(ScheduleHash, ResetRunMatchesFreshRun) {
  const TaskSystem sys = paper::example2();
  DirectSyncProtocol ds;
  Engine engine{sys, ds, {.horizon = 50}};
  engine.run();
  engine.reset(ds, {.horizon = 100});
  engine.run();
  DirectSyncProtocol fresh;
  EXPECT_EQ(engine.schedule_hash(), hash_of(sys, fresh, 100));
}

TEST(ScheduleHash, SinksDoNotChangeIt) {
  const TaskSystem sys = paper::example2();
  DirectSyncProtocol ds;
  EerCollector eer{sys};
  Engine engine{sys, ds, {.horizon = 100}};
  engine.add_sink(&eer);
  engine.run();
  DirectSyncProtocol bare;
  EXPECT_EQ(engine.schedule_hash(), hash_of(sys, bare, 100));
}

TEST(ScheduleHash, OrderIndependentWithinAnInstant) {
  // PM pre-schedules its releases while MPM fires them from timers, so
  // simultaneous events reach the engine in different orders; the paper
  // says the schedules are identical (Section 3.1), and so are the hashes.
  const TaskSystem sys = paper::example1_monitor_with_interference();
  const AnalysisResult bounds = analyze_sa_pm(sys);
  PhaseModificationProtocol pm{sys, bounds.subtask_bounds};
  ModifiedPmProtocol mpm{sys, bounds.subtask_bounds};
  EXPECT_EQ(hash_of(sys, pm, 3000), hash_of(sys, mpm, 3000));
}

}  // namespace
}  // namespace e2e
