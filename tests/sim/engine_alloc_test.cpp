// Pins the engine's zero-allocation reuse contract: after a warm-up run,
// a reset()+run() cycle on the same (system, protocol, options) must not
// call the global allocator at all -- the event heap, job pool, ready
// queues and the per-run arena all replay their allocation pattern
// against retained storage. This is what makes the parallel executors'
// per-worker engine slots scale: steady-state cells never contend on the
// process heap.
//
// Instrumentation: alloc_counter.cpp replaces the global allocator
// (gtest's own allocations happen outside the measured windows).
#include <gtest/gtest.h>

#include <optional>

#include "alloc_counter.h"
#include "core/analysis/cache.h"
#include "core/protocols/direct_sync.h"
#include "core/protocols/modified_pm.h"
#include "sim/engine.h"
#include "sim/fault/fault_injector.h"
#include "task/paper_examples.h"

namespace e2e {
namespace {

TEST(EngineAllocTest, WarmResetAndRunAllocatesNothing) {
  const TaskSystem system = paper::example2();
  DirectSyncProtocol ds;
  const EngineOptions options{.horizon = system.default_horizon()};

  Engine engine{system, ds, options};
  engine.run();
  const std::int64_t cold_events = engine.stats().events_processed;
  ASSERT_GT(cold_events, 0);

  // One more cycle to let every container reach its high-water mark
  // (first-release vectors, ready heaps, the arena's block chain).
  engine.reset(ds, options);
  engine.run();

  const std::uint64_t before = global_allocations();
  engine.reset(ds, options);
  engine.run();
  const std::uint64_t after = global_allocations();

  EXPECT_EQ(after - before, 0u)
      << "warm reset()+run cycle touched the global allocator";
  EXPECT_EQ(engine.stats().events_processed, cold_events);
}

TEST(EngineAllocTest, WarmTimerDrivenRunAllocatesNothing) {
  // MPM exercises the timer + sync-signal paths (two extra events per
  // instance) and is reusable across runs: its only mutable state is the
  // overrun counter, which never influences the schedule.
  const TaskSystem system = paper::example2();
  const auto analysis = AnalysisCache::shared().sa_pm(system);
  ASSERT_TRUE(analysis->all_bounded());
  ModifiedPmProtocol mpm{system, analysis->subtask_bounds};
  const EngineOptions options{.horizon = system.default_horizon()};

  Engine engine{system, mpm, options};
  engine.run();
  const std::int64_t cold_events = engine.stats().events_processed;
  engine.reset(mpm, options);
  engine.run();

  const std::uint64_t before = global_allocations();
  engine.reset(mpm, options);
  engine.run();
  const std::uint64_t after = global_allocations();

  EXPECT_EQ(after - before, 0u)
      << "warm MPM reset()+run cycle touched the global allocator";
  EXPECT_EQ(engine.stats().events_processed, cold_events);
}

TEST(EngineAllocTest, WarmRunWithGrownEerSeriesAllocatesNothing) {
  // A horizon long enough that every task's EER series outgrows its
  // initial arena capacity: the grown series replay against the retained
  // arena blocks on the warm cycle.
  const TaskSystem system = paper::example2();
  DirectSyncProtocol ds;
  const EngineOptions options{.horizon = 200 * system.max_period()};

  Engine engine{system, ds, options};
  engine.run();
  for (const Task& t : system.tasks()) {
    ASSERT_GT(engine.eer_series(t.id).size(), 64u) << t.name;
  }
  const std::uint64_t cold_hash = engine.schedule_hash();
  engine.reset(ds, options);
  engine.run();

  const std::uint64_t before = global_allocations();
  engine.reset(ds, options);
  engine.run();
  const std::uint64_t after = global_allocations();

  EXPECT_EQ(after - before, 0u)
      << "warm run with grown EER series touched the global allocator";
  EXPECT_EQ(engine.schedule_hash(), cold_hash);
}

TEST(EngineAllocTest, WarmFaultedRunAllocatesNothing) {
  // A lossy, duplicating, delaying channel: the measured run drops some
  // signals, delivers some late and some twice, and none of it may touch
  // the heap. One injector serves one run, so each cycle gets a fresh
  // one (same plan, same draws), built before the window opens.
  const TaskSystem system = paper::example2();
  DirectSyncProtocol ds;
  const FaultPlan plan{.seed = 31,
                       .signal_loss_prob = 0.2,
                       .signal_delay_max = 40,
                       .signal_duplicate_prob = 0.3};
  std::optional<FaultInjector> faults;
  const auto fresh_options = [&] {
    faults.emplace(system, plan);
    return EngineOptions{.horizon = 50 * system.max_period(), .faults = &*faults};
  };

  Engine engine{system, ds, fresh_options()};
  engine.run();
  const std::uint64_t cold_hash = engine.schedule_hash();
  engine.reset(ds, fresh_options());
  engine.run();

  const EngineOptions options = fresh_options();
  const std::uint64_t before = global_allocations();
  engine.reset(ds, options);
  engine.run();
  const std::uint64_t after = global_allocations();

  EXPECT_EQ(after - before, 0u)
      << "warm faulted reset()+run cycle touched the global allocator";
  EXPECT_EQ(engine.schedule_hash(), cold_hash);
  EXPECT_GT(engine.stats().dropped_signals, 0);
  EXPECT_GT(engine.stats().late_signals, 0);
  EXPECT_GT(engine.stats().duplicated_signals, 0);
}

TEST(EngineAllocTest, ArenaFootprintIsStableAcrossReuse) {
  const TaskSystem system = paper::example2();
  DirectSyncProtocol ds;
  const EngineOptions options{.horizon = system.default_horizon()};

  Engine engine{system, ds, options};
  engine.run();
  const std::size_t after_first = engine.arena_bytes();
  for (int i = 0; i < 5; ++i) {
    engine.reset(ds, options);
    engine.run();
  }
  EXPECT_EQ(engine.arena_bytes(), after_first)
      << "arena grew across identical reruns";
}

}  // namespace
}  // namespace e2e
