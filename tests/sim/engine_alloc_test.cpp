// Pins the engine's zero-allocation reuse contract: after a warm-up run,
// a reset()+run() cycle on the same (system, protocol, options) must not
// call the global allocator at all -- the event heap, job pool, ready
// queues and the per-run arena all replay their allocation pattern
// against retained storage. This is what makes the parallel executors'
// per-worker engine slots scale: steady-state cells never contend on the
// process heap.
//
// Instrumentation: replacing the global operator new/delete is the
// sanctioned hook for counting allocations (the test needs no allocator
// library; gtest's own allocations happen outside the measured window).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "core/analysis/cache.h"
#include "core/protocols/direct_sync.h"
#include "core/protocols/modified_pm.h"
#include "sim/engine.h"
#include "task/paper_examples.h"

namespace {
std::atomic<std::uint64_t> g_news{0};
}  // namespace

// Count every path into the global allocator. The plain forms are the
// funnel: the compiler may call the sized/aligned variants directly, so
// those are replaced too.
void* operator new(std::size_t size) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc{};
}
void* operator new(std::size_t size, std::align_val_t align) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  const std::size_t a = static_cast<std::size_t>(align);
  if (void* p = std::aligned_alloc(a, (size + a - 1) & ~(a - 1))) return p;
  throw std::bad_alloc{};
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace e2e {
namespace {

std::uint64_t allocations() { return g_news.load(std::memory_order_relaxed); }

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

  const std::uint64_t before = allocations();
  engine.reset(ds, options);
  engine.run();
  const std::uint64_t after = allocations();

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

  const std::uint64_t before = allocations();
  engine.reset(mpm, options);
  engine.run();
  const std::uint64_t after = allocations();

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

  const std::uint64_t before = allocations();
  engine.reset(ds, options);
  engine.run();
  const std::uint64_t after = allocations();

  EXPECT_EQ(after - before, 0u)
      << "warm run with grown EER series touched the global allocator";
  EXPECT_EQ(engine.schedule_hash(), cold_hash);
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
