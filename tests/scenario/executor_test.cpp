#include "scenario/executor.h"

#include <cstdint>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/protocols/factory.h"
#include "task/paper_examples.h"

namespace e2e {
namespace {

TEST(ScenarioExecutor, ForkStreamsIsDeterministic) {
  const std::vector<Rng> a = ScenarioExecutor::fork_streams(123, 8);
  std::vector<Rng> b = ScenarioExecutor::fork_streams(123, 8);
  ASSERT_EQ(a.size(), 8u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    Rng lhs = a[i];
    EXPECT_EQ(lhs.next_u64(), b[i].next_u64()) << "stream " << i;
  }
}

TEST(ScenarioExecutor, ForkStreamsPrefixStable) {
  // Stream i must not depend on how many streams are forked after it.
  std::vector<Rng> small = ScenarioExecutor::fork_streams(99, 3);
  std::vector<Rng> large = ScenarioExecutor::fork_streams(99, 16);
  for (std::size_t i = 0; i < small.size(); ++i) {
    EXPECT_EQ(small[i].next_u64(), large[i].next_u64()) << "stream " << i;
  }
}

TEST(ScenarioExecutor, ForkStreamsAdvancesMaster) {
  Rng master{7};
  const std::vector<Rng> first = ScenarioExecutor::fork_streams(master, 4);
  std::vector<Rng> second = ScenarioExecutor::fork_streams(master, 4);
  Rng lhs = first[0];
  EXPECT_NE(lhs.next_u64(), second[0].next_u64());
}

TEST(ScenarioExecutor, MapReturnsIndexOrder) {
  ScenarioExecutor executor{4};
  const std::vector<std::int64_t> values = executor.map<std::int64_t>(
      100, [](std::int64_t i, ScenarioExecutor::WorkerSlot&) { return i * i; });
  ASSERT_EQ(values.size(), 100u);
  for (std::int64_t i = 0; i < 100; ++i) {
    EXPECT_EQ(values[static_cast<std::size_t>(i)], i * i);
  }
}

TEST(ScenarioExecutor, ResultsIdenticalAcrossThreadCounts) {
  const auto run = [](int threads) {
    ScenarioExecutor executor{threads};
    const std::vector<Rng> streams = ScenarioExecutor::fork_streams(42, 64);
    const std::vector<std::uint64_t> values = executor.map<std::uint64_t>(
        64, [&](std::int64_t i, ScenarioExecutor::WorkerSlot&) {
          Rng rng = streams[static_cast<std::size_t>(i)];
          std::uint64_t acc = 0;
          for (int draw = 0; draw < 16; ++draw) acc ^= rng.next_u64();
          return acc;
        });
    return values;
  };
  const std::vector<std::uint64_t> one = run(1);
  EXPECT_EQ(run(2), one);
  EXPECT_EQ(run(8), one);
}

TEST(ScenarioExecutor, EngineSlotsPersistAcrossCalls) {
  // Single worker: the engine constructed during the first pass must
  // still be there (same simulated system) on the next for_each, and a
  // later engine_for() resets that same engine instead of replacing it.
  ScenarioExecutor executor{1};
  const TaskSystem system = paper::example2();
  const auto protocol = make_protocol(ProtocolKind::kReleaseGuard, system);
  const EngineOptions options{.horizon = system.default_horizon()};

  const Engine* first = nullptr;
  executor.for_each(1, [&](std::int64_t, ScenarioExecutor::WorkerSlot& slot) {
    EXPECT_FALSE(slot.engine.has_value());
    Engine& engine = slot.engine_for(system, *protocol, options);
    engine.run();
    first = &engine;
  });
  executor.for_each(1, [&](std::int64_t, ScenarioExecutor::WorkerSlot& slot) {
    ASSERT_TRUE(slot.engine.has_value());
    EXPECT_GT(slot.engine->stats().events_processed, 0);
    Engine& engine = slot.engine_for(system, *protocol, options);
    EXPECT_EQ(&engine, first);
    EXPECT_EQ(engine.stats().events_processed, 0);  // reset, not yet run
  });
}

TEST(ScenarioExecutor, WorkerSlotScratchPersistsAcrossCalls) {
  // The typed scratch parked in a WorkerSlot must survive between
  // for_each calls (that is what makes Monte-Carlo warm-up pay off) and
  // the make-callback must run only on first touch.
  ScenarioExecutor executor{1};
  int makes = 0;
  executor.for_each(3, [&](std::int64_t, ScenarioExecutor::WorkerSlot& slot) {
    std::vector<int>& scratch =
        slot.scratch_as<std::vector<int>>([&] { ++makes; return std::vector<int>{}; });
    scratch.push_back(1);
  });
  executor.for_each(1, [&](std::int64_t, ScenarioExecutor::WorkerSlot& slot) {
    std::vector<int>& scratch =
        slot.scratch_as<std::vector<int>>([&] { ++makes; return std::vector<int>{}; });
    EXPECT_EQ(scratch.size(), 3u);  // all prior cells appended to one object
  });
  EXPECT_EQ(makes, 1);
}

TEST(ScenarioExecutor, WorkerSlotScratchRebuildsOnTypeChange) {
  // A different scenario cell parking a different scratch type evicts the
  // old one instead of reinterpreting it.
  ScenarioExecutor executor{1};
  executor.for_each(1, [&](std::int64_t, ScenarioExecutor::WorkerSlot& slot) {
    const std::vector<int>& seeded =
        slot.scratch_as<std::vector<int>>([] { return std::vector<int>{1, 2, 3}; });
    EXPECT_EQ(seeded.size(), 3u);
  });
  executor.for_each(1, [&](std::int64_t, ScenarioExecutor::WorkerSlot& slot) {
    const double& value = slot.scratch_as<double>([] { return 2.5; });
    EXPECT_EQ(value, 2.5);
  });
  executor.for_each(1, [&](std::int64_t, ScenarioExecutor::WorkerSlot& slot) {
    // Back to the first type: the double evicted the vector, so this is a
    // fresh make, not the {1,2,3} from the first pass.
    std::vector<int>& scratch =
        slot.scratch_as<std::vector<int>>([] { return std::vector<int>{}; });
    EXPECT_TRUE(scratch.empty());
  });
}

}  // namespace
}  // namespace e2e
