// Determinism and reuse guarantees of the memoized analysis cache and
// the HOPA warm-start scratch: cached analyses are byte-identical to
// recomputation, sweep hashes are pinned across thread counts {1, 2, 8}
// with the cache enabled, and warm-started HOPA reproduces the
// cold-restart optimizer exactly.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "common/hash.h"
#include "core/analysis/cache.h"
#include "core/analysis/hopa.h"
#include "core/protocols/factory.h"
#include "exec/thread_pool.h"
#include "workload/generator.h"

namespace e2e {
namespace {

TaskSystem system_for(int i) {
  Rng rng{std::uint64_t{0xc0ffee00} +
          static_cast<std::uint64_t>(i) * std::uint64_t{7919}};
  return generate_system(
      rng, options_for({.subtasks_per_task = 2 + i % 5,
                        .utilization_percent = 50 + 10 * (i % 4)}));
}

std::uint64_t result_hash(const AnalysisResult& result) {
  std::uint64_t h = 0;
  for (const Duration bound : result.eer_bounds) {
    h = hash_combine(h, static_cast<std::uint64_t>(bound));
  }
  return h;
}

TEST(AnalysisCache, SecondLookupIsAHitAndSharesTheEntry) {
  AnalysisCache cache;
  const TaskSystem system = system_for(0);
  const std::shared_ptr<const AnalysisResult> first = cache.sa_pm(system);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 0u);
  const std::shared_ptr<const AnalysisResult> second = cache.sa_pm(system);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(first.get(), second.get());  // the entry itself, not a recompute
  EXPECT_EQ(result_hash(*first), result_hash(analyze_sa_pm(system)));
}

TEST(AnalysisCache, ContentHashIsStructuralNotIdentityBased) {
  // The same generator seed rebuilds a value-identical system: its
  // content hash -- hence its cache slot -- must coincide, while a
  // different workload must not collide.
  const std::uint64_t a = system_content_hash(system_for(3));
  const std::uint64_t a_again = system_content_hash(system_for(3));
  const std::uint64_t b = system_content_hash(system_for(4));
  EXPECT_EQ(a, a_again);
  EXPECT_NE(a, b);
}

TEST(AnalysisCache, SweepHashPinnedAcrossThreadCounts) {
  std::vector<TaskSystem> systems;
  for (int i = 0; i < 24; ++i) systems.push_back(system_for(i));

  std::vector<std::uint64_t> sweep_hashes;
  for (const int threads : {1, 2, 8}) {
    AnalysisCache::shared().clear();
    exec::ThreadPool pool{threads};
    std::vector<std::uint64_t> per_system(systems.size());
    pool.parallel_for_indexed(
        static_cast<std::int64_t>(systems.size()),
        [&](std::int64_t index, int /*worker*/) {
          const auto result =
              AnalysisCache::shared().sa_pm(systems[static_cast<std::size_t>(index)]);
          per_system[static_cast<std::size_t>(index)] = result_hash(*result);
        });
    std::uint64_t folded = 0;
    for (const std::uint64_t h : per_system) folded = hash_combine(folded, h);
    sweep_hashes.push_back(folded);
  }
  ASSERT_EQ(sweep_hashes.size(), 3u);
  EXPECT_EQ(sweep_hashes[0], sweep_hashes[1]);
  EXPECT_EQ(sweep_hashes[0], sweep_hashes[2]);
}

TEST(AnalysisCache, HopaWarmStartMatchesColdRestart) {
  for (int i = 0; i < 10; ++i) {
    const TaskSystem system = system_for(i);
    const HopaResult warm = optimize_priorities_hopa(system, {.iterations = 6});
    const HopaResult cold =
        optimize_priorities_hopa(system, {.iterations = 6, .warm_start = false});
    EXPECT_EQ(warm.margin, cold.margin) << "system " << i;
    EXPECT_EQ(warm.initial_margin, cold.initial_margin) << "system " << i;
    EXPECT_EQ(warm.iterations_run, cold.iterations_run) << "system " << i;
    EXPECT_EQ(system_content_hash(warm.system), system_content_hash(cold.system))
        << "system " << i;
  }
}

TEST(AnalysisCache, CapacityBoundsEntriesViaEviction) {
  AnalysisCache cache{8};
  EXPECT_EQ(cache.capacity(), 8u);
  for (int i = 0; i < 24; ++i) (void)cache.sa_pm(system_for(i));
  EXPECT_EQ(cache.misses(), 24u);
  EXPECT_GE(cache.evictions(), 1u);
  EXPECT_LE(cache.size(), 8u);
  // Entries admitted after the last eviction wave are still resident.
  const std::uint64_t hits_before = cache.hits();
  (void)cache.sa_pm(system_for(23));
  EXPECT_EQ(cache.hits(), hits_before + 1);
}

TEST(AnalysisCache, EvictionPrefersTheLeastRecentlyUsed) {
  AnalysisCache cache{8};
  for (int i = 0; i < 8; ++i) (void)cache.sa_pm(system_for(i));
  ASSERT_EQ(cache.evictions(), 0u);
  // Touch 4..7 so 0..3 are the stale quarter when entry 8 overflows.
  for (int i = 4; i < 8; ++i) (void)cache.sa_pm(system_for(i));
  (void)cache.sa_pm(system_for(8));
  EXPECT_GE(cache.evictions(), 1u);
  const std::uint64_t misses_before = cache.misses();
  (void)cache.sa_pm(system_for(7));  // recently used: survived
  EXPECT_EQ(cache.misses(), misses_before);
}

TEST(AnalysisCache, EvictedEntryIsRecomputedIdentically) {
  AnalysisCache cache{4};
  const TaskSystem system = system_for(0);
  const std::shared_ptr<const AnalysisResult> original = cache.sa_pm(system);
  const std::uint64_t original_hash = result_hash(*original);
  for (int i = 1; i < 16; ++i) (void)cache.sa_pm(system_for(i));
  // Whatever eviction did, the held handle stays valid and a re-request
  // reproduces the same bounds byte for byte.
  EXPECT_EQ(result_hash(*original), original_hash);
  EXPECT_EQ(result_hash(*cache.sa_pm(system)), original_hash);
}

TEST(AnalysisCache, FactoryFallbackGoesThroughTheSharedCache) {
  const TaskSystem system = system_for(7);
  AnalysisCache& cache = AnalysisCache::shared();
  cache.clear();
  const std::uint64_t misses_before = cache.misses();
  const std::uint64_t hits_before = cache.hits();
  const auto pm = make_protocol(ProtocolKind::kPhaseModification, system);
  ASSERT_NE(pm, nullptr);
  EXPECT_EQ(cache.misses(), misses_before + 1);
  const auto mpm = make_protocol(ProtocolKind::kModifiedPm, system);
  ASSERT_NE(mpm, nullptr);
  EXPECT_EQ(cache.misses(), misses_before + 1);  // second build reuses the entry
  EXPECT_GE(cache.hits(), hits_before + 1);
}

}  // namespace
}  // namespace e2e
