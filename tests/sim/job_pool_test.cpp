#include "sim/job_pool.h"

#include <gtest/gtest.h>

namespace e2e {
namespace {

Job make_job(std::int64_t instance) {
  return Job{.ref = SubtaskRef{TaskId{0}, 0}, .instance = instance};
}

TEST(JobPool, AllocateAndRead) {
  JobPool pool;
  const JobSlot slot = pool.allocate(make_job(7));
  EXPECT_TRUE(pool.occupied(slot));
  EXPECT_EQ(pool.get(slot).instance, 7);
  EXPECT_EQ(pool.live_count(), 1u);
}

TEST(JobPool, ReleaseFreesSlot) {
  JobPool pool;
  const JobSlot slot = pool.allocate(make_job(1));
  pool.release(slot);
  EXPECT_FALSE(pool.occupied(slot));
  EXPECT_EQ(pool.live_count(), 0u);
}

TEST(JobPool, RecyclesSlots) {
  JobPool pool;
  const JobSlot a = pool.allocate(make_job(1));
  pool.release(a);
  const JobSlot b = pool.allocate(make_job(2));
  EXPECT_EQ(a, b);  // the free list reuses the slot
  EXPECT_EQ(pool.get(b).instance, 2);
}

TEST(JobPool, ManyLiveJobs) {
  JobPool pool;
  std::vector<JobSlot> slots;
  for (std::int64_t i = 0; i < 100; ++i) slots.push_back(pool.allocate(make_job(i)));
  EXPECT_EQ(pool.live_count(), 100u);
  for (std::int64_t i = 0; i < 100; ++i) {
    EXPECT_EQ(pool.get(slots[static_cast<std::size_t>(i)]).instance, i);
  }
  for (const JobSlot s : slots) pool.release(s);
  EXPECT_EQ(pool.live_count(), 0u);
}

TEST(JobPool, ClearIsObservationallyFresh) {
  // A cleared pool must hand out the same slot indices a brand-new pool
  // would (the engine-reuse contract depends on it).
  JobPool pool;
  const JobSlot a = pool.allocate(make_job(1));
  (void)pool.allocate(make_job(2));
  pool.release(a);
  pool.clear();

  EXPECT_EQ(pool.live_count(), 0u);
  JobPool fresh;
  const JobSlot recycled = pool.allocate(make_job(9));
  const JobSlot pristine = fresh.allocate(make_job(9));
  EXPECT_EQ(recycled, pristine);
  EXPECT_EQ(pool.get(recycled).instance, 9);
}

TEST(JobPool, ClearKeepsCapacityAndReserveGrowsIt) {
  JobPool pool;
  pool.reserve(64);
  const std::size_t reserved = pool.capacity();
  ASSERT_GE(reserved, 64u);
  std::vector<JobSlot> slots;
  for (std::int64_t i = 0; i < 50; ++i) slots.push_back(pool.allocate(make_job(i)));
  pool.clear();
  EXPECT_EQ(pool.capacity(), reserved);  // the arena's storage survives
}

TEST(JobPoolDeathTest, DoubleReleaseAborts) {
  JobPool pool;
  const JobSlot slot = pool.allocate(make_job(1));
  pool.release(slot);
  EXPECT_DEATH(pool.release(slot), "dead job slot");
}

TEST(JobPoolDeathTest, GetAfterReleaseAborts) {
  JobPool pool;
  const JobSlot slot = pool.allocate(make_job(1));
  pool.release(slot);
  EXPECT_DEATH((void)pool.get(slot), "dead job slot");
}

}  // namespace
}  // namespace e2e
