#include "exec/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace e2e::exec {
namespace {

TEST(ResolveThreads, ExplicitRequestWins) {
  EXPECT_EQ(resolve_threads(3), 3);
  EXPECT_EQ(resolve_threads(1), 1);
}

TEST(ResolveThreads, EnvOverrideAppliesWhenUnrequested) {
  ::setenv("E2E_THREADS", "5", 1);
  EXPECT_EQ(resolve_threads(0), 5);
  EXPECT_EQ(resolve_threads(2), 2);  // explicit still wins
  ::unsetenv("E2E_THREADS");
}

TEST(ResolveThreads, IgnoresInvalidEnvValues) {
  ::setenv("E2E_THREADS", "banana", 1);
  EXPECT_GE(resolve_threads(0), 1);
  ::setenv("E2E_THREADS", "-3", 1);
  EXPECT_GE(resolve_threads(0), 1);
  ::unsetenv("E2E_THREADS");
}

TEST(ResolveThreads, IgnoresEnvValuesThatWouldWrap) {
  // Only resolves the count; no pool is built. 2^32 + k used to narrow
  // to k; chosen so that k differs from the hardware fallback.
  ::unsetenv("E2E_THREADS");
  const int fallback = resolve_threads(0);
  const std::string wrapping = std::to_string(4294967296LL + fallback + 1);
  ::setenv("E2E_THREADS", wrapping.c_str(), 1);
  EXPECT_EQ(resolve_threads(0), fallback);
  ::unsetenv("E2E_THREADS");
}

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  ThreadPool pool{4};
  std::vector<std::atomic<int>> visits(100);
  pool.parallel_for_indexed(100, [&](std::int64_t i, int worker) {
    ASSERT_GE(worker, 0);
    ASSERT_LT(worker, pool.thread_count());
    visits[static_cast<std::size_t>(i)].fetch_add(1);
  });
  for (const auto& count : visits) EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPool, SingleThreadRunsInline) {
  ThreadPool pool{1};
  EXPECT_EQ(pool.thread_count(), 1);
  const std::thread::id caller = std::this_thread::get_id();
  pool.parallel_for_indexed(8, [&](std::int64_t, int worker) {
    EXPECT_EQ(worker, 0);
    EXPECT_EQ(std::this_thread::get_id(), caller);
  });
}

TEST(ThreadPool, CallingThreadIsWorkerZero) {
  // Schedule-independent: the caller runs its indices as worker 0 and no
  // other thread ever does. Caller participation is forced rather than
  // hoped for: every other worker holds its first index until the caller
  // has run one, so the workers cannot drain the range first (which they
  // do under TSan's slowed-down scheduling). The wait is bounded, so a
  // pool that never lets the caller in fails instead of hanging.
  ThreadPool pool{3};
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<bool> caller_participated{false};
  std::atomic<int> misnumbered{0};
  pool.parallel_for_indexed(64, [&](std::int64_t, int worker) {
    if (std::this_thread::get_id() == caller) {
      if (worker != 0) ++misnumbered;
      caller_participated.store(true);
      return;
    }
    if (worker == 0) ++misnumbered;
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (!caller_participated.load() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
  });
  EXPECT_EQ(misnumbered.load(), 0);
  EXPECT_TRUE(caller_participated.load());
}

TEST(ThreadPool, ReusableAcrossCalls) {
  ThreadPool pool{2};
  for (int round = 0; round < 5; ++round) {
    std::atomic<std::int64_t> sum{0};
    pool.parallel_for_indexed(10, [&](std::int64_t i, int) { sum += i; });
    EXPECT_EQ(sum.load(), 45);
  }
}

TEST(ThreadPool, ZeroIndicesIsANoOp) {
  ThreadPool pool{2};
  pool.parallel_for_indexed(0, [&](std::int64_t, int) { FAIL(); });
}

TEST(ThreadPool, RethrowsTheLowestIndexException) {
  // Regardless of scheduling, the *lowest* failing index's exception
  // surfaces, so failure behaviour is reproducible across thread counts.
  for (const int threads : {1, 4}) {
    ThreadPool pool{threads};
    try {
      pool.parallel_for_indexed(64, [&](std::int64_t i, int) {
        if (i == 2 || i == 50) {
          throw std::runtime_error("boom at " + std::to_string(i));
        }
      });
      FAIL() << "expected an exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "boom at 2");
    }
  }
}

TEST(ThreadPool, UsableAfterAnException) {
  ThreadPool pool{2};
  EXPECT_THROW(pool.parallel_for_indexed(
                   4, [](std::int64_t, int) { throw std::runtime_error("x"); }),
               std::runtime_error);
  std::atomic<int> ran{0};
  pool.parallel_for_indexed(4, [&](std::int64_t, int) { ++ran; });
  EXPECT_EQ(ran.load(), 4);
}

TEST(ThreadPoolFreeFunction, CoversTheRange) {
  std::vector<std::atomic<int>> visits(17);
  parallel_for_indexed(17, 3, [&](std::int64_t i, int) {
    visits[static_cast<std::size_t>(i)].fetch_add(1);
  });
  for (const auto& count : visits) EXPECT_EQ(count.load(), 1);
}

}  // namespace
}  // namespace e2e::exec
