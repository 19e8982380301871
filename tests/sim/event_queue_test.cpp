#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/rng.h"

namespace e2e {
namespace {

Event at(Time time, std::uint8_t phase) {
  return Event{.time = time, .phase = phase, .kind = EventKind::kRelease};
}

TEST(EventQueue, OrdersByTime) {
  EventQueue q;
  q.push(at(30, kReleasePhase));
  q.push(at(10, kReleasePhase));
  q.push(at(20, kReleasePhase));
  EXPECT_EQ(q.pop().time, 10);
  EXPECT_EQ(q.pop().time, 20);
  EXPECT_EQ(q.pop().time, 30);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, PhaseBreaksTimeTies) {
  // A timer at t fires before a release at t, even if queued later.
  EventQueue q;
  q.push(at(10, kReleasePhase));
  q.push(at(10, kTimerPhase));
  EXPECT_EQ(q.pop().phase, kTimerPhase);
  EXPECT_EQ(q.pop().phase, kReleasePhase);
}

TEST(EventQueue, InsertionOrderBreaksFullTies) {
  EventQueue q;
  for (std::int64_t i = 0; i < 10; ++i) {
    Event e = at(5, kReleasePhase);
    e.instance = i;
    q.push(e);
  }
  for (std::int64_t i = 0; i < 10; ++i) {
    EXPECT_EQ(q.pop().instance, i);
  }
}

TEST(EventQueue, SizeTracksContents) {
  EventQueue q;
  EXPECT_EQ(q.size(), 0u);
  q.push(at(1, 0));
  q.push(at(2, 0));
  EXPECT_EQ(q.size(), 2u);
  (void)q.pop();
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueueDeathTest, PopFromEmptyAborts) {
  EventQueue q;
  EXPECT_DEATH((void)q.pop(), "empty event queue");
}

TEST(EventQueue, ClearEmptiesTheQueue) {
  EventQueue q;
  q.push(at(1, kReleasePhase));
  q.push(at(2, kReleasePhase));
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueue, ClearRestartsTheInsertionSequence) {
  // Observable through full-tie ordering: after clear(), new events must
  // win ties against any seq a fresh queue would assign -- i.e. the
  // counter restarts at 0, so a reused queue reproduces a fresh queue's
  // pop order exactly.
  EventQueue q;
  for (std::int64_t i = 0; i < 4; ++i) {
    Event e = at(5, kReleasePhase);
    e.instance = 100 + i;
    q.push(e);
  }
  q.clear();
  for (std::int64_t i = 0; i < 4; ++i) {
    Event e = at(5, kReleasePhase);
    e.instance = i;
    q.push(e);
  }
  for (std::int64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(q.pop().instance, i);  // same order as a fresh queue
  }
}

TEST(EventQueue, ClearKeepsCapacityAndReserveGrowsIt) {
  EventQueue q;
  q.reserve(256);
  const std::size_t reserved = q.capacity();
  ASSERT_GE(reserved, 256u);
  for (std::int64_t i = 0; i < 200; ++i) q.push(at(i, kReleasePhase));
  q.clear();
  EXPECT_EQ(q.capacity(), reserved);  // clear() surrenders no storage
}

TEST(EventQueue, PopBatchAtDrainsExactlyOneTimestampInOrder) {
  // Property check for the engine's batched drain: pop_batch_at(t) must
  // yield exactly the events a one-pop loop would, in the same (phase,
  // seq) order, and leave later timestamps untouched. Randomized times
  // and phases with many deliberate full ties.
  Rng rng{20260808};
  EventQueue batched;
  EventQueue reference;
  for (std::int64_t i = 0; i < 500; ++i) {
    Event e;
    e.time = rng.uniform_int(0, 19);  // ~25 events per timestamp
    e.phase = static_cast<std::uint8_t>(rng.uniform_int(kTimerPhase, kReleasePhase));
    e.kind = EventKind::kRelease;
    e.instance = i;  // identifies the event across both queues
    batched.push(e);
    reference.push(e);
  }

  std::vector<EventQueue::Packed> batch;
  while (!batched.empty()) {
    const Time t = batched.top_time();
    batched.pop_batch_at(t, batch);
    ASSERT_FALSE(batch.empty());
    for (const EventQueue::Packed& p : batch) {
      const Event got = EventQueue::unpack(p);
      const Event want = reference.pop();
      EXPECT_EQ(got.time, t);
      EXPECT_EQ(got.time, want.time);
      EXPECT_EQ(got.phase, want.phase);
      EXPECT_EQ(got.instance, want.instance);
    }
    // The batch boundary is exact: nothing at time t remains.
    if (!batched.empty()) {
      EXPECT_GT(batched.top_time(), t);
    }
  }
  EXPECT_TRUE(reference.empty());
}

TEST(EventQueue, PopIfAtRespectsTimeAndKeyBounds) {
  // The interleaving primitive: only a same-instant event ordered before
  // `before_key` may be popped (a handler-enqueued event must not jump
  // ahead of the batch position that enqueued it).
  EventQueue q;
  Event now = at(10, kTimerPhase);
  q.push(now);
  Event later_phase = at(10, kReleasePhase);
  q.push(later_phase);
  Event next_time = at(11, kTimerPhase);
  q.push(next_time);

  const std::uint64_t timer_key = EventQueue::pack(now, /*seq=*/0).key;

  EventQueue::Packed out;
  // Head is the timer itself: not strictly before its own key.
  EXPECT_FALSE(q.pop_if_at(10, timer_key, out));
  // With a bound above it, the timer pops; the release (higher phase,
  // hence higher key) then stays put.
  EXPECT_TRUE(q.pop_if_at(10, timer_key + 1, out));
  EXPECT_EQ(EventQueue::unpack(out).phase, kTimerPhase);
  EXPECT_FALSE(q.pop_if_at(10, timer_key + 1, out));
  // Wrong timestamp never pops, even with a permissive key bound.
  (void)q.pop();  // drain the release at 10
  EXPECT_FALSE(q.pop_if_at(10, ~0ull, out));
  EXPECT_EQ(q.pop().time, 11);
}

TEST(EventQueue, BatchedDrainMatchesOnePopUnderInterleavedPushes) {
  // Pushing while draining (what protocol handlers do mid-batch): a
  // batched queue that alternates pop_batch_at with same-time pushes via
  // pop_if_at must still reproduce the one-pop order. Modeled here by
  // draining one instant, then pushing same-instant stragglers and
  // verifying pop_if_at admits them in key order.
  EventQueue q;
  for (int i = 0; i < 3; ++i) q.push(at(5, kTimerPhase));
  std::vector<EventQueue::Packed> batch;
  q.pop_batch_at(5, batch);
  ASSERT_EQ(batch.size(), 3u);

  // A handler at t=5 enqueues two more t=5 events (later seq -> later
  // key than everything drained, so the engine's interleave picks them
  // up before moving time forward).
  q.push(at(5, kReleasePhase));
  q.push(at(5, kReleasePhase));
  EventQueue::Packed out;
  ASSERT_TRUE(q.pop_if_at(5, ~0ull, out));
  const std::uint64_t first_key = out.key;
  ASSERT_TRUE(q.pop_if_at(5, ~0ull, out));
  EXPECT_GT(out.key, first_key);  // seq order preserved among stragglers
  EXPECT_FALSE(q.pop_if_at(5, ~0ull, out));
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, InterleavedPushPopKeepsOrder) {
  EventQueue q;
  q.push(at(10, kReleasePhase));
  q.push(at(5, kReleasePhase));
  EXPECT_EQ(q.pop().time, 5);
  q.push(at(7, kReleasePhase));
  q.push(at(12, kReleasePhase));
  EXPECT_EQ(q.pop().time, 7);
  EXPECT_EQ(q.pop().time, 10);
  EXPECT_EQ(q.pop().time, 12);
}

}  // namespace
}  // namespace e2e
