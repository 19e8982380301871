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

Event tagged(Time time, std::uint8_t phase, std::int64_t id) {
  Event e = at(time, phase);
  e.instance = id;  // identifies the event across queues
  return e;
}

TEST(EventQueue, SameInstantPushesWaitBehindTheHeapEventsOfTheirPhase) {
  // Events pushed for the open instant skip the heap, yet pop in (phase,
  // seq) order: after the heap's events of their own phase, before the
  // heap's events of a later phase.
  EventQueue q;
  q.push(tagged(5, kReleasePhase, 0));
  q.push(tagged(5, kTimerPhase, 1));
  q.push(tagged(9, kTimerPhase, 2));
  q.open_instant(5);

  EventQueue::Packed out;
  ASSERT_TRUE(q.pop_instant(out));
  EXPECT_EQ(EventQueue::unpack(out).instance, 1);
  q.push(tagged(5, kReleasePhase, 3));  // e.g. release_now from a timer
  q.push(tagged(5, kTimerPhase, 4));    // a timer clamped to the instant
  EXPECT_EQ(q.size(), 4u);
  ASSERT_TRUE(q.pop_instant(out));
  EXPECT_EQ(EventQueue::unpack(out).instance, 4);
  ASSERT_TRUE(q.pop_instant(out));
  EXPECT_EQ(EventQueue::unpack(out).instance, 0);
  ASSERT_TRUE(q.pop_instant(out));
  EXPECT_EQ(EventQueue::unpack(out).instance, 3);
  EXPECT_EQ(EventQueue::unpack(out).seq, 3u);  // FIFO events keep their seq
  EXPECT_FALSE(q.pop_instant(out));

  // The instant is closed: a push at 5 is an ordinary heap event again,
  // and the later timer was never touched.
  q.push(tagged(5, kReleasePhase, 5));
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.pop().instance, 5);
  EXPECT_EQ(q.pop().instance, 2);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, InstantDrainMatchesOnePopOrderUnderSameInstantPushes) {
  // Property check for the engine's drain: opening each instant and
  // draining it with pop_instant() -- while "handlers" push events for the
  // same instant and for later ones -- must yield exactly the sequence a
  // plain heap pops in (time, phase, seq) order. Randomized times and
  // phases with many deliberate full ties.
  Rng rng{20261019};
  EventQueue drained;
  EventQueue reference;  // never opens an instant: every push is a heap push
  std::int64_t next_id = 0;
  const auto push_both = [&](Time time) {
    const auto phase =
        static_cast<std::uint8_t>(rng.uniform_int(kTimerPhase, kReleasePhase));
    drained.push(tagged(time, phase, next_id));
    reference.push(tagged(time, phase, next_id));
    ++next_id;
  };
  for (int i = 0; i < 300; ++i) push_both(rng.uniform_int(0, 19));

  std::int64_t same_instant_pushes = 0;
  while (!drained.empty()) {
    const Time t = drained.top_time();
    drained.open_instant(t);
    EventQueue::Packed p;
    while (drained.pop_instant(p)) {
      const Event got = EventQueue::unpack(p);
      const Event want = reference.pop();
      ASSERT_EQ(got.time, t);
      ASSERT_EQ(got.time, want.time);
      ASSERT_EQ(got.phase, want.phase);
      ASSERT_EQ(got.seq, want.seq);
      ASSERT_EQ(got.instance, want.instance);
      if (next_id >= 3000) continue;
      const std::int64_t pushes = rng.uniform_int(0, 2);
      for (std::int64_t k = 0; k < pushes; ++k) {
        const bool now = rng.uniform_int(0, 1) == 0;
        same_instant_pushes += now ? 1 : 0;
        push_both(now ? t : t + rng.uniform_int(1, 5));
      }
    }
    // The instant boundary is exact: nothing at time t remains.
    if (!drained.empty()) {
      EXPECT_GT(drained.top_time(), t);
    }
  }
  EXPECT_TRUE(reference.empty());
  EXPECT_GT(same_instant_pushes, 500);  // the FIFOs really were exercised
}

TEST(EventQueue, ClearClosesTheInstantAndDropsFifoEvents) {
  EventQueue q;
  q.push(at(5, kTimerPhase));
  q.open_instant(5);
  q.push(at(5, kReleasePhase));  // waits in the release FIFO
  q.clear();
  EXPECT_TRUE(q.empty());
  // No instant is open after clear(): a push at 5 lands in the heap.
  q.push(at(5, kReleasePhase));
  EXPECT_EQ(q.top_time(), 5);
  EXPECT_EQ(q.pop().seq, 0u);
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
