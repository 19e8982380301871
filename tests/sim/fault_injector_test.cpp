// FaultPlan validation/parsing and FaultInjector determinism: the same
// (system, plan) must yield the same per-processor clocks and the same
// per-event draw sequence, because every robustness experiment leans on
// seeded reproducibility.
#include "sim/fault/fault_injector.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "common/error.h"
#include "sim/fault/fault_plan.h"
#include "task/paper_examples.h"

namespace e2e {
namespace {

TEST(FaultPlan, DisabledByDefault) {
  const FaultPlan plan;
  EXPECT_FALSE(plan.enabled());
}

TEST(FaultPlan, AnySingleKnobEnables) {
  EXPECT_TRUE((FaultPlan{.clock_offset_max = 1}).enabled());
  EXPECT_TRUE((FaultPlan{.drift_ppm_max = 1}).enabled());
  EXPECT_TRUE((FaultPlan{.signal_loss_prob = 0.1}).enabled());
  EXPECT_TRUE((FaultPlan{.signal_delay_max = 1}).enabled());
  EXPECT_TRUE((FaultPlan{.signal_duplicate_prob = 0.1}).enabled());
  EXPECT_TRUE((FaultPlan{.timer_jitter_max = 1}).enabled());
  EXPECT_TRUE((FaultPlan{.stall_prob = 0.1, .stall_max = 1}).enabled());
  // A different seed alone changes nothing.
  EXPECT_FALSE((FaultPlan{.seed = 99}).enabled());
}

TEST(FaultPlan, ValidateRejectsBadValues) {
  EXPECT_THROW((FaultPlan{.clock_offset_max = -1}).validate(), InvalidArgument);
  EXPECT_THROW((FaultPlan{.signal_loss_prob = 1.5}).validate(), InvalidArgument);
  EXPECT_THROW((FaultPlan{.signal_duplicate_prob = -0.1}).validate(),
               InvalidArgument);
  EXPECT_THROW((FaultPlan{.drift_ppm_max = 1'000'000}).validate(),
               InvalidArgument);
  // Stall probability without a stall magnitude is a contradiction.
  EXPECT_THROW((FaultPlan{.stall_prob = 0.5}).validate(), InvalidArgument);
  EXPECT_NO_THROW((FaultPlan{.stall_prob = 0.5, .stall_max = 3}).validate());
}

TEST(FaultPlan, ParseRoundTrip) {
  const FaultPlan plan = parse_fault_plan(
      "seed=9, offset=5, drift-ppm=100, loss-prob=0.25, delay=3, "
      "dup-prob=0.05, timer-jitter=2, stall-prob=0.01, stall=4");
  EXPECT_EQ(plan.seed, 9u);
  EXPECT_EQ(plan.clock_offset_max, 5);
  EXPECT_EQ(plan.drift_ppm_max, 100);
  EXPECT_DOUBLE_EQ(plan.signal_loss_prob, 0.25);
  EXPECT_EQ(plan.signal_delay_max, 3);
  EXPECT_DOUBLE_EQ(plan.signal_duplicate_prob, 0.05);
  EXPECT_EQ(plan.timer_jitter_max, 2);
  EXPECT_DOUBLE_EQ(plan.stall_prob, 0.01);
  EXPECT_EQ(plan.stall_max, 4);
  EXPECT_TRUE(plan.enabled());
}

TEST(FaultPlan, ParseRoundTripTimesvcKeys) {
  const FaultPlan plan = parse_fault_plan(
      "sync-loss-prob=0.4, partition-at=100, partition-for=50, "
      "source-down-at=300, source-down-for=80");
  EXPECT_DOUBLE_EQ(plan.sync_loss_prob, 0.4);
  EXPECT_EQ(plan.partition_at, 100);
  EXPECT_EQ(plan.partition_for, 50);
  EXPECT_EQ(plan.source_down_at, 300);
  EXPECT_EQ(plan.source_down_for, 80);
  EXPECT_TRUE(plan.enabled());
  // write -> parse is the identity.
  EXPECT_EQ(parse_fault_plan(write_fault_plan(plan)), plan);
}

TEST(FaultPlan, ParseRejectsDuplicateKeys) {
  try {
    (void)parse_fault_plan("offset=5,loss-prob=0.1,offset=6");
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("duplicate fault key 'offset'"), std::string::npos);
  }
  // Same value twice is still a duplicate (the spec is ambiguous).
  EXPECT_THROW((void)parse_fault_plan("delay=3,delay=3"), InvalidArgument);
}

TEST(FaultPlan, PartitionAndSourceWindowsAreHalfOpen) {
  const FaultPlan plan{.partition_at = 100,
                       .partition_for = 50,
                       .source_down_at = 300,
                       .source_down_for = 80};
  EXPECT_FALSE(plan.in_partition(99));
  EXPECT_TRUE(plan.in_partition(100));
  EXPECT_TRUE(plan.in_partition(149));
  EXPECT_FALSE(plan.in_partition(150));
  EXPECT_FALSE(plan.source_down(299));
  EXPECT_TRUE(plan.source_down(300));
  EXPECT_FALSE(plan.source_down(380));
}

TEST(FaultPlan, ParseErrorsNameTheKey) {
  try {
    (void)parse_fault_plan("offst=5");
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("offst"), std::string::npos);
    EXPECT_NE(what.find("known:"), std::string::npos);  // lists valid keys
  }
  EXPECT_THROW((void)parse_fault_plan("offset=abc"), InvalidArgument);
  EXPECT_THROW((void)parse_fault_plan("loss-prob=2"), InvalidArgument);
  EXPECT_THROW((void)parse_fault_plan("offset"), InvalidArgument);
}

/// The message parse_fault_plan throws for `spec`.
std::string fault_error(const std::string& spec) {
  try {
    (void)parse_fault_plan(spec);
  } catch (const InvalidArgument& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected InvalidArgument for " << spec;
  return {};
}

TEST(FaultPlan, OverflowAndNonFiniteValuesAreErrorsNamingTheKey) {
  // strtoll saturated the first to INT64_MAX and strtod let NaN through,
  // which every range check passed and which turned loss off.
  EXPECT_EQ(fault_error("delay=99999999999999999999999"),
            "fault key 'delay' is out of range: '99999999999999999999999'");
  EXPECT_EQ(fault_error("loss-prob=nan"), "fault key 'loss-prob' is out of range: 'nan'");
  EXPECT_EQ(fault_error("dup-prob=inf"), "fault key 'dup-prob' is out of range: 'inf'");
  EXPECT_THROW((FaultPlan{.signal_loss_prob = std::nan("")}).validate(), InvalidArgument);
  // The seed spans the full uint64 range, so every seed the writer emits
  // reads back.
  const FaultPlan plan{.seed = 18446744073709551615u, .signal_delay_max = 3};
  EXPECT_EQ(parse_fault_plan(write_fault_plan(plan)), plan);
  EXPECT_EQ(fault_error("seed=-1"), "fault key 'seed' expects an unsigned integer, got '-1'");
}

TEST(FaultInjector, ClockDrawsAreSeededAndPerProcessor) {
  const TaskSystem sys = paper::example2();
  const FaultPlan plan{.seed = 7, .clock_offset_max = 1000, .drift_ppm_max = 500};
  FaultInjector a{sys, plan};
  FaultInjector b{sys, plan};
  for (std::size_t p = 0; p < sys.processor_count(); ++p) {
    const ProcessorId pid{static_cast<std::int32_t>(p)};
    EXPECT_EQ(a.clock_offset(pid), b.clock_offset(pid));
    EXPECT_EQ(a.clock_drift_ppm(pid), b.clock_drift_ppm(pid));
    EXPECT_GE(a.clock_offset(pid), -1000);
    EXPECT_LE(a.clock_offset(pid), 1000);
    EXPECT_GE(a.clock_drift_ppm(pid), -500);
    EXPECT_LE(a.clock_drift_ppm(pid), 500);
  }
}

TEST(FaultInjector, EventStreamIsReproducible) {
  const TaskSystem sys = paper::example2();
  const FaultPlan plan{.seed = 11,
                       .signal_loss_prob = 0.3,
                       .signal_delay_max = 50,
                       .signal_duplicate_prob = 0.2,
                       .stall_prob = 0.4,
                       .stall_max = 9};
  FaultInjector a{sys, plan};
  FaultInjector b{sys, plan};
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(a.signal_outcome(i), b.signal_outcome(i));
    EXPECT_EQ(a.stall(), b.stall());
  }
}

TEST(FaultInjector, SignalCopiesDrawInOrderAndArriveAscending) {
  const TaskSystem sys = paper::example2();
  const FaultPlan plan{.seed = 17,
                       .signal_loss_prob = 0.3,
                       .signal_delay_max = 1'000,
                       .signal_duplicate_prob = 0.5};
  FaultInjector inj{sys, plan};
  // The per-event stream as the injector forks it: the clock draws come
  // from a fork taken first.
  Rng stream{plan.seed};
  (void)stream.fork(0xC10C);
  int duplicated = 0;
  int swapped = 0;
  for (int i = 0; i < 500; ++i) {
    const FaultInjector::SignalOutcome outcome = inj.signal_outcome(i);
    // Reference draw order: loss, duplication, then one delay per copy
    // (the original's before the duplicate's), delivered ascending.
    const bool lost = stream.next_double() < plan.signal_loss_prob;
    const bool dup = stream.next_double() < plan.signal_duplicate_prob;
    std::vector<Duration> want;
    if (!lost) want.push_back(stream.uniform_int(0, plan.signal_delay_max));
    if (dup) want.push_back(stream.uniform_int(0, plan.signal_delay_max));
    if (want.size() == 2 && want[1] < want[0]) ++swapped;
    std::sort(want.begin(), want.end());

    ASSERT_EQ(outcome.copies, static_cast<int>(want.size())) << "signal " << i;
    const std::vector<Duration> got(outcome.arrivals().begin(),
                                    outcome.arrivals().end());
    EXPECT_EQ(got, want) << "signal " << i;
    EXPECT_TRUE(std::is_sorted(got.begin(), got.end()));
    duplicated += outcome.copies == 2 ? 1 : 0;
  }
  // Both branches of the ordering ran.
  EXPECT_GT(duplicated, 0);
  EXPECT_GT(swapped, 0);
}

TEST(FaultInjector, LostSignalHasNoCopies) {
  const TaskSystem sys = paper::example2();
  const FaultPlan plan{.seed = 4, .signal_loss_prob = 1.0, .signal_delay_max = 50};
  FaultInjector inj{sys, plan};
  for (int i = 0; i < 20; ++i) {
    const FaultInjector::SignalOutcome outcome = inj.signal_outcome(i);
    EXPECT_TRUE(outcome.lost());
    EXPECT_EQ(outcome.copies, 0);
    EXPECT_TRUE(outcome.arrivals().empty());
    EXPECT_EQ(outcome, FaultInjector::SignalOutcome{});
  }
}

TEST(FaultInjector, DifferentSeedsDiverge) {
  const TaskSystem sys = paper::example2();
  FaultPlan plan{.seed = 1, .signal_loss_prob = 0.5};
  FaultInjector a{sys, plan};
  plan.seed = 2;
  FaultInjector b{sys, plan};
  bool differed = false;
  for (int i = 0; i < 200 && !differed; ++i) {
    differed = a.signal_outcome(i).lost() != b.signal_outcome(i).lost();
  }
  EXPECT_TRUE(differed);
}

TEST(FaultInjector, OffsetAppliesOnlyToInitialSchedules) {
  const TaskSystem sys = paper::example2();
  // Offset only, no drift: the perturbation is exactly the offset for
  // initialization-time schedules and the identity otherwise.
  const FaultPlan plan{.seed = 5, .clock_offset_max = 40};
  const FaultInjector inj{sys, plan};
  const ProcessorId p{0};
  const Duration offset = inj.clock_offset(p);
  EXPECT_EQ(inj.perturb_scheduled_release(p, 0, 100, /*initial=*/true),
            std::max<Time>(0, 100 + offset));
  EXPECT_EQ(inj.perturb_scheduled_release(p, 0, 100, /*initial=*/false), 100);
  EXPECT_EQ(inj.perturb_scheduled_release(p, 90, 100, /*initial=*/false), 100);
}

TEST(FaultInjector, DriftMismeasuresTheInterval) {
  const TaskSystem sys = paper::example2();
  const FaultPlan plan{.seed = 3, .drift_ppm_max = 400};
  const FaultInjector inj{sys, plan};
  const ProcessorId p{1};
  const std::int64_t ppm = inj.clock_drift_ppm(p);
  // Over an interval of exactly 1e6 ticks the error is exactly `ppm`.
  EXPECT_EQ(inj.perturb_scheduled_release(p, 0, 1'000'000, /*initial=*/false),
            1'000'000 + ppm);
  // Never earlier than now, even for a fast clock.
  EXPECT_GE(inj.perturb_scheduled_release(p, 999'999, 1'000'000,
                                          /*initial=*/false),
            999'999);
}

TEST(FaultInjector, PartitionSeversTheChannelWithoutConsumingDraws) {
  const TaskSystem sys = paper::example2();
  const FaultPlan plan{.seed = 21,
                       .signal_loss_prob = 0.3,
                       .signal_delay_max = 10,
                       .partition_at = 1'000,
                       .partition_for = 500};
  FaultInjector in_window{sys, plan};
  FaultInjector outside{sys, plan};
  // Every signal inside the window is lost, deterministically.
  for (int i = 0; i < 50; ++i) {
    const FaultInjector::SignalOutcome outcome = in_window.signal_outcome(1'000 + i * 10);
    EXPECT_TRUE(outcome.lost());
    EXPECT_TRUE(outcome.arrivals().empty());
  }
  // ... and consumed no draws: the post-window stream matches an injector
  // that never entered the window at all.
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(in_window.signal_outcome(2'000 + i),
              outside.signal_outcome(2'000 + i));
  }
}

TEST(FaultInjector, LocalClockErrorCombinesOffsetAndDrift) {
  const TaskSystem sys = paper::example2();
  const FaultPlan plan{.seed = 7, .clock_offset_max = 1000, .drift_ppm_max = 500};
  const FaultInjector inj{sys, plan};
  const ProcessorId p{0};
  EXPECT_EQ(inj.local_clock_error(p, 0), inj.clock_offset(p));
  EXPECT_EQ(inj.local_clock_error(p, 1'000'000),
            inj.clock_offset(p) + inj.clock_drift_ppm(p));
  EXPECT_EQ(clock_drift_error(2'000'000, 250), 500);
  EXPECT_EQ(clock_drift_error(-2'000'000, 250), -500);
  EXPECT_EQ(clock_drift_error(1'000, -500), 0);  // rounds toward zero
}

TEST(FaultInjector, TimerJitterIsBoundedAndLate) {
  const TaskSystem sys = paper::example2();
  const FaultPlan plan{.seed = 13, .timer_jitter_max = 7};
  FaultInjector inj{sys, plan};
  for (int i = 0; i < 100; ++i) {
    const Time fired = inj.perturb_timer(ProcessorId{0}, 10, 20);
    EXPECT_GE(fired, 20);      // jitter is pure lateness
    EXPECT_LE(fired, 20 + 7);  // bounded by the plan
  }
}

}  // namespace
}  // namespace e2e
