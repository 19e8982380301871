// FaultInjector: the runtime side of a FaultPlan. The Engine consults it
// (when one is configured and enabled) at its existing hook points:
//
//   schedule_release  -> perturb_scheduled_release  (clock offset + drift)
//   set_timer         -> perturb_timer              (drift + timer jitter)
//   send_sync_signal  -> signal_outcome             (loss / delay / dup)
//   do_release        -> stall                      (transient stalls)
//
// Determinism: per-processor offsets and drifts are drawn once at
// construction from the plan seed; per-event draws come from a dedicated
// xoshiro stream advanced in engine call order. Since the engine itself
// is deterministic, two runs of the same (system, protocol, plan) consume
// the stream identically and inject identical faults -- asserted by
// fault_injector_test. Like the Engine, one injector serves one run.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "common/ids.h"
#include "common/rng.h"
#include "common/time.h"
#include "sim/fault/fault_plan.h"
#include "task/system.h"

namespace e2e {

/// delta * ppm / 1e6 in exact integer arithmetic, rounded toward zero and
/// saturating on absurd deltas. The one drift formula shared by the
/// injector's clock perturbations, the time service's truth model, and
/// PM-E's first-order drift compensation.
[[nodiscard]] Duration clock_drift_error(Duration delta, std::int64_t ppm) noexcept;

class FaultInjector {
 public:
  /// Draws the per-processor clock parameters. Throws InvalidArgument if
  /// the plan fails validation.
  FaultInjector(const TaskSystem& system, FaultPlan plan);

  [[nodiscard]] const FaultPlan& plan() const noexcept { return plan_; }
  [[nodiscard]] bool enabled() const noexcept { return plan_.enabled(); }

  // --- clock model ----------------------------------------------------
  /// The initial clock offset of `p` (ticks, may be negative).
  [[nodiscard]] Duration clock_offset(ProcessorId p) const;
  /// The clock drift of `p` (ppm, may be negative).
  [[nodiscard]] std::int64_t clock_drift_ppm(ProcessorId p) const;
  /// Total error of `p`'s local clock at global time `at`: reading the
  /// clock at `at` returns `at + local_clock_error(p, at)`. This is the
  /// asymptotic truth the time service estimates (the engine's chained
  /// alarms accumulate the same offset + drift * elapsed error).
  [[nodiscard]] Duration local_clock_error(ProcessorId p, Time at) const;

  /// Global time at which a release scheduled for (global-intent) time
  /// `at` by `p`'s local clock actually fires. The local clock mismeasures
  /// the interval [now, at] by its drift. `initial` marks schedules made
  /// during protocol initialization (PM's precomputed phases): only those
  /// absolute-time alarms additionally carry the processor's initial clock
  /// offset, which thereafter propagates through the chained next-release
  /// scheduling. (Applying it to every t=0 schedule instead would re-add
  /// the offset to chained releases whose phase was clamped to t=0 and, for
  /// offsets beyond a period, loop the chain at t=0 forever.) Clamped to
  /// `now` (the engine cannot act in the past).
  [[nodiscard]] Time perturb_scheduled_release(ProcessorId p, Time now, Time at,
                                               bool initial) const;

  /// Global time at which a timer set by `p` for `at` actually fires:
  /// drift mismeasures the interval, plus U[0, timer_jitter_max] lateness.
  /// Advances the fault stream. Never earlier than `now`.
  [[nodiscard]] Time perturb_timer(ProcessorId p, Time now, Time at);

  // --- signal channel -------------------------------------------------
  /// Held inline, so transmitting a signal never touches the heap.
  struct SignalOutcome {
    /// Arriving copies: 0 = lost, 1 = the normal case, 2 = duplicated.
    int copies = 0;
    /// Delivery delay of each arriving copy, ascending; entries past
    /// `copies` stay 0.
    std::array<Duration, 2> delays{};

    [[nodiscard]] bool lost() const noexcept { return copies == 0; }
    /// The delays of the arriving copies, in delivery order.
    [[nodiscard]] std::span<const Duration> arrivals() const noexcept {
      return {delays.data(), static_cast<std::size_t>(copies)};
    }
    friend bool operator==(const SignalOutcome&, const SignalOutcome&) = default;
  };
  /// Channel outcome for one transmission attempt at global time `now`.
  /// Advances the stream -- except during a partition window, when every
  /// signal is deterministically lost without consuming draws (a severed
  /// link does not roll dice).
  [[nodiscard]] SignalOutcome signal_outcome(Time now);

  // --- stalls -----------------------------------------------------------
  /// Extra execution demand injected into a released job (0 = no stall).
  /// Advances the fault stream.
  [[nodiscard]] Duration stall();

 private:
  FaultPlan plan_;
  std::vector<Duration> offsets_;      ///< per processor
  std::vector<std::int64_t> drifts_;   ///< per processor, ppm
  Rng stream_;                         ///< per-event draws
};

}  // namespace e2e
