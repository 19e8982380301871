#include "sim/fault/fault_injector.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/error.h"

namespace e2e {

/// Deltas are bounded by the horizon (<= ~4e8 ticks) and |ppm| < 1e6, so
/// the product fits int64 with room to spare for any sane plan; guard
/// anyway so absurd plans saturate instead of overflowing.
Duration clock_drift_error(Duration delta, std::int64_t ppm) noexcept {
  if (ppm == 0 || delta == 0) return 0;
  constexpr Duration kLimit = std::numeric_limits<Duration>::max() / 1'000'000;
  if (delta > kLimit) delta = kLimit;
  if (delta < -kLimit) delta = -kLimit;
  return delta * ppm / 1'000'000;
}

FaultInjector::FaultInjector(const TaskSystem& system, FaultPlan plan)
    : plan_(plan), stream_(plan.seed) {
  plan_.validate();
  // A distinct stream for the construction-time clock draws so the number
  // of processors does not shift the per-event stream.
  Rng clock_rng = stream_.fork(/*stream_id=*/0xC10C);
  offsets_.reserve(system.processor_count());
  drifts_.reserve(system.processor_count());
  for (std::size_t p = 0; p < system.processor_count(); ++p) {
    offsets_.push_back(plan_.clock_offset_max == 0
                           ? 0
                           : clock_rng.uniform_int(-plan_.clock_offset_max,
                                                   plan_.clock_offset_max));
    drifts_.push_back(plan_.drift_ppm_max == 0
                          ? 0
                          : clock_rng.uniform_int(-plan_.drift_ppm_max,
                                                  plan_.drift_ppm_max));
  }
}

Duration FaultInjector::clock_offset(ProcessorId p) const {
  E2E_ASSERT(p.index() < offsets_.size(), "unknown processor");
  return offsets_[p.index()];
}

std::int64_t FaultInjector::clock_drift_ppm(ProcessorId p) const {
  E2E_ASSERT(p.index() < drifts_.size(), "unknown processor");
  return drifts_[p.index()];
}

Duration FaultInjector::local_clock_error(ProcessorId p, Time at) const {
  E2E_ASSERT(p.index() < offsets_.size(), "unknown processor");
  return offsets_[p.index()] + clock_drift_error(at, drifts_[p.index()]);
}

Time FaultInjector::perturb_scheduled_release(ProcessorId p, Time now, Time at,
                                              bool initial) const {
  E2E_ASSERT(p.index() < offsets_.size(), "unknown processor");
  Time fired = at + clock_drift_error(at - now, drifts_[p.index()]);
  // The initial offset enters once, through initialization-time schedules
  // (PM's precomputed phases); later schedules chain off actual release
  // times, which already carry it.
  if (initial) fired += offsets_[p.index()];
  return std::max(now, fired);
}

Time FaultInjector::perturb_timer(ProcessorId p, Time now, Time at) {
  E2E_ASSERT(p.index() < drifts_.size(), "unknown processor");
  Time fired = at + clock_drift_error(at - now, drifts_[p.index()]);
  if (plan_.timer_jitter_max > 0) {
    fired += stream_.uniform_int(0, plan_.timer_jitter_max);
  }
  return std::max(now, fired);
}

FaultInjector::SignalOutcome FaultInjector::signal_outcome(Time now) {
  SignalOutcome outcome;
  if (plan_.in_partition(now)) return outcome;  // severed link: all lost
  const bool lost = plan_.signal_loss_prob > 0.0 &&
                    stream_.next_double() < plan_.signal_loss_prob;
  const bool duplicated = plan_.signal_duplicate_prob > 0.0 &&
                          stream_.next_double() < plan_.signal_duplicate_prob;
  const auto draw_delay = [&]() -> Duration {
    return plan_.signal_delay_max == 0
               ? 0
               : stream_.uniform_int(0, plan_.signal_delay_max);
  };
  if (!lost) outcome.delays[0] = draw_delay();
  if (duplicated) outcome.delays[lost ? 0 : 1] = draw_delay();
  outcome.copies = (lost ? 0 : 1) + (duplicated ? 1 : 0);
  if (outcome.copies == 2 && outcome.delays[1] < outcome.delays[0]) {
    std::swap(outcome.delays[0], outcome.delays[1]);
  }
  return outcome;
}

Duration FaultInjector::stall() {
  if (plan_.stall_prob <= 0.0 || plan_.stall_max == 0) return 0;
  if (stream_.next_double() >= plan_.stall_prob) return 0;
  return stream_.uniform_int(1, plan_.stall_max);
}

}  // namespace e2e
