// TimeService: the clock-synchronization layer the paper takes for
// granted, modelled explicitly so protocols can be evaluated under the
// precision it actually *achieves* (ISSUE 6 / ROADMAP "model the
// clock-sync layer itself").
//
// Each processor runs a client that periodically performs an NTP-style
// four-timestamp exchange with a reference source:
//
//   t1 = client's local clock when the request leaves
//   t2 = t3 = source's clock when it answers (zero processing time)
//   t4 = client's local clock when the reply lands
//
//   offset theta = ((t2 - t1) + (t3 - t4)) / 2      (clock error, negated)
//   delay  rtt   = (t4 - t1) - (t3 - t2)            (round-trip time)
//
// The exchange legs ride the same wire model as protocol sync signals:
// an active FaultPlan's loss / delay probabilities apply (plus the
// dedicated `sync-loss-prob` surcharge), and a partition window severs
// the channel outright. The client's local clock is the *injector's*
// clock -- offset + drift * elapsed, via FaultInjector::local_clock_error
// -- so the service estimates exactly the error the engine injects into
// clock-scheduled releases.
//
// Discipline (servo) rules:
//  * measurements update an offset estimate and, once the baseline from
//    the acquisition anchor is long enough, a drift (rate) estimate;
//  * the *applied* correction slews toward the estimate at no more than
//    max_slew_ppm -- the estimated clock never jumps, so a protocol
//    scheduling on it can never be asked to schedule into the past;
//  * stratum failover: after failover_after consecutive silent polls of
//    the stratum-1 primary the client syncs against the stratum-2 backup
//    (a source that disagrees with the reference by backup_offset), and
//    probes the primary periodically to return once it answers;
//  * holdover: after holdover_after consecutive failed exchanges (e.g.
//    a partition: every source unreachable) the servo freezes -- the
//    estimate extrapolates on the last known offset/drift -- and the
//    uncertainty bound grows at holdover_ppm until a sync succeeds.
//
// Determinism: channel draws come from per-client forks of a master
// stream seeded from the fault-plan seed, drawn in processor order at
// construction; everything else is integer arithmetic. The service is
// passive (no engine events): clients advance lazily when queried and
// are driven to the horizon by advance_all() for end-of-run statistics.
// A query also slews the applied correction up to the query time, and
// once the slew limit binds (ProcessorStats::slew_limited > 0) that is
// path-dependent, so a queried service's statistics are its own. A service no protocol queried depends only on
// (system, fault plan, config): every unqueried replay of it agrees, and
// queried() tells the two apart.
#pragma once

#include <cstdint>
#include <vector>

#include "common/ids.h"
#include "common/rng.h"
#include "common/time.h"
#include "sim/fault/fault_injector.h"
#include "sim/timesvc/timesvc_config.h"
#include "task/system.h"

namespace e2e {

class TimeService {
 public:
  /// Achieved-precision counters for one processor's client. Precision
  /// is sampled at every exchange point: |true local-clock error minus
  /// applied correction|, i.e. the error of the estimated clock.
  struct ProcessorStats {
    std::int64_t exchanges = 0;        ///< attempted sync round trips
    std::int64_t failures = 0;         ///< lost legs, silent source, partition
    std::int64_t failovers = 0;        ///< primary -> backup switches
    std::int64_t holdover_entries = 0; ///< times the servo froze
    Duration holdover_time = 0;        ///< ~ticks spent in holdover
    std::int64_t samples = 0;          ///< precision samples taken
    std::int64_t abs_error_sum = 0;    ///< sum |estimated-clock error|, ticks
    Duration abs_error_max = 0;        ///< max |estimated-clock error|, ticks
    Duration uncertainty_max = 0;      ///< max advertised uncertainty, ticks
    std::int64_t slew_limited = 0;     ///< slews max_slew_ppm cut short
  };

  /// `faults` may be null (perfect clocks, ideal channel) and must
  /// outlive the service. Throws InvalidArgument if `config` fails
  /// validation. Like the injector, one service serves one run.
  TimeService(const TaskSystem& system, const FaultInjector* faults,
              TimeServiceConfig config);

  [[nodiscard]] const TimeServiceConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] bool enabled() const noexcept { return config_.enabled(); }
  [[nodiscard]] std::size_t processor_count() const noexcept {
    return clients_.size();
  }

  /// p's estimate of the current global (reference) time at true time
  /// `now`: its local clock reading minus the applied correction.
  /// Advances p's client (exchanges up to `now` are processed first).
  [[nodiscard]] Time estimate_now(ProcessorId p, Time now);

  /// The alarm request that, handed to Engine::schedule_release by a
  /// protocol running on `p` at `now`, lands as close to reference time
  /// `target` as p's estimates allow: the remaining interval on the
  /// estimated clock, shortened first-order by the estimated drift
  /// (the inverse of the injector's interval perturbation). Never
  /// before `now`. Advances p's client.
  [[nodiscard]] Time plan_alarm(ProcessorId p, Time now, Time target);

  /// Current uncertainty bound of p's estimate (ticks): half the last
  /// round trip plus source dispersion, growing at holdover_ppm since
  /// the last successful sync. kTimeInfinity before the first success.
  /// Advances p's client.
  [[nodiscard]] Duration uncertainty(ProcessorId p, Time now);

  /// p's current drift-rate estimate (ppm). Does not advance.
  [[nodiscard]] std::int64_t drift_estimate_ppm(ProcessorId p) const;
  /// True while p's servo is in holdover. Does not advance.
  [[nodiscard]] bool in_holdover(ProcessorId p) const;

  /// Drives every client to `at` (normally the horizon) so stats cover
  /// the whole run regardless of protocol query patterns.
  void advance_all(Time at);

  /// True once estimate_now, plan_alarm or uncertainty advanced a
  /// client. advance_all does not count.
  [[nodiscard]] bool queried() const noexcept { return queried_; }

  [[nodiscard]] const ProcessorStats& stats(ProcessorId p) const;

 private:
  struct Client {
    Rng channel{0};             ///< per-client wire + leg-loss draws
    Time next_poll = 0;         ///< next exchange's send time (true time)
    std::int64_t poll_count = 0;

    // Applied correction: the client's belief of its local clock error,
    // slew-limited. estimate_now = local reading - applied_error.
    Duration applied_error = 0;
    Time applied_at = 0;

    // Latest accepted measurement and the acquisition anchor the drift
    // estimate is computed against.
    bool have_measurement = false;
    Duration measured_error = 0;
    Time measured_at = 0;
    bool have_anchor = false;
    Duration anchor_error = 0;
    Time anchor_at = 0;
    std::int64_t drift_ppm = 0;

    // Failure tracking.
    std::int64_t consecutive_failures = 0;
    std::int64_t primary_fail_streak = 0;
    bool primary_bad = false;   ///< failed over to the backup source
    bool holdover = false;
    Time last_success = 0;
    Duration base_uncertainty = 0;

    ProcessorStats stats;
  };

  /// True local-clock error of processor `p` at `at` (0 without faults).
  [[nodiscard]] Duration true_error(std::size_t p, Time at) const;
  /// Processes all exchanges that complete by `to`, then slews the
  /// applied correction to `to`.
  void advance(std::size_t p, Time to);
  /// One four-timestamp exchange sent at `send`; updates servo + stats.
  void poll(std::size_t p, Client& client, Time send);
  /// Slews applied_error toward the current estimate, bounded by
  /// max_slew_ppm over the elapsed time.
  void slew(Client& client, Time to);
  /// The servo's estimate of the local clock error at `at`
  /// (measurement extrapolated by the drift estimate; frozen values
  /// while in holdover -- extrapolation *is* the holdover behaviour).
  [[nodiscard]] Duration estimated_error(const Client& client, Time at) const;
  [[nodiscard]] Duration uncertainty_at(const Client& client, Time at) const;

  TimeServiceConfig config_;
  const FaultInjector* faults_;
  Duration exchange_timeout_ = 1;  ///< send-to-giving-up, true ticks
  std::vector<Client> clients_;
  bool queried_ = false;
};

}  // namespace e2e
