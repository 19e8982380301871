#include "sim/timesvc/time_service.h"

#include <algorithm>
#include <cstdlib>

#include "common/error.h"

namespace e2e {
namespace {

/// Drift estimates are slopes of noisy measurements over short early
/// baselines; clamp them so one bad pair cannot wildly over-correct.
constexpr std::int64_t kDriftEstimateClampPpm = 200'000;

/// Combined loss probability of one leg: the protocol channel's loss
/// plus the sync-traffic surcharge, as independent drop chances.
double leg_loss_prob(const FaultPlan& plan) noexcept {
  return 1.0 - (1.0 - plan.signal_loss_prob) * (1.0 - plan.sync_loss_prob);
}

}  // namespace

TimeService::TimeService(const TaskSystem& system, const FaultInjector* faults,
                         TimeServiceConfig config)
    : config_(config), faults_(faults) {
  config_.validate();
  E2E_ASSERT(config_.enabled(), "TimeService requires a positive sync interval");
  const Duration delay_max =
      faults_ != nullptr ? faults_->plan().signal_delay_max : 0;
  exchange_timeout_ = 2 * delay_max + 1;

  // Per-client channel streams forked in processor order from one master,
  // so client p's draws do not depend on how many processors follow it.
  // Seeded from the fault-plan seed: paired runs (same plan, different
  // protocol) see identical wire behaviour.
  Rng master{(faults_ != nullptr ? faults_->plan().seed : 1) ^ 0x717E5EC5u};
  const std::size_t processors = system.processor_count();
  clients_.resize(processors);
  for (std::size_t p = 0; p < processors; ++p) {
    clients_[p].channel = master.fork(0x519C00 + p);
    // Stagger first polls across the interval so clients do not sync in
    // lockstep (and a partition edge cuts them at different phases).
    clients_[p].next_poll =
        config_.sync_interval / 2 +
        static_cast<Duration>(p) * config_.sync_interval /
            static_cast<Duration>(processors);
    if (clients_[p].next_poll < 1) clients_[p].next_poll = 1;
  }
}

Duration TimeService::true_error(std::size_t p, Time at) const {
  return faults_ != nullptr
             ? faults_->local_clock_error(
                   ProcessorId{static_cast<std::int32_t>(p)}, at)
             : 0;
}

Duration TimeService::estimated_error(const Client& client, Time at) const {
  if (!client.have_measurement) return 0;
  return client.measured_error +
         clock_drift_error(at - client.measured_at, client.drift_ppm);
}

Duration TimeService::uncertainty_at(const Client& client, Time at) const {
  if (!client.have_measurement) return kTimeInfinity;
  return client.base_uncertainty +
         clock_drift_error(std::max<Duration>(0, at - client.last_success),
                           config_.holdover_ppm);
}

void TimeService::slew(Client& client, Time to) {
  if (to <= client.applied_at) return;
  const Duration budget =
      clock_drift_error(to - client.applied_at, config_.max_slew_ppm);
  const Duration gap = estimated_error(client, to) - client.applied_error;
  client.applied_error += std::clamp(gap, -budget, budget);
  client.applied_at = to;
}

void TimeService::poll(std::size_t p, Client& client, Time send) {
  const FaultPlan* plan = faults_ != nullptr ? &faults_->plan() : nullptr;
  ++client.stats.exchanges;
  ++client.poll_count;

  // While failed over, probe the primary every failover_after polls so
  // the client returns to the better source once it answers again.
  const bool use_primary =
      !client.primary_bad ||
      client.poll_count % config_.failover_after == 0;

  bool failed = false;
  Time apply_at = send + exchange_timeout_;
  Duration measured = 0;
  Duration rtt = 0;
  if (plan != nullptr && plan->in_partition(send)) {
    failed = true;  // severed link: both legs die, no dice rolled
  } else {
    const double loss = plan != nullptr ? leg_loss_prob(*plan) : 0.0;
    const Duration delay_max = plan != nullptr ? plan->signal_delay_max : 0;
    const auto leg = [&](bool& lost) -> Duration {
      lost = loss > 0.0 && client.channel.next_double() < loss;
      return delay_max > 0 ? client.channel.uniform_int(0, delay_max) : 0;
    };
    bool lost_up = false;
    bool lost_down = false;
    const Duration d_up = leg(lost_up);
    const Duration d_down = leg(lost_down);
    const Time g2 = send + d_up;
    const bool source_silent =
        use_primary && plan != nullptr && plan->source_down(g2);
    if (lost_up || lost_down || source_silent) {
      failed = true;
    } else {
      // The four timestamps. Sources answer instantly (t2 == t3); the
      // stratum-1 primary holds the reference timeline, the stratum-2
      // backup disagrees with it by a fixed offset.
      const Duration source_error =
          use_primary ? 0 : config_.backup_offset;
      const Time g4 = g2 + d_down;
      const Time t1 = send + true_error(p, send);
      const Time t2 = g2 + source_error;
      const Time t3 = t2;
      const Time t4 = g4 + true_error(p, g4);
      const Duration theta = ((t2 - t1) + (t3 - t4)) / 2;
      rtt = (t4 - t1) - (t3 - t2);
      measured = -theta;  // the client's clock error, as the source sees it
      apply_at = g4;
    }
  }

  slew(client, apply_at);

  if (failed) {
    ++client.stats.failures;
    ++client.consecutive_failures;
    if (use_primary) {
      ++client.primary_fail_streak;
      if (!client.primary_bad &&
          client.primary_fail_streak >= config_.failover_after) {
        client.primary_bad = true;
        ++client.stats.failovers;
      }
    }
    if (client.have_measurement &&
        client.consecutive_failures >= config_.holdover_after &&
        !client.holdover) {
      client.holdover = true;
      ++client.stats.holdover_entries;
    }
    if (client.holdover) client.stats.holdover_time += config_.sync_interval;
  } else {
    client.consecutive_failures = 0;
    client.holdover = false;
    if (use_primary) {
      client.primary_fail_streak = 0;
      client.primary_bad = false;
    }
    // Re-anchor on (re)acquisition -- first fix, or the first fix after a
    // long outage -- otherwise refine the drift estimate against the
    // anchor once the baseline spans at least two intervals (short
    // baselines amplify measurement noise into wild slopes).
    const bool reacquired =
        !client.have_anchor ||
        apply_at - client.last_success > 4 * config_.sync_interval;
    if (reacquired) {
      client.have_anchor = true;
      client.anchor_error = measured;
      client.anchor_at = apply_at;
    } else if (apply_at - client.anchor_at >= 2 * config_.sync_interval) {
      const Duration baseline = apply_at - client.anchor_at;
      client.drift_ppm = std::clamp(
          (measured - client.anchor_error) * 1'000'000 / baseline,
          -kDriftEstimateClampPpm, kDriftEstimateClampPpm);
    }
    client.have_measurement = true;
    client.measured_error = measured;
    client.measured_at = apply_at;
    client.last_success = apply_at;
    client.base_uncertainty =
        rtt / 2 + (use_primary ? 0 : config_.backup_offset);
  }

  // Achieved precision: how far the estimated clock (local reading minus
  // applied correction) is from the reference timeline, right now.
  const Duration error =
      std::abs(true_error(p, apply_at) - client.applied_error);
  ++client.stats.samples;
  client.stats.abs_error_sum += error;
  client.stats.abs_error_max = std::max(client.stats.abs_error_max, error);
  if (client.have_measurement) {
    client.stats.uncertainty_max = std::max(
        client.stats.uncertainty_max, uncertainty_at(client, apply_at));
  }
}

void TimeService::advance(std::size_t p, Time to) {
  Client& client = clients_[p];
  // Only exchanges that have fully completed by `to` are visible.
  while (client.next_poll + exchange_timeout_ <= to) {
    const Time send = client.next_poll;
    client.next_poll += config_.sync_interval;
    poll(p, client, send);
  }
  slew(client, to);
}

Time TimeService::estimate_now(ProcessorId p, Time now) {
  E2E_ASSERT(p.index() < clients_.size(), "unknown processor");
  queried_ = true;
  advance(p.index(), now);
  const Client& client = clients_[p.index()];
  return now + true_error(p.index(), now) - client.applied_error;
}

Time TimeService::plan_alarm(ProcessorId p, Time now, Time target) {
  const Time estimated = estimate_now(p, now);
  const Duration remaining = std::max<Duration>(0, target - estimated);
  const Client& client = clients_[p.index()];
  // First-order inverse of the injector's interval perturbation: a local
  // wait of w elapses ~w * (1 + drift/1e6) reference time, so shorten
  // the request by the estimated drift over the remaining interval.
  const Time at = now + remaining - clock_drift_error(remaining, client.drift_ppm);
  return std::max(now, at);
}

Duration TimeService::uncertainty(ProcessorId p, Time now) {
  E2E_ASSERT(p.index() < clients_.size(), "unknown processor");
  queried_ = true;
  advance(p.index(), now);
  return uncertainty_at(clients_[p.index()], now);
}

std::int64_t TimeService::drift_estimate_ppm(ProcessorId p) const {
  E2E_ASSERT(p.index() < clients_.size(), "unknown processor");
  return clients_[p.index()].drift_ppm;
}

bool TimeService::in_holdover(ProcessorId p) const {
  E2E_ASSERT(p.index() < clients_.size(), "unknown processor");
  return clients_[p.index()].holdover;
}

void TimeService::advance_all(Time at) {
  for (std::size_t p = 0; p < clients_.size(); ++p) advance(p, at);
}

const TimeService::ProcessorStats& TimeService::stats(ProcessorId p) const {
  E2E_ASSERT(p.index() < clients_.size(), "unknown processor");
  return clients_[p.index()].stats;
}

}  // namespace e2e
