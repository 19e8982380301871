// PrecisionReport: per-run achieved-precision summary of the time
// service (sim/timesvc) -- the bridge from the service's raw per-client
// counters to what experiment tables and reports print. "Precision"
// here is the estimated clock's distance from the reference timeline,
// sampled at every sync exchange; under perfect sync it is 0 and PM-E
// equals PM, and as it degrades the gap between them is exactly what
// the sync-degradation ladder (examples/scenarios/timesvc_ladder.e2es)
// measures.
#pragma once

#include <cstdint>
#include <vector>

#include "common/time.h"

namespace e2e {

class TimeService;

struct PrecisionReport {
  struct PerProcessor {
    std::int64_t exchanges = 0;
    std::int64_t failures = 0;
    std::int64_t failovers = 0;
    std::int64_t holdover_entries = 0;
    Duration holdover_time = 0;
    std::int64_t samples = 0;
    std::int64_t abs_error_sum = 0;
    Duration abs_error_max = 0;
    Duration uncertainty_max = 0;

    bool operator==(const PerProcessor&) const = default;
  };

  std::vector<PerProcessor> processors;

  // System-wide aggregates (sums over processors; maxima for the maxima).
  std::int64_t exchanges = 0;
  std::int64_t failures = 0;
  std::int64_t failovers = 0;
  std::int64_t holdover_entries = 0;
  Duration holdover_time = 0;
  std::int64_t samples = 0;
  std::int64_t abs_error_sum = 0;
  Duration abs_error_max = 0;
  Duration uncertainty_max = 0;

  /// Mean |estimated-clock error| across all samples (ticks); 0 when no
  /// samples were taken.
  [[nodiscard]] double mean_abs_error() const noexcept {
    return samples == 0 ? 0.0
                        : static_cast<double>(abs_error_sum) /
                              static_cast<double>(samples);
  }

  /// Snapshot of `service` (normally after TimeService::advance_all at
  /// the horizon, so the stats cover the whole run).
  [[nodiscard]] static PrecisionReport from(const TimeService& service);

  /// Merges another run's report into this one (the sweep accumulator:
  /// sums add, maxima take the max).
  void merge(const PrecisionReport& other);

  bool operator==(const PrecisionReport&) const = default;
};

}  // namespace e2e
