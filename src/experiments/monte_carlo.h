// Monte-Carlo estimation of end-to-end latency distributions and
// deadline-miss probabilities -- the soft-real-time complement to the
// worst-case analyses (paper Section 6 positions DS for "soft timing
// constraints"; this quantifies "soft").
//
// Runs K independent simulations of a system under one protocol, each
// with freshly randomized task phases and (optionally) execution-time
// variation, and aggregates per-task EER statistics and deadline misses.
#pragma once

#include <cstdint>
#include <vector>

#include "core/protocols/factory.h"
#include "metrics/stats.h"
#include "task/system.h"

namespace e2e {

class ScenarioExecutor;

struct MonteCarloOptions {
  int runs = 20;
  std::uint64_t seed = 1;
  /// Horizon per run, as a multiple of the system's maximum period.
  double horizon_periods = 20.0;
  /// Randomize task phases per run (uniform in [0, period)).
  bool randomize_phases = true;
  /// Execution-time variation: actual uniform in [fraction, 1] x WCET;
  /// 1.0 = WCET-exact (the paper's model).
  double execution_min_fraction = 1.0;
  /// Worker threads; 0 = E2E_THREADS env var, else hardware concurrency.
  /// Results are identical at every thread count.
  int threads = 0;
};

struct TaskLatency {
  RunningStats eer;
  std::int64_t instances = 0;
  std::int64_t misses = 0;

  [[nodiscard]] double miss_probability() const noexcept {
    return instances > 0 ? static_cast<double>(misses) /
                               static_cast<double>(instances)
                         : 0.0;
  }
};

struct MonteCarloResult {
  std::vector<TaskLatency> per_task;  ///< indexed by TaskId
  int runs = 0;
  /// Per-run schedule hashes combined in run order: a fingerprint of the
  /// whole experiment, identical at every thread count.
  std::uint64_t schedule_hash = 0;
  /// Total simulation events processed across all runs.
  std::int64_t events_processed = 0;
};

/// Estimates the latency profile of `system` under `kind` on a transient
/// executor of `options.threads` workers.
[[nodiscard]] MonteCarloResult estimate_latency(const TaskSystem& system,
                                                ProtocolKind kind,
                                                const MonteCarloOptions& options = {});

/// Same, fanning out over an existing executor (scenario runs share one
/// across protocols; `options.threads` is ignored).
[[nodiscard]] MonteCarloResult estimate_latency(const TaskSystem& system,
                                                ProtocolKind kind,
                                                const MonteCarloOptions& options,
                                                ScenarioExecutor& executor);

}  // namespace e2e
