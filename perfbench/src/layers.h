// Layer passes for the traced run. run_scenario hides the engine, so the
// sim, fault, time-service, metrics-sink and protocol layers are timed by
// driving those public APIs directly on the workload's own systems and
// rungs, and by differencing runs that add one layer at a time.
#pragma once

#include <map>
#include <string>
#include <utility>

#include "workloads.h"

namespace perfbench {

/// Metric name -> (value, unit).
using MetricMap = std::map<std::string, std::pair<double, std::string>>;

/// Per-layer metrics of the sim pass. Timings are the best of `reps`
/// repetitions of each run; counts come from one repetition and are exact.
[[nodiscard]] MetricMap run_sim_pass(const SimPassInputs& inputs, int reps);

/// exec.dispatch_ns_per_item: parallel_for_indexed with an empty body on
/// a one-worker pool, best of `reps`.
[[nodiscard]] double exec_dispatch_ns_per_item(int reps);

}  // namespace perfbench
