// Utilization scaling of a TaskSystem -- the knob behind the breakdown-
// utilization experiment (examples/scenarios/breakdown.e2es): multiply
// every execution time by a factor and see where schedulability breaks.
#pragma once

#include "task/system.h"

namespace e2e {

/// Returns a copy of `system` with every execution time scaled by
/// `factor` (rounded, clamped to >= 1 tick). Periods, phases, deadlines,
/// priorities, placement and preemptibility are preserved. Requires
/// factor > 0.
[[nodiscard]] TaskSystem scale_execution_times(const TaskSystem& system, double factor);

}  // namespace e2e
