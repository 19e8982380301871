// The two worked examples from the paper, as ready-made TaskSystems.
// These anchor the integration tests and the paper-examples report
// (examples/scenarios/paper_examples.e2es), which regenerates Figures 3-7
// event-for-event.
#pragma once

#include "common/time.h"
#include "task/system.h"

namespace e2e::paper {

/// Example 2 (Figure 2): two processors, three tasks.
///   T1   = (period 4, exec 2) on P1, higher priority than T2,1; phase 0.
///   T2   = chain T2,1 (6, 2) on P1 (low prio), T2,2 (6, 3) on P2 (high prio); phase 0.
///   T3   = (6, 2) on P2, lower priority than T2,2; phase 4.
/// Deadlines equal periods. Under DS the first instance of T3 misses its
/// deadline at time 10 (Figure 3); under PM (phase of T2,2 = 4, Figure 5)
/// and RG (Figure 7) it meets it.
[[nodiscard]] TaskSystem example2();

/// Example 1 (Figure 1): the monitor task -- a chain
/// sample -> transfer -> display across a field processor, a "link"
/// processor (the communication link modelled as a processor) and a
/// central processor. The paper gives no numeric parameters; we pick
/// period 12 with execution times {2, 3, 2} so the PM/MPM schedules of
/// Figures 4/6 are non-trivial. Each subtask is alone on its processor.
[[nodiscard]] TaskSystem example1_monitor();

/// Example 1 variant with background interference: each processor also
/// hosts a local higher-priority periodic task, so subtask response times
/// exceed execution times and the MPM timer delay (Figure 6: "delay in
/// sending synchronization signals") actually materializes.
[[nodiscard]] TaskSystem example1_monitor_with_interference();

}  // namespace e2e::paper
