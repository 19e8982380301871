// Job: one instance of a subtask inside the simulator.
#pragma once

#include <cstdint>

#include "common/ids.h"
#include "common/time.h"

namespace e2e {

/// Index of a job slot inside the JobPool.
using JobSlot = std::uint32_t;

/// One released-but-not-yet-completed instance T_{i,j}(m).
/// Owned by the JobPool; observers receive const references that are valid
/// only for the duration of the callback.
struct Job {
  SubtaskRef ref;                 ///< which subtask
  std::int64_t instance = 0;      ///< m, 0-based (paper's m-1)
  ProcessorId processor;
  Priority priority;
  bool preemptible = true;
  Time release_time = 0;
  Duration execution_time = 0;    ///< total epsilon_{i,j}
  Duration remaining = 0;         ///< work left (<= execution_time)
  Time last_dispatch_time = 0;    ///< when it last started/resumed running
  std::uint64_t seq = 0;          ///< global release order (FIFO tie-break)
};

}  // namespace e2e
