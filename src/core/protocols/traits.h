// Static implementation-complexity traits of each protocol, as compared in
// the paper's Section 3.3. The overhead report
// (examples/scenarios/overhead.e2es) prints these next to the dynamically
// measured interrupt counts.
#pragma once

namespace e2e {

struct ProtocolTraits {
  /// Interrupts associated with each subtask instance (paper: DS and PM
  /// have one, MPM and RG have two).
  int interrupts_per_instance = 0;
  /// Per-subtask scheduler variables (paper: PM/MPM store one response
  /// bound, RG stores one release guard, DS stores none).
  int variables_per_subtask = 0;
  bool needs_timer_interrupt_support = false;
  bool needs_sync_interrupt_support = false;
  /// PM only: requires a centralized clock or strict clock synchronization.
  bool needs_global_clock = false;
  /// PM/MPM: scheduling parameters depend on global schedulability
  /// analysis, so workload changes force re-computation everywhere.
  bool needs_global_load_info = false;
};

}  // namespace e2e
