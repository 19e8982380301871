// The Phase Modification (PM) protocol, paper Section 3.1 (after Bettati).
//
// Every subtask is released strictly periodically with its own phase
//   f_{i,j} = f_i + sum_{k<j} R_{i,k},
// where R_{i,k} is an upper bound on subtask k's response time (from
// Algorithm SA/PM). If clocks are synchronized and first releases are
// strictly periodic, each release finds its predecessor instance complete.
//
// The protocol deliberately does NOT consult actual predecessor
// completions: with sporadic first arrivals (ArrivalModel jitter) it
// releases on schedule anyway and the engine records precedence
// violations -- exactly the limitation the paper describes.
#pragma once

#include <vector>

#include "core/analysis/bounds.h"
#include "core/protocols/traits.h"
#include "sim/engine.h"
#include "sim/protocol.h"

namespace e2e {

class PhaseModificationProtocol final : public SyncProtocol {
 public:
  /// `response_bounds` holds R_{i,j} per subtask (Algorithm SA/PM).
  /// Throws InvalidArgument if any non-last subtask's bound is infinite:
  /// PM cannot compute phases for an unbounded predecessor.
  PhaseModificationProtocol(const TaskSystem& system,
                            const SubtaskTable& response_bounds);

  [[nodiscard]] std::string_view name() const override { return "PM"; }

  void initialize(Engine& engine) override;

  /// Every release re-arms the next strictly periodic one.
  void on_job_released(Engine& engine, const Job& job) override {
    if (job.ref.index == 0) return;  // arrivals drive the first subtask
    engine.count_timer_interrupt();  // each periodic release is timer-driven
    const Duration period = engine.system().task(job.ref.task).period;
    const Time next = job.release_time + period;
    if (next <= engine.horizon()) {
      engine.schedule_release(job.ref, job.instance + 1, next);
    }
  }

  /// Phase f_{i,j} assigned to `ref`.
  [[nodiscard]] Time phase_of(SubtaskRef ref) const;

  [[nodiscard]] static ProtocolTraits traits() noexcept {
    return ProtocolTraits{.interrupts_per_instance = 1,
                          .variables_per_subtask = 1,
                          .needs_timer_interrupt_support = true,
                          .needs_global_clock = true,
                          .needs_global_load_info = true};
  }

 private:
  SubtaskTable phases_;  // reused as a per-subtask Time table
};

}  // namespace e2e
