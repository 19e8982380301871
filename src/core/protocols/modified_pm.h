// The Modified Phase Modification (MPM) protocol, paper Section 3.1.
//
// When an instance of T_{i,j} is released at time t, its processor's
// scheduler sets a timer for t + R_{i,j}. When the timer fires the
// instance must have completed (R is an upper bound on its response
// time); the scheduler then sends the synchronization signal, and the
// successor is released on receipt. Under ideal conditions this produces
// the exact schedule of PM, but it needs no global clock and tolerates
// sporadic first releases (successor offsets chase actual releases, not a
// global timeline).
//
// The timer doubles as an overrun detector: if the instance has not
// completed when the timer fires, the bound was violated (possible only if
// the analysis input was wrong). We record the overrun and send the signal
// anyway, which preserves liveness but may break precedence -- the engine
// records that too.
#pragma once

#include "core/analysis/bounds.h"
#include "core/protocols/traits.h"
#include "sim/engine.h"
#include "sim/protocol.h"

namespace e2e {

class ModifiedPmProtocol final : public SyncProtocol {
 public:
  /// Throws InvalidArgument if any non-last subtask's bound is infinite.
  ModifiedPmProtocol(const TaskSystem& system, SubtaskTable response_bounds);

  [[nodiscard]] std::string_view name() const override { return "MPM"; }

  void on_job_released(Engine& engine, const Job& job) override {
    const Task& task = engine.system().task(job.ref.task);
    if (job.ref.index + 1 >= static_cast<std::int32_t>(task.chain_length())) return;
    // Timer at release + R_{i,j}; fires after the instance's completion.
    engine.set_timer(engine.now() + bounds_.at(job.ref), job.ref, job.instance);
  }

  void on_timer(Engine& engine, SubtaskRef ref, std::int64_t instance) override {
    if (engine.completed_instances(ref) <= instance) ++overruns_;
    engine.send_sync_signal(SubtaskRef{ref.task, ref.index + 1}, instance);
  }

  void on_sync_signal(Engine& engine, SubtaskRef ref,
                      std::int64_t instance) override {
    // Catch-up rule (see DirectSyncProtocol::on_sync_signal): the loop
    // runs exactly once under an ideal channel.
    for (std::int64_t i = engine.released_instances(ref); i <= instance; ++i) {
      engine.release_now(ref, i);
    }
  }

  /// Number of bound overruns observed (0 when the bounds are correct).
  [[nodiscard]] std::int64_t overruns() const noexcept { return overruns_; }

  [[nodiscard]] static ProtocolTraits traits() noexcept {
    return ProtocolTraits{.interrupts_per_instance = 2,
                          .variables_per_subtask = 1,
                          .needs_timer_interrupt_support = true,
                          .needs_sync_interrupt_support = true,
                          .needs_global_load_info = true};
  }

 private:
  SubtaskTable bounds_;
  std::int64_t overruns_ = 0;
};

}  // namespace e2e
