// The Direct Synchronization (DS) protocol, paper Section 3 opening.
//
// When an instance of a subtask completes, the scheduler on its processor
// sends a synchronization signal to the scheduler of the processor where
// the immediate successor executes, which releases the successor instance
// immediately. Minimal mechanism, shortest average EER times -- but later
// subtasks lose periodicity (the "clumping effect"), which is why its
// worst-case analysis (Algorithm SA/DS) yields much larger, sometimes
// unbounded, EER bounds.
//
// Header-only: the protocol is two short callbacks and no state.
#pragma once

#include "core/protocols/traits.h"
#include "sim/engine.h"
#include "sim/protocol.h"

namespace e2e {

class DirectSyncProtocol final : public SyncProtocol {
 public:
  [[nodiscard]] std::string_view name() const override { return "DS"; }

  void on_job_completed(Engine& engine, const Job& job) override {
    const Task& task = engine.system().task(job.ref.task);
    if (job.ref.index + 1 >= static_cast<std::int32_t>(task.chain_length())) return;
    engine.send_sync_signal(SubtaskRef{job.ref.task, job.ref.index + 1},
                            job.instance);
  }

  void on_sync_signal(Engine& engine, SubtaskRef ref,
                      std::int64_t instance) override {
    // Catch-up rule: completions are in-order, so a signal for instance m
    // proves the predecessors of every instance <= m completed. Releasing
    // the whole backlog makes lost or reordered signals recoverable; under
    // an ideal channel the loop runs exactly once.
    for (std::int64_t i = engine.released_instances(ref); i <= instance; ++i) {
      engine.release_now(ref, i);
    }
  }

  [[nodiscard]] static ProtocolTraits traits() noexcept {
    return ProtocolTraits{.interrupts_per_instance = 1,
                          .variables_per_subtask = 0,
                          .needs_sync_interrupt_support = true};
  }
};

}  // namespace e2e
