// MPM-R: a hardened variant of the Modified Phase Modification protocol
// for non-ideal signalling channels (sim/fault). Not part of the paper;
// it exists to answer "which protocol degrades gracefully?" in the
// robustness experiments (examples/scenarios/fault_ladder.e2es).
//
// Two changes relative to MPM:
//  * completion-gated signalling -- when the bound timer for T_{i,j}(m)
//    fires before the instance completed (clock drift or a transient
//    stall made the analysed bound optimistic), MPM would signal anyway
//    and structurally violate precedence; MPM-R records the overrun,
//    re-arms the timer, and only signals once the instance is complete;
//  * retransmit on missing acknowledgement -- after sending, a retry
//    timer is armed; if it fires and the successor instance still has
//    not been released, the signal is retransmitted (charged to the
//    sender's Section 3.3 signal count). The acknowledgement path is
//    modelled as reliable: release of the successor is the ack.
//
// Under ideal conditions neither change can trigger (the synchronous
// delivery releases the successor before the retry timer would be
// armed), so MPM-R produces exactly MPM's schedule and statistics.
#pragma once

#include <vector>

#include "core/analysis/bounds.h"
#include "core/protocols/traits.h"
#include "sim/engine.h"
#include "sim/protocol.h"

namespace e2e {

class MpmRetransmitProtocol final : public SyncProtocol {
 public:
  struct Options {
    /// Interval between a transmission and the retransmit check, and
    /// between overrun re-checks. 0 = auto: max(1, min task period / 8),
    /// which comfortably exceeds any sane signal-delay fault yet retries
    /// several times within one period.
    Duration retry_timeout = 0;
  };

  /// Throws InvalidArgument if any non-last subtask's bound is infinite.
  MpmRetransmitProtocol(const TaskSystem& system, SubtaskTable response_bounds)
      : MpmRetransmitProtocol(system, std::move(response_bounds), Options{}) {}
  MpmRetransmitProtocol(const TaskSystem& system, SubtaskTable response_bounds,
                        Options options);

  [[nodiscard]] std::string_view name() const override { return "MPM-R"; }

  void on_job_released(Engine& engine, const Job& job) override;
  void on_timer(Engine& engine, SubtaskRef ref, std::int64_t instance) override;
  void on_sync_signal(Engine& engine, SubtaskRef ref,
                      std::int64_t instance) override;

  /// Bound overruns observed (0 when bounds hold and clocks are ideal).
  [[nodiscard]] std::int64_t overruns() const noexcept { return overruns_; }
  /// Signals re-sent beyond the first transmission per instance.
  [[nodiscard]] std::int64_t retransmits() const noexcept { return retransmits_; }
  [[nodiscard]] Duration retry_timeout() const noexcept { return retry_timeout_; }

  [[nodiscard]] static ProtocolTraits traits() noexcept {
    // MPM plus the transmit/ack cursors per subtask.
    return ProtocolTraits{.interrupts_per_instance = 2,
                          .variables_per_subtask = 3,
                          .needs_timer_interrupt_support = true,
                          .needs_sync_interrupt_support = true,
                          .needs_global_load_info = true};
  }

 private:
  /// Per-sender-subtask progress cursors; instances advance in order.
  struct SenderState {
    std::int64_t overrun_next = 0;  ///< first instance not yet counted as overrun
    std::int64_t sent_next = 0;     ///< first instance not yet transmitted
    std::int64_t acked_next = 0;    ///< first instance not yet acknowledged
  };

  [[nodiscard]] SenderState& state(SubtaskRef ref);

  SubtaskTable bounds_;
  Duration retry_timeout_ = 0;
  std::vector<std::vector<SenderState>> senders_;  // [task][chain index]
  std::int64_t overruns_ = 0;
  std::int64_t retransmits_ = 0;
};

}  // namespace e2e
