// The Release Guard (RG) protocol, paper Section 3.2 -- the paper's main
// contribution.
//
// Each subtask T_{i,j} has a release guard g_{i,j}: the earliest instant
// its next instance may be released. When the predecessor's completion
// signal arrives after g, the instance is released immediately; otherwise
// it is held until g. Guards are updated by two rules:
//   (1) when an instance of T_{i,j} is released, g_{i,j} := now + p_i;
//   (2) at an idle point of the subtask's processor, g_{i,j} := now
//       (so one held release per subtask may fire early -- harmlessly,
//       because no idle point can occur inside a busy period).
// Inter-release times within any busy period are therefore >= p_i, which
// is what makes Algorithm SA/PM's bounds valid for RG (paper Theorem 1).
//
// Requires no global clock and no global load information: guards are
// local and maintained from local releases only.
//
// Storage: guard states live in one flat vector indexed by a (task, chain
// index) offset table -- mirroring the engine's SoA planes -- and each
// held-queue is a cursor-fronted vector rather than a deque, so a guard
// state costs no allocation until a release is actually held. The hot
// callbacks are inline: they are on the engine's sealed fast path
// (SealedKind::kReleaseGuard).
#pragma once

#include <algorithm>
#include <vector>

#include "core/protocols/traits.h"
#include "sim/engine.h"
#include "sim/protocol.h"

namespace e2e {

class ReleaseGuardProtocol final : public SyncProtocol {
 public:
  struct Options {
    /// Disable guard rule 2 (idle-point reset). The paper argues rule 2
    /// shortens average EER times without hurting the worst case;
    /// the ablation report (examples/scenarios/ablation.e2es) measures
    /// exactly that by flipping this off.
    bool enable_idle_point_rule = true;
  };

  explicit ReleaseGuardProtocol(const TaskSystem& system)
      : ReleaseGuardProtocol(system, Options{}) {}
  ReleaseGuardProtocol(const TaskSystem& system, Options options);

  [[nodiscard]] std::string_view name() const override { return "RG"; }
  [[nodiscard]] SealedKind sealed_kind() const noexcept override {
    return SealedKind::kReleaseGuard;
  }

  void on_job_released(Engine& engine, const Job& job) override {
    // Guard rule 1 for releases not initiated by this protocol (first
    // subtasks are arrival-driven). Idempotent for our own releases, which
    // already advanced the guard at enqueue time within the same instant.
    state(job.ref).guard = engine.now() + engine.system().task(job.ref.task).period;
  }

  void on_job_completed(Engine& engine, const Job& job) override {
    const Task& task = engine.system().task(job.ref.task);
    if (job.ref.index + 1 >= static_cast<std::int32_t>(task.chain_length())) return;
    engine.send_sync_signal(SubtaskRef{job.ref.task, job.ref.index + 1},
                            job.instance);
  }

  void on_sync_signal(Engine& engine, SubtaskRef ref,
                      std::int64_t instance) override {
    GuardState& gs = state(ref);
    // Catch-up rule: a signal for instance m implies the predecessors of
    // every instance <= m completed, so admit the whole backlog (lost or
    // reordered signals). Duplicates fall below the cursor and are ignored.
    // Under an ideal channel the loop runs exactly once.
    const std::int64_t upto = instance;
    while (gs.signaled <= upto) {
      const std::int64_t next = gs.signaled++;
      admit(engine, ref, next);
    }
  }

  void on_timer(Engine& engine, SubtaskRef ref, std::int64_t instance) override {
    GuardState& gs = state(ref);
    // Stale timer: the instance was already released (by an idle point or
    // an earlier timer).
    if (gs.held_empty() || gs.held_front() != instance) return;
    if (engine.now() >= gs.guard) {
      release(engine, ref, instance);
    } else {
      // The guard moved later (rule 1 fired for a predecessor instance that
      // was released early at an idle point); re-arm.
      engine.set_timer(gs.guard, ref, instance);
    }
  }

  void on_idle_point(Engine& engine, ProcessorId processor) override {
    if (!options_.enable_idle_point_rule) return;
    // Guard rule 2: for every subtask of this processor holding a release,
    // reset the guard to now and release the earliest held instance. Rule 1
    // inside release() re-advances the guard, so at most one instance per
    // subtask fires per idle point.
    for (const SubtaskRef ref : engine.system().subtasks_on(processor)) {
      GuardState& gs = state(ref);
      if (gs.held_empty()) continue;
      gs.guard = engine.now();
      release(engine, ref, gs.held_front());
    }
  }

  /// Current guard value of `ref` (mainly for tests).
  [[nodiscard]] Time guard_of(SubtaskRef ref) const;

  /// Rewinds every guard to its post-construction state so one protocol
  /// instance can be reused across engine runs (the executors' per-worker
  /// slots). Held-queue storage keeps its capacity, so a warm reuse
  /// allocates nothing.
  void reset_state() noexcept {
    for (GuardState& gs : guards_) {
      gs.guard = 0;
      gs.signaled = 0;
      gs.held.clear();
      gs.head = 0;
    }
  }

  [[nodiscard]] static ProtocolTraits traits() noexcept {
    return ProtocolTraits{.interrupts_per_instance = 2,
                          .variables_per_subtask = 1,
                          .needs_timer_interrupt_support = true,
                          .needs_sync_interrupt_support = true};
  }

 private:
  struct GuardState {
    Time guard = 0;  // initially 0: first instances release immediately
    /// First instance whose sync signal has not been admitted yet: the
    /// catch-up cursor (duplicated signals land below it and are ignored).
    std::int64_t signaled = 0;
    /// Instances whose predecessor completed but whose release is held by
    /// the guard, in release order: a FIFO over held[head..). Non-empty
    /// only transiently; the vector keeps its capacity, so steady state
    /// allocates nothing.
    std::vector<std::int64_t> held;
    std::size_t head = 0;

    [[nodiscard]] bool held_empty() const noexcept { return head == held.size(); }
    [[nodiscard]] std::int64_t held_front() const { return held[head]; }
    void held_push(std::int64_t instance) { held.push_back(instance); }
    void held_pop() {
      if (++head == held.size()) {
        held.clear();
        head = 0;
      }
    }
  };

  /// Admits one instance whose predecessor completed: release it if the
  /// guard (or an idle point) allows, else hold it and arm a guard timer.
  void admit(Engine& engine, SubtaskRef ref, std::int64_t instance) {
    GuardState& gs = state(ref);
    const Time now = engine.now();

    if (gs.held_empty()) {
      if (now >= gs.guard) {
        release(engine, ref, instance);
        return;
      }
      // Guard rule 2 at signal arrival: if the subtask's processor is at
      // an idle point right now, pull the guard down and release.
      if (options_.enable_idle_point_rule &&
          engine.is_idle_point(engine.system().subtask(ref).processor)) {
        gs.guard = now;
        release(engine, ref, instance);
        return;
      }
    }
    // Held: release when the guard is due (or at an earlier idle point).
    // The guard can already be due here when a faulted timer fired late and
    // left an earlier instance holding the queue; clamp to now.
    gs.held_push(instance);
    engine.set_timer(std::max(now, gs.guard), ref, instance);
  }

  /// Releases (ref, instance) now: pops it from `held` if queued there,
  /// applies guard rule 1 eagerly (so a same-instant second signal cannot
  /// slip past the guard) and enqueues the release.
  void release(Engine& engine, SubtaskRef ref, std::int64_t instance) {
    GuardState& gs = state(ref);
    if (!gs.held_empty() && gs.held_front() == instance) gs.held_pop();
    // Guard rule 1, applied eagerly at the release *instant* rather than
    // when the engine processes the release event: a second signal arriving
    // at the same timestamp must already see the advanced guard.
    gs.guard = engine.now() + engine.system().task(ref.task).period;
    engine.release_now(ref, instance);
  }

  [[nodiscard]] GuardState& state(SubtaskRef ref) {
    return guards_[base_[ref.task.index()] + static_cast<std::size_t>(ref.index)];
  }
  [[nodiscard]] const GuardState& state(SubtaskRef ref) const {
    return guards_[base_[ref.task.index()] + static_cast<std::size_t>(ref.index)];
  }

  Options options_;
  std::vector<std::uint32_t> base_;  ///< [task] -> first flat guard index
  std::vector<GuardState> guards_;   ///< [flat subtask]
};

}  // namespace e2e
