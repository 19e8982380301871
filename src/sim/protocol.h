// SyncProtocol: the policy interface implemented by the paper's
// synchronization protocols (core/protocols).
//
// Division of labour:
//  * The Engine owns *mechanism*: arrivals of first-subtask instances,
//    ready queues, fixed-priority preemptive dispatching, completion and
//    idle-point detection, precedence checking, statistics.
//  * A SyncProtocol owns *policy*: when an instance of a non-first subtask
//    is released. It reacts to engine callbacks and calls back into the
//    engine (release_now / schedule_release / set_timer).
//
// All callbacks run at the engine's current simulation time. The engine
// knows no concrete protocol: every callback is one virtual call through
// this interface, and a callback a protocol does not override is the
// no-op below. The engine library therefore depends on no protocol
// library.
#pragma once

#include <cstdint>
#include <string_view>

#include "common/ids.h"
#include "common/time.h"
#include "sim/job.h"

namespace e2e {

class Engine;

class SyncProtocol {
 public:
  virtual ~SyncProtocol() = default;

  /// Short identifier ("DS", "PM", "MPM", "RG") for reports.
  [[nodiscard]] virtual std::string_view name() const = 0;

  /// Called once before the first event. Protocols that pre-compute
  /// per-subtask schedules (PM) seed their release events here.
  virtual void initialize(Engine& engine) { (void)engine; }

  /// An instance of any subtask was just released (first subtasks
  /// included). RG applies guard rule 1 here; MPM starts its bound timer.
  virtual void on_job_released(Engine& engine, const Job& job) {
    (void)engine, (void)job;
  }

  /// An instance completed. DS and RG act on the completion
  /// synchronization signal here.
  virtual void on_job_completed(Engine& engine, const Job& job) {
    (void)engine, (void)job;
  }

  /// A timer set via Engine::set_timer fired for (ref, instance).
  virtual void on_timer(Engine& engine, SubtaskRef ref, std::int64_t instance) {
    (void)engine, (void)ref, (void)instance;
  }

  /// A synchronization signal addressed at (ref, instance) arrived: the
  /// predecessor's instance `instance` reported completion (DS/RG) or its
  /// response bound elapsed (MPM). Sent via Engine::send_sync_signal;
  /// under an ideal channel this is invoked synchronously at the send,
  /// under a faulted one it may arrive late, twice, or -- if the signal
  /// is lost -- not at all. Implementations must therefore tolerate
  /// duplicated and out-of-order signals; since predecessor completions
  /// are in-order, a signal for instance m implies every earlier instance
  /// may also be released (the catch-up rule protocols implement via
  /// Engine::released_instances).
  virtual void on_sync_signal(Engine& engine, SubtaskRef ref,
                              std::int64_t instance) {
    (void)engine, (void)ref, (void)instance;
  }

  /// `now` is an idle point on `processor`. RG applies guard rule 2 here.
  virtual void on_idle_point(Engine& engine, ProcessorId processor) {
    (void)engine, (void)processor;
  }
};

}  // namespace e2e
