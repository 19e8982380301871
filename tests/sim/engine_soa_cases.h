// Shared case runner for the engine storage-layout regression suite.
//
// engine_soa_test compares the hashes this runner computes against
// tests/sim/engine_soa_golden.h, which was generated by running the very
// same function against the pre-SoA engine (AoS counter tables, nested
// deque deferred queues, per-event heap dispatch). Byte-identical hashes
// and event counts across that refactor are the acceptance bar for any
// change to the engine's memory layout or dispatch loop.
//
// The matrix: kSoaSystems generated systems (paper Section 5.1 recipe,
// smaller than the figure benches so the suite stays fast) x the paper's
// protocols plus the hardened MPM-R x three fault-ladder rungs:
//   rung 0: ideal conditions, PrecedencePolicy::kRecord
//   rung 1: skewed clocks (offset + drift), kRecord
//   rung 2: skewed clocks + lossy/duplicating/delayed signals + timer
//           jitter, kDeferRelease (exercises the deferred-release queue)
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>

#include "common/error.h"
#include "common/rng.h"
#include "core/protocols/factory.h"
#include "metrics/schedule_hash.h"
#include "scenario/executor.h"
#include "sim/engine.h"
#include "sim/fault/fault_injector.h"
#include "workload/generator.h"

namespace e2e::soa_cases {

inline constexpr int kSoaSystems = 100;
inline constexpr int kSoaProtocols = 4;
inline constexpr int kSoaRungs = 3;

/// Sentinel for combinations whose protocol cannot be constructed (PM and
/// MPM-R require finite SA/PM bounds, which a generated system need not
/// have). Construction failure is itself deterministic, so the golden
/// table records it.
inline constexpr std::uint64_t kSoaSkipped = 0xffffffffffffffffull;

inline constexpr int kSoaProcessors = 3;

struct SoaCaseResult {
  std::uint64_t hash = kSoaSkipped;
  std::int64_t events = -1;
  // End state of the run: what the dropped-completion accounting pins.
  Time end_time = -1;  ///< Engine::now() after run()
  std::array<Duration, kSoaProcessors> busy{};  ///< busy_time() per processor
  std::int64_t dispatches = -1;
  std::int64_t preemptions = -1;
  std::int64_t idle_points = -1;
};

inline ProtocolKind soa_protocol(int protocol_index) {
  constexpr ProtocolKind kKinds[kSoaProtocols] = {
      ProtocolKind::kDirectSync, ProtocolKind::kPhaseModification,
      ProtocolKind::kReleaseGuard, ProtocolKind::kModifiedPmRetransmit};
  return kKinds[protocol_index];
}

inline TaskSystem soa_system(int system_index) {
  Rng rng{0x5EEDBA5Eu + static_cast<std::uint64_t>(system_index)};
  GeneratorOptions options;
  options.processors = kSoaProcessors;
  options.tasks = 5;
  options.subtasks_per_task = 3;
  options.utilization = 0.5;
  return generate_system(rng, options);
}

/// Runs one (system, protocol, rung) cell; `slot`, when provided, has its
/// engine reused via WorkerSlot::engine_for (the production executors'
/// idiom), which must be observationally identical to fresh construction.
inline SoaCaseResult run_soa_case(int system_index, int protocol_index, int rung,
                                  ScenarioExecutor::WorkerSlot* slot = nullptr) {
  const TaskSystem system = soa_system(system_index);

  std::unique_ptr<SyncProtocol> protocol;
  try {
    protocol = make_protocol(soa_protocol(protocol_index), system);
  } catch (const InvalidArgument&) {
    return SoaCaseResult{};  // unbounded system: deterministically skipped
  }

  FaultPlan plan;
  plan.seed = 0xFA017u + static_cast<std::uint64_t>(system_index) * 16 +
              static_cast<std::uint64_t>(protocol_index) * 4 +
              static_cast<std::uint64_t>(rung);
  if (rung >= 1) {
    plan.clock_offset_max = 2000;
    plan.drift_ppm_max = 200;
  }
  if (rung >= 2) {
    plan.signal_loss_prob = 0.1;
    plan.signal_delay_max = 1500;
    plan.signal_duplicate_prob = 0.05;
    plan.timer_jitter_max = 300;
  }
  std::optional<FaultInjector> faults;
  if (rung >= 1) faults.emplace(system, plan);

  EngineOptions options;
  options.horizon = system.max_phase() + system.horizon_ticks(5.0);
  options.faults = faults.has_value() ? &*faults : nullptr;
  options.precedence_policy =
      rung >= 2 ? PrecedencePolicy::kDeferRelease : PrecedencePolicy::kRecord;

  ScenarioExecutor::WorkerSlot local;
  Engine& engine =
      (slot != nullptr ? *slot : local).engine_for(system, *protocol, options);

  ScheduleHash hash;
  engine.add_sink(&hash);
  engine.run();
  SoaCaseResult result{.hash = hash.value(),
                       .events = engine.stats().events_processed,
                       .end_time = engine.now(),
                       .dispatches = engine.stats().dispatches,
                       .preemptions = engine.stats().preemptions,
                       .idle_points = engine.stats().idle_points};
  E2E_ASSERT(system.processor_count() == static_cast<std::size_t>(kSoaProcessors),
             "soa systems span exactly kSoaProcessors processors");
  for (int p = 0; p < kSoaProcessors; ++p) {
    result.busy[static_cast<std::size_t>(p)] = engine.busy_time(ProcessorId{p});
  }
  return result;
}

}  // namespace e2e::soa_cases
