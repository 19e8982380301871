#include "experiments/monte_carlo.h"

#include <memory>
#include <optional>
#include <span>
#include <utility>

#include "common/error.h"
#include "common/hash.h"
#include "core/analysis/cache.h"
#include "scenario/executor.h"
#include "sim/engine.h"
#include "sim/execution_model.h"

namespace e2e {
namespace {

/// Everything one run contributes, copied out of the engine before the
/// worker's next run rewinds it.
struct RunOutcome {
  std::vector<std::vector<Duration>> series;  ///< [task] -> EER samples
  std::uint64_t schedule_hash = 0;
  std::int64_t events = 0;
};

/// Per-worker warm state, parked in the executor's WorkerSlot scratch:
/// the phased system clone (mutated in place per run via set_phases).
/// Keyed on (input system, randomize flag): a different scenario cell on
/// the same executor rebuilds it. The protocol is not cached: each run
/// builds a fresh one, so no protocol state crosses runs.
struct McScratch {
  const TaskSystem* source = nullptr;
  bool randomized = false;
  std::optional<TaskSystem> variant;  ///< worker-local phased clone
  std::vector<Time> phases;  ///< per-run phase draw buffer
};

}  // namespace

MonteCarloResult estimate_latency(const TaskSystem& system, ProtocolKind kind,
                                  const MonteCarloOptions& options) {
  ScenarioExecutor executor{options.threads};
  return estimate_latency(system, kind, options, executor);
}

MonteCarloResult estimate_latency(const TaskSystem& system, ProtocolKind kind,
                                  const MonteCarloOptions& options,
                                  ScenarioExecutor& executor) {
  E2E_ASSERT(options.runs > 0, "need at least one run");
  E2E_ASSERT(options.execution_min_fraction > 0.0 &&
                 options.execution_min_fraction <= 1.0,
             "execution_min_fraction must be in (0, 1]");

  MonteCarloResult result;
  result.per_task.resize(system.task_count());

  // PM/MPM bounds are phase-independent: compute once on the input system
  // (memoized -- re-estimating the same system, e.g. one bench rerun per
  // thread count, reuses the bounds).
  const AnalysisResult bounds = *AnalysisCache::shared().sa_pm(system);
  const Time horizon = system.horizon_ticks(options.horizon_periods);

  // One RNG stream per run, forked serially in index order before any
  // worker starts (the executor's fork_streams contract).
  const std::vector<Rng> streams =
      ScenarioExecutor::fork_streams(options.seed, options.runs);

  // Per-worker engines come from the executor and are reset between runs:
  // reset is observationally identical to fresh construction, so which
  // worker simulates a run cannot affect its outcome.
  const std::vector<RunOutcome> outcomes = executor.map<RunOutcome>(
      options.runs, [&](std::int64_t run, ScenarioExecutor::WorkerSlot& slot) {
        Rng rng = streams[static_cast<std::size_t>(run)];
        McScratch& scratch = slot.scratch_as<McScratch>([] { return McScratch{}; });
        if (scratch.source != &system ||
            scratch.randomized != options.randomize_phases) {
          scratch.source = &system;
          scratch.randomized = options.randomize_phases;
          scratch.variant.reset();
          if (options.randomize_phases) scratch.variant.emplace(system);
        }

        // Phase randomization: one uniform draw per task in TaskId order
        // (the exact draw sequence of the builder-rebuild path this
        // replaces), written into the worker's clone in place.
        const TaskSystem* variant = &system;
        if (options.randomize_phases) {
          scratch.phases.clear();
          for (const Task& t : system.tasks()) {
            scratch.phases.push_back(rng.uniform_int(0, t.period - 1));
          }
          scratch.variant->set_phases(scratch.phases);
          variant = &*scratch.variant;
        }

        const std::unique_ptr<SyncProtocol> protocol =
            make_protocol(kind, *variant, &bounds.subtask_bounds);
        UniformExecutionVariation variation{rng.fork(1),
                                            options.execution_min_fraction};
        const EngineOptions engine_options{
            .horizon = variant->max_phase() + horizon,
            .execution =
                options.execution_min_fraction < 1.0 ? &variation : nullptr};
        // No sinks: the engine itself keeps the EER series and the
        // schedule hash, so the run takes the no-sink fast path.
        Engine& engine = slot.engine_for(*variant, *protocol, engine_options);
        engine.run();

        RunOutcome outcome;
        outcome.series.reserve(variant->task_count());
        for (const Task& t : variant->tasks()) {
          const std::span<const Duration> series = engine.eer_series(t.id);
          outcome.series.emplace_back(series.begin(), series.end());
        }
        outcome.schedule_hash = engine.schedule_hash();
        outcome.events = engine.stats().events_processed;
        return outcome;
      });

  // Ordered serial merge: run-major, then task, then sample -- exactly the
  // serial accumulation order, so Welford stats match bit for bit.
  for (const RunOutcome& outcome : outcomes) {
    for (std::size_t task = 0; task < outcome.series.size(); ++task) {
      TaskLatency& latency = result.per_task[task];
      const Duration deadline =
          system.task(TaskId{static_cast<std::int32_t>(task)}).relative_deadline;
      for (const Duration sample : outcome.series[task]) {
        latency.eer.add(static_cast<double>(sample));
        ++latency.instances;
        if (sample > deadline) ++latency.misses;
      }
    }
    result.schedule_hash = hash_combine(result.schedule_hash, outcome.schedule_hash);
    result.events_processed += outcome.events;
  }
  result.runs = options.runs;
  return result;
}

}  // namespace e2e
