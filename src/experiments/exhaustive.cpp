#include "experiments/exhaustive.h"

#include <algorithm>

#include "common/error.h"
#include "common/math.h"
#include "core/analysis/cache.h"
#include "metrics/eer_collector.h"
#include "scenario/executor.h"
#include "sim/engine.h"
#include "task/builder.h"

namespace e2e {
namespace {

/// Rebuilds `system` with the given per-task phases.
TaskSystem with_phases(const TaskSystem& system, const std::vector<Time>& phases) {
  TaskSystemBuilder builder{system.processor_count()};
  for (const Task& t : system.tasks()) {
    auto handle = builder.add_task({.period = t.period,
                                    .phase = phases[t.id.index()],
                                    .deadline = t.relative_deadline,
                                    .release_jitter = t.release_jitter,
                                    .name = t.name});
    for (const Subtask& s : t.subtasks) {
      handle.subtask(s.processor, s.execution_time, s.priority, s.name);
      if (!s.preemptible) handle.non_preemptible();
    }
  }
  return std::move(builder).build();
}

}  // namespace

ExhaustiveResult exhaustive_worst_eer(const TaskSystem& system, ProtocolKind kind,
                                      const ExhaustiveOptions& options) {
  if (options.phase_step <= 0) {
    throw InvalidArgument("exhaustive search: phase step must be positive");
  }

  // Count the grid before starting.
  std::int64_t combinations = 1;
  for (const Task& t : system.tasks()) {
    const std::int64_t steps = ceil_div(t.period, options.phase_step);
    combinations = sat_mul(combinations, steps);
    if (combinations > options.max_phasings) {
      throw InvalidArgument(
          "exhaustive search: too many phase combinations; raise "
          "max_phasings or coarsen phase_step");
    }
  }

  // PM/MPM bounds are phase-independent: compute once (memoized across
  // repeated searches of the same system).
  const AnalysisResult pm_bounds = *AnalysisCache::shared().sa_pm(system);

  const Duration hyper = system.hyperperiod();
  const Time base_horizon =
      is_infinite(hyper)
          ? system.horizon_ticks(20.0)
          : static_cast<Time>(options.horizon_hyperperiods *
                              static_cast<double>(hyper));

  ExhaustiveResult result;
  result.worst_eer.assign(system.task_count(), 0);
  result.worst_phasing.assign(system.task_count(), {});

  // The phase grid is a mixed-radix odometer with task 0 as the least
  // significant digit; phasing k is decoded from k arithmetically, so
  // workers need no shared iteration state.
  std::vector<std::int64_t> steps;
  steps.reserve(system.task_count());
  for (const Task& t : system.tasks()) {
    steps.push_back(ceil_div(t.period, options.phase_step));
  }
  const auto decode = [&](std::int64_t index, std::vector<Time>& phases) {
    phases.resize(steps.size());
    for (std::size_t task = 0; task < steps.size(); ++task) {
      phases[task] = static_cast<Time>(index % steps[task]) * options.phase_step;
      index /= steps[task];
    }
  };

  ScenarioExecutor executor{options.threads};
  // Per-phasing worst EERs are buffered per chunk and merged serially in
  // phasing order, which reproduces the serial search exactly -- including
  // which of several tying phasings is reported (the first one whose EER
  // strictly exceeds the running maximum). Chunking bounds the buffer for
  // multi-million-phasing searches.
  const std::int64_t chunk_size =
      std::max<std::int64_t>(1024, 8 * executor.thread_count());
  std::vector<std::vector<Duration>> chunk_worst(
      static_cast<std::size_t>(std::min(combinations, chunk_size)));
  std::vector<Time> merge_phases;

  for (std::int64_t chunk_begin = 0; chunk_begin < combinations;
       chunk_begin += chunk_size) {
    const std::int64_t count = std::min(chunk_size, combinations - chunk_begin);
    executor.for_each(count, [&](std::int64_t offset,
                                 ScenarioExecutor::WorkerSlot& slot) {
      std::vector<Time> phases;
      decode(chunk_begin + offset, phases);
      const TaskSystem phased = with_phases(system, phases);
      const auto protocol = make_protocol(kind, phased, &pm_bounds.subtask_bounds);
      const EngineOptions engine_options{.horizon =
                                             phased.max_phase() + base_horizon};
      Engine& engine = slot.engine_for(phased, *protocol, engine_options);
      EerCollector eer{phased};
      engine.add_sink(&eer);
      engine.run();
      std::vector<Duration>& worst = chunk_worst[static_cast<std::size_t>(offset)];
      worst.resize(phased.task_count());
      for (const Task& t : phased.tasks()) worst[t.id.index()] = eer.worst_eer(t.id);
    });

    for (std::int64_t offset = 0; offset < count; ++offset) {
      ++result.phasings_tried;
      const std::vector<Duration>& worst =
          chunk_worst[static_cast<std::size_t>(offset)];
      for (std::size_t task = 0; task < worst.size(); ++task) {
        if (worst[task] > result.worst_eer[task]) {
          result.worst_eer[task] = worst[task];
          decode(chunk_begin + offset, merge_phases);
          result.worst_phasing[task] = merge_phases;
        }
      }
    }
  }
  return result;
}

}  // namespace e2e
