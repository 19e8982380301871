#include "experiments/sweep.h"

#include <algorithm>
#include <optional>

#include "common/error.h"
#include "common/hash.h"
#include "core/analysis/holistic.h"
#include "core/analysis/sa_pm.h"
#include "core/protocols/direct_sync.h"
#include "core/protocols/phase_modification.h"
#include "core/protocols/release_guard.h"
#include "metrics/eer_collector.h"
#include "scenario/executor.h"
#include "sim/engine.h"

namespace e2e {
namespace {

/// Everything measured on one random system; merged into ConfigResult on
/// the calling thread in system-index order (determinism).
struct SystemEvaluation {
  bool ds_failure = false;
  bool holistic_failure = false;
  std::vector<double> bound_ratios;
  std::vector<double> holistic_ratios;
  std::vector<double> pm_ds;
  std::vector<double> rg_ds;
  std::vector<double> pm_rg;
  std::vector<double> rg_noidle_ds;
  std::vector<double> ds_jitter;
  std::vector<double> pm_jitter;
  std::vector<double> rg_jitter;
  std::vector<double> rg_pessimism;
  std::vector<double> ds_pessimism;
  std::uint64_t schedule_hash = 0;  ///< per-protocol hashes, fixed order
  std::int64_t events = 0;
};

/// Simulates `system` under `protocol`, reusing the worker's engine (a
/// reset engine reproduces a fresh one exactly, so which worker runs a
/// system cannot affect its evaluation); returns the EER collector and
/// folds the run's schedule hash and event count into `eval`.
EerCollector simulate(ScenarioExecutor::WorkerSlot& slot, const TaskSystem& system,
                      SyncProtocol& protocol, Time horizon,
                      SystemEvaluation& eval) {
  EerCollector collector{system};
  Engine& engine = slot.engine_for(system, protocol, {.horizon = horizon});
  engine.add_sink(&collector);
  engine.run();
  eval.schedule_hash = hash_combine(eval.schedule_hash, engine.schedule_hash());
  eval.events += engine.stats().events_processed;
  return collector;
}

SystemEvaluation evaluate_system(ScenarioExecutor::WorkerSlot& slot, Rng rng,
                                 const GeneratorOptions& gen_options,
                                 const SweepOptions& options) {
  SystemEvaluation eval;
  const TaskSystem system = generate_system(rng, gen_options);
  const InterferenceMap interference{system};

  const AnalysisResult pm = analyze_sa_pm(system, interference);

  std::optional<SaDsResult> ds_result;
  if (options.run_analysis) {
    ds_result = analyze_sa_ds(system, interference, options.sa_ds);
    const SaDsResult& ds = *ds_result;
    eval.ds_failure = ds.any_failure();
    if (!eval.ds_failure) {
      for (const Task& t : system.tasks()) {
        const Duration ds_bound = ds.analysis.eer_bound(t.id);
        const Duration pm_bound = pm.eer_bound(t.id);
        if (!is_infinite(ds_bound) && !is_infinite(pm_bound) && pm_bound > 0) {
          eval.bound_ratios.push_back(static_cast<double>(ds_bound) /
                                      static_cast<double>(pm_bound));
        }
      }
    }
    if (options.run_holistic) {
      SaDsOptions holistic_options = options.sa_ds;
      const SaDsResult holistic = analyze_holistic_ds(system, holistic_options);
      eval.holistic_failure = holistic.any_failure();
      if (!eval.holistic_failure) {
        for (const Task& t : system.tasks()) {
          const Duration h_bound = holistic.analysis.eer_bound(t.id);
          const Duration pm_bound = pm.eer_bound(t.id);
          if (!is_infinite(h_bound) && !is_infinite(pm_bound) && pm_bound > 0) {
            eval.holistic_ratios.push_back(static_cast<double>(h_bound) /
                                           static_cast<double>(pm_bound));
          }
        }
      }
    }
  }

  if (!options.run_simulation) return eval;

  // PM needs finite bounds for every non-last subtask. With per-processor
  // utilization <= 90% SA/PM always converges; guard regardless.
  if (!pm.all_bounded()) return eval;

  const Time horizon = std::min<Time>(options.max_horizon_ticks,
                                      system.horizon_ticks(options.horizon_periods));

  DirectSyncProtocol ds_protocol;
  PhaseModificationProtocol pm_protocol{system, pm.subtask_bounds};
  ReleaseGuardProtocol rg_protocol{system};

  const EerCollector ds_eer = simulate(slot, system, ds_protocol, horizon, eval);
  const EerCollector pm_eer = simulate(slot, system, pm_protocol, horizon, eval);
  const EerCollector rg_eer = simulate(slot, system, rg_protocol, horizon, eval);

  for (const Task& t : system.tasks()) {
    const double ds_avg = ds_eer.average_eer(t.id);
    const double pm_avg = pm_eer.average_eer(t.id);
    const double rg_avg = rg_eer.average_eer(t.id);
    if (ds_eer.completed_instances(t.id) == 0 ||
        pm_eer.completed_instances(t.id) == 0 ||
        rg_eer.completed_instances(t.id) == 0 || ds_avg <= 0.0) {
      continue;  // horizon too short for this task; skip it everywhere
    }
    eval.pm_ds.push_back(pm_avg / ds_avg);
    eval.rg_ds.push_back(rg_avg / ds_avg);
    if (rg_avg > 0.0) eval.pm_rg.push_back(pm_avg / rg_avg);

    const double period = static_cast<double>(t.period);
    eval.ds_jitter.push_back(ds_eer.output_jitter(t.id).mean() / period);
    eval.pm_jitter.push_back(pm_eer.output_jitter(t.id).mean() / period);
    eval.rg_jitter.push_back(rg_eer.output_jitter(t.id).mean() / period);

    // Bound pessimism (ablation): analysis bound over observed worst.
    const Duration rg_worst = rg_eer.worst_eer(t.id);
    if (rg_worst > 0) {
      eval.rg_pessimism.push_back(static_cast<double>(pm.eer_bound(t.id)) /
                                  static_cast<double>(rg_worst));
    }
    if (ds_result.has_value()) {
      const Duration ds_bound = ds_result->analysis.eer_bound(t.id);
      const Duration ds_worst = ds_eer.worst_eer(t.id);
      if (!is_infinite(ds_bound) && ds_worst > 0) {
        eval.ds_pessimism.push_back(static_cast<double>(ds_bound) /
                                    static_cast<double>(ds_worst));
      }
    }
  }

  if (options.run_rg_no_idle_rule) {
    ReleaseGuardProtocol rg_noidle{system, {.enable_idle_point_rule = false}};
    const EerCollector noidle_eer = simulate(slot, system, rg_noidle, horizon, eval);
    for (const Task& t : system.tasks()) {
      const double ds_avg = ds_eer.average_eer(t.id);
      if (ds_avg > 0.0 && noidle_eer.completed_instances(t.id) > 0) {
        eval.rg_noidle_ds.push_back(noidle_eer.average_eer(t.id) / ds_avg);
      }
    }
  }
  return eval;
}

void merge(const SystemEvaluation& eval, ConfigResult& result) {
  ++result.systems;
  if (eval.ds_failure) ++result.ds_failures;
  if (eval.holistic_failure) ++result.holistic_failures;
  for (const double r : eval.bound_ratios) result.bound_ratio.add(r);
  for (const double r : eval.holistic_ratios) result.holistic_ratio.add(r);
  for (const double r : eval.pm_ds) result.pm_ds_ratio.add(r);
  for (const double r : eval.rg_ds) result.rg_ds_ratio.add(r);
  for (const double r : eval.pm_rg) result.pm_rg_ratio.add(r);
  for (const double r : eval.rg_noidle_ds) result.rg_noidle_ds_ratio.add(r);
  for (const double r : eval.ds_jitter) result.ds_jitter.add(r);
  for (const double r : eval.pm_jitter) result.pm_jitter.add(r);
  for (const double r : eval.rg_jitter) result.rg_jitter.add(r);
  for (const double r : eval.rg_pessimism) result.rg_bound_pessimism.add(r);
  for (const double r : eval.ds_pessimism) result.ds_bound_pessimism.add(r);
  result.schedule_hash = hash_combine(result.schedule_hash, eval.schedule_hash);
  result.events_processed += eval.events;
}

}  // namespace

ConfigResult run_configuration(const Configuration& config, const SweepOptions& options) {
  ScenarioExecutor executor{options.threads};
  return run_configuration(config, options, executor);
}

ConfigResult run_configuration(const Configuration& config, const SweepOptions& options,
                               ScenarioExecutor& executor) {
  E2E_ASSERT(options.systems_per_config > 0, "need at least one system per config");

  GeneratorOptions gen_options = options_for(config);
  gen_options.priority_policy = options.priority_policy;
  gen_options.non_preemptible_fraction = options.non_preemptible_fraction;
  gen_options.release_jitter_fraction = options.release_jitter_fraction;
  gen_options.period_mean = options.period_mean;
  gen_options.period_distribution = options.period_distribution;

  // One RNG stream per system, forked up front in index order; evaluation
  // order then cannot influence the streams.
  const std::vector<Rng> streams = ScenarioExecutor::fork_streams(
      options.seed ^ (static_cast<std::uint64_t>(config.subtasks_per_task) << 32) ^
          static_cast<std::uint64_t>(config.utilization_percent),
      options.systems_per_config);

  const std::vector<SystemEvaluation> evaluations =
      executor.map<SystemEvaluation>(
          options.systems_per_config,
          [&](std::int64_t i, ScenarioExecutor::WorkerSlot& slot) {
            return evaluate_system(slot, streams[static_cast<std::size_t>(i)],
                                   gen_options, options);
          });

  ConfigResult result;
  result.config = config;
  for (const SystemEvaluation& eval : evaluations) merge(eval, result);
  return result;
}

std::vector<ConfigResult> run_grid(const SweepOptions& options) {
  ScenarioExecutor executor{options.threads};
  std::vector<ConfigResult> results;
  for (const Configuration& config : paper_configurations()) {
    results.push_back(run_configuration(config, options, executor));
  }
  return results;
}

}  // namespace e2e
