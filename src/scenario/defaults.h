// Typed E2E_* environment defaults for the scenario layer.
//
// Every tunable the harness reads from the environment is declared here
// once, with the fallback each context uses; docs/cli_and_formats.md
// documents the full table. Benches and the scenario-spec parser load one
// ScenarioDefaults and read typed fields instead of sprinkling
// getenv-with-fallback calls (the old src/experiments/env.h pattern).
#pragma once

#include <cstdint>
#include <string>

namespace e2e {

/// Raw accessors for odd cases (bench gate floors); prefer the typed
/// ScenarioDefaults fields. Empty or unset variables yield the fallback;
/// a value with trailing characters, or one outside the type's range,
/// throws InvalidArgument naming the variable. ScenarioDefaults::load()
/// additionally rejects values that do not fit the field's type.
[[nodiscard]] std::int64_t env_int(const std::string& name, std::int64_t fallback);
[[nodiscard]] double env_double(const std::string& name, double fallback);

/// One snapshot of every E2E_* variable with its per-context fallback.
/// Contexts deliberately disagree on fallbacks (the CLI's montecarlo
/// defaults to 20 runs, the bench to 200), so each (variable, context)
/// pair gets its own field.
struct ScenarioDefaults {
  // --- shared ---------------------------------------------------------
  int threads = 0;  ///< E2E_THREADS (0 = hardware concurrency)

  // --- montecarlo scenarios / bench_montecarlo ------------------------
  std::uint64_t mc_seed = 1;            ///< E2E_SEED
  int mc_runs = 20;                     ///< E2E_MC_RUNS
  double mc_horizon_periods = 20.0;     ///< E2E_HORIZON_PERIODS
  int mc_subtasks = 4;                  ///< E2E_MC_SUBTASKS
  int mc_utilization = 60;              ///< E2E_MC_UTILIZATION
  int bench_mc_runs = 200;              ///< E2E_MC_RUNS (bench fallback)

  // --- sweep scenarios ------------------------------------------------
  std::uint64_t sweep_seed = 20260706;  ///< E2E_SEED
  int sweep_systems = 20;               ///< E2E_SYSTEMS_PER_CONFIG
  double sweep_horizon_periods = 30.0;  ///< E2E_HORIZON_PERIODS

  // --- fault scenarios / bench_faults ---------------------------------
  std::uint64_t fault_seed = 20260806;  ///< E2E_SEED
  int fault_systems = 10;               ///< E2E_FAULT_SYSTEMS
  double fault_horizon_periods = 30.0;  ///< E2E_HORIZON_PERIODS
  int fault_subtasks = 4;               ///< E2E_FAULT_SUBTASKS
  int fault_utilization = 60;           ///< E2E_FAULT_UTILIZATION

  // --- breakdown scenarios (examples/scenarios/breakdown.e2es) --------
  std::uint64_t breakdown_seed = 20260706;  ///< E2E_SEED
  int breakdown_systems = 20;               ///< E2E_BREAKDOWN_SYSTEMS

  // --- figure scenarios (examples/scenarios/fig12.e2es, ...) ----------
  std::uint64_t figure_seed = 20260706;   ///< E2E_SEED
  double figure_horizon_periods = 30.0;   ///< E2E_HORIZON_PERIODS
  int figure_systems = 200;               ///< E2E_SYSTEMS_PER_CONFIG
  /// E2E_SIM_SYSTEMS_PER_CONFIG, falling back to E2E_SYSTEMS_PER_CONFIG,
  /// falling back to 50 (simulation figures cost far more per system).
  /// The ablation report defaults to max(2, half of this).
  int figure_sim_systems = 50;

  // --- analysis benches (bench_analysis / bench_hopa / ...) -----------
  std::uint64_t analysis_seed = 20260706;  ///< E2E_SEED
  int analysis_systems = 12;               ///< E2E_ANALYSIS_SYSTEMS
  int analysis_subtasks = 6;               ///< E2E_ANALYSIS_SUBTASKS
  int analysis_utilization = 75;           ///< E2E_ANALYSIS_UTILIZATION
  int analysis_repeats = 5;                ///< E2E_ANALYSIS_REPEATS
  int hopa_systems = 30;                   ///< E2E_HOPA_SYSTEMS
  int hopa_iters = 12;                     ///< E2E_HOPA_ITERS
  int sensitivity_systems = 60;            ///< E2E_SENSITIVITY_SYSTEMS

  // --- admission service / bench_admission ----------------------------
  std::uint64_t admission_seed = 20260808;  ///< E2E_SEED
  int admission_processors = 32;            ///< E2E_ADMIT_PROCESSORS
  int admission_initial_tasks = 400;        ///< E2E_ADMIT_INITIAL_TASKS
  int admission_requests = 600;             ///< E2E_ADMIT_REQUESTS
  int admission_shards = 8;                 ///< E2E_ADMIT_SHARDS
  int admission_shard_requests = 250;       ///< E2E_ADMIT_SHARD_REQUESTS

  /// Reads every field from the environment (unset/empty = fallback).
  [[nodiscard]] static ScenarioDefaults load();
};

}  // namespace e2e
