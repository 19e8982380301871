// The experiment sweep engine shared by all figure benches.
//
// For each (N, U) configuration cell it generates `systems_per_config`
// random systems (paper Section 5.1) and evaluates each one:
//   * analysis: SA/PM and SA/DS bounds -> failure flag (Figure 12) and
//     per-task bound ratios DS/PM (Figure 13); optionally the holistic
//     refinement for the ablation bench;
//   * simulation: average EER times of every task under DS, PM and RG ->
//     per-task average-EER ratios (Figures 14, 15, 16), output jitter.
// Systems are evaluated in parallel; per-system RNG streams are forked by
// index, so results are deterministic regardless of thread scheduling.
#pragma once

#include <cstdint>
#include <vector>

#include "core/analysis/sa_ds.h"
#include "metrics/stats.h"
#include "workload/generator.h"

namespace e2e {

class ScenarioExecutor;

struct SweepOptions {
  int systems_per_config = 100;
  std::uint64_t seed = 20260706;
  /// Simulation horizon = this multiple of the system's maximum period.
  double horizon_periods = 30.0;
  /// Hard cap on the horizon (guards against extreme period spreads).
  Time max_horizon_ticks = 400'000'000;
  /// Worker threads; 0 = E2E_THREADS env var, else hardware concurrency.
  /// Results are identical at every thread count.
  int threads = 0;
  /// Skip the simulations (Figures 12/13 need analysis only).
  bool run_simulation = true;
  /// Skip the analyses (Figures 14-16 need simulation only; SA/PM is
  /// still run because the PM protocol needs its bounds).
  bool run_analysis = true;
  /// Also run the holistic jitter-refined DS analysis (ablation).
  bool run_holistic = false;
  /// Also simulate RG with guard rule 2 disabled (ablation).
  bool run_rg_no_idle_rule = false;

  PriorityPolicy priority_policy = PriorityPolicy::kProportionalDeadlineMonotonic;
  SaDsOptions sa_ds;

  /// Generator extension knobs (0 = the paper's exact model); used by the
  /// non-preemptivity and release-jitter ablations.
  double non_preemptible_fraction = 0.0;
  double release_jitter_fraction = 0.0;

  /// Period-distribution knobs for the sensitivity study (the paper's
  /// exponential rate is unstated; `figure sensitivity` sweeps it).
  double period_mean = 3000.0;
  GeneratorOptions::PeriodDistribution period_distribution =
      GeneratorOptions::PeriodDistribution::kTruncatedExponential;
};

/// Aggregates for one configuration cell.
struct ConfigResult {
  Configuration config;
  int systems = 0;

  // --- analysis-based (Figures 12, 13) --------------------------------
  int ds_failures = 0;  ///< systems where SA/DS bounded no finite EER for some task
  RunningStats bound_ratio;  ///< per-task SA-DS / SA-PM bound, finite systems only
  RunningStats holistic_ratio;       ///< per-task holistic / SA-PM (ablation)
  int holistic_failures = 0;         ///< ablation failure count

  // --- simulation-based (Figures 14-16) -------------------------------
  RunningStats pm_ds_ratio;  ///< per-task avg-EER PM / avg-EER DS
  RunningStats rg_ds_ratio;
  RunningStats pm_rg_ratio;
  RunningStats rg_noidle_ds_ratio;  ///< ablation: RG without rule 2 vs DS

  // --- bound pessimism (ablation; needs run_analysis && run_simulation) -
  /// SA/PM EER bound / worst EER observed under RG in the simulation
  /// window -- how loose the (sound) bound is in practice.
  RunningStats rg_bound_pessimism;
  /// SA/DS EER bound / worst EER observed under DS (finite bounds only).
  RunningStats ds_bound_pessimism;

  // Output jitter normalized by the analysis EER bound (extension: the
  // paper claims PM's jitter is bounded by R_{i,n_i} while RG's can reach
  // the whole EER bound).
  RunningStats ds_jitter;
  RunningStats pm_jitter;
  RunningStats rg_jitter;

  /// Per-system schedule hashes (all protocols simulated on it) combined
  /// in system-index order; identical at every thread count.
  std::uint64_t schedule_hash = 0;
  /// Total simulation events processed across the cell.
  std::int64_t events_processed = 0;

  [[nodiscard]] double failure_rate() const noexcept {
    return systems > 0 ? static_cast<double>(ds_failures) / systems : 0.0;
  }
};

/// Evaluates one configuration cell on a transient executor of
/// `options.threads` workers.
[[nodiscard]] ConfigResult run_configuration(const Configuration& config,
                                             const SweepOptions& options);

/// Evaluates one configuration cell on an existing executor (run_grid and
/// scenario runs share one across all cells, paying the thread-spawn cost
/// once and recycling per-worker engines).
[[nodiscard]] ConfigResult run_configuration(const Configuration& config,
                                             const SweepOptions& options,
                                             ScenarioExecutor& executor);

/// Evaluates the full 35-cell grid (paper order).
[[nodiscard]] std::vector<ConfigResult> run_grid(const SweepOptions& options);

}  // namespace e2e
