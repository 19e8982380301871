#include "experiments/figures.h"

#include <functional>
#include <map>

#include "core/analysis/hopa.h"
#include "core/analysis/reconfiguration.h"
#include "core/analysis/sa_ds.h"
#include "core/analysis/sa_pm.h"
#include "core/protocols/overhead_aware.h"
#include "core/protocols/factory.h"
#include "experiments/paper_example_report.h"
#include "scenario/executor.h"
#include "task/builder.h"
#include "metrics/eer_collector.h"
#include "report/table.h"
#include "sim/engine.h"
#include "task/paper_examples.h"

namespace e2e {
namespace {

/// Renders grid results as an N x U table; `cell` extracts one value.
void print_grid(std::ostream& out, const std::vector<ConfigResult>& results,
                const std::function<std::string(const ConfigResult&)>& cell) {
  TextTable table({"subtasks \\ util", "50%", "60%", "70%", "80%", "90%"});
  std::map<int, std::vector<std::string>> rows;
  for (const ConfigResult& r : results) {
    auto& row = rows[r.config.subtasks_per_task];
    if (row.empty()) row.push_back(std::to_string(r.config.subtasks_per_task));
    row.push_back(cell(r));
  }
  for (auto& [n, row] : rows) table.add_row(std::move(row));
  out << table.to_string();
}

std::string ratio_cell(const RunningStats& stats) {
  if (stats.count() == 0) return "n/a";
  return TextTable::fmt(stats.mean(), 2);
}

double max_ci(const std::vector<ConfigResult>& results,
              RunningStats ConfigResult::*field) {
  double worst = 0.0;
  for (const ConfigResult& r : results) {
    const double ci = (r.*field).ci_half_width(0.90);
    if (ci > worst) worst = ci;
  }
  return worst;
}

void fig12_failure_rate(std::ostream& out, const SweepOptions& options) {
  out << "== Figure 12: SA/DS failure rate (bound > 300 periods == 'infinite') ==\n"
      << "paper: near 0 for most cells; >0.1 at (8,80),(7,90),(7,80),(6,90); "
         "~1 at (8,90)\n"
      << "systems/config: " << options.systems_per_config << ", seed " << options.seed
      << "\n\n";
  const std::vector<ConfigResult> results = run_grid(options);
  print_grid(out, results, [](const ConfigResult& r) {
    return TextTable::fmt(r.failure_rate(), 3);
  });
}

void fig13_bound_ratio(std::ostream& out, const SweepOptions& options) {
  out << "== Figure 13: average bound ratio (SA/DS EER bound / SA-PM EER bound) ==\n"
      << "paper: ~1-2 and flat at low utilization; climbs to ~10-20 as N and U "
         "grow; >2 for roughly a third of the cells\n"
      << "systems/config: " << options.systems_per_config << ", seed " << options.seed
      << "\n\n";
  const std::vector<ConfigResult> results = run_grid(options);
  print_grid(out, results,
             [](const ConfigResult& r) { return ratio_cell(r.bound_ratio); });
  out << "\ncells with 'n/a' had no system with finite SA/DS bounds\n";
  out << "max 90% CI half-width across cells: "
      << TextTable::fmt(max_ci(results, &ConfigResult::bound_ratio), 3) << "\n";
}

/// Figures 14/15/16: one simulation sweep, reported as the ratio in
/// `field`.
void eer_ratio_figure(std::ostream& out, const SweepOptions& options,
                      const char* title, const char* expectation,
                      RunningStats ConfigResult::*field) {
  out << title << "\n"
      << expectation << "\n"
      << "systems/config: " << options.systems_per_config << ", seed " << options.seed
      << ", horizon " << options.horizon_periods << " max-periods\n\n";
  const std::vector<ConfigResult> results = run_grid(options);
  print_grid(out, results,
             [&](const ConfigResult& r) { return ratio_cell(r.*field); });
  out << "\nmax 90% CI half-width across cells: "
      << TextTable::fmt(max_ci(results, field), 3) << "\n";
}

void overhead_report(std::ostream& out, const SweepOptions& options) {
  out << "== Section 3.3: implementation complexity and run-time overhead ==\n\n";

  TextTable traits_table({"protocol", "interrupts/instance", "variables/subtask",
                          "timer irq", "sync irq", "global clock",
                          "global load info"});
  for (const ProtocolKind kind : kAllProtocolKinds) {
    const ProtocolTraits t = traits_of(kind);
    traits_table.add_row({std::string(to_string(kind)),
                          std::to_string(t.interrupts_per_instance),
                          std::to_string(t.variables_per_subtask),
                          t.needs_timer_interrupt_support ? "yes" : "no",
                          t.needs_sync_interrupt_support ? "yes" : "no",
                          t.needs_global_clock ? "yes" : "no",
                          t.needs_global_load_info ? "yes" : "no"});
  }
  out << traits_table.to_string() << "\n";

  // Measured interrupt/dispatch counts on one generated (N=4, U=70%) system.
  Rng rng{options.seed};
  GeneratorOptions gen = options_for({.subtasks_per_task = 4, .utilization_percent = 70});
  const TaskSystem system = generate_system(rng, gen);
  const Time horizon = system.horizon_ticks(20.0);

  // Baseline SA/PM bounds, computed once up front: the measured loop
  // below hands them to the factory (PM/MPM phase derivation), and the
  // overhead-aware bounds at the end are reported relative to them.
  const AnalysisResult baseline = analyze_sa_pm(system);

  TextTable measured({"protocol", "jobs", "sync signals/job", "timer irqs/job",
                      "dispatches/job", "preemptions/job"});
  // One engine, reset per protocol: the warm event heap and job arena
  // carry over, and no sinks are registered, so the no-sink fast path and
  // the reuse path both get exercised here.
  ScenarioExecutor::WorkerSlot slot;
  for (const ProtocolKind kind : kAllProtocolKinds) {
    const auto protocol = make_protocol(kind, system, &baseline.subtask_bounds);
    Engine& engine = slot.engine_for(system, *protocol, {.horizon = horizon});
    engine.run();
    const SimStats& s = engine.stats();
    const double jobs = static_cast<double>(s.jobs_released);
    measured.add_row({std::string(to_string(kind)), std::to_string(s.jobs_released),
                      TextTable::fmt(static_cast<double>(s.sync_signals) / jobs, 3),
                      TextTable::fmt(static_cast<double>(s.timer_interrupts) / jobs, 3),
                      TextTable::fmt(static_cast<double>(s.dispatches) / jobs, 3),
                      TextTable::fmt(static_cast<double>(s.preemptions) / jobs, 3)});
  }
  out << "measured on one (N=4, U=70%) system, horizon 20 max-periods:\n"
      << measured.to_string();

  // Section 3.1's dynamic-workload criticism, quantified: add one
  // high-priority task spanning all processors and count how many
  // *pre-existing* subtasks need a scheduler parameter rewritten.
  TaskSystemBuilder before_builder{system.processor_count()};
  TaskSystemBuilder after_builder{system.processor_count()};
  for (TaskSystemBuilder* builder : {&before_builder, &after_builder}) {
    for (const Task& t : system.tasks()) {
      auto handle = builder->add_task({.period = t.period,
                                       .phase = t.phase,
                                       .deadline = t.relative_deadline,
                                       .name = t.name});
      for (const Subtask& s : t.subtasks) {
        handle.subtask(s.processor, s.execution_time, s.priority, s.name);
      }
    }
  }
  {
    const Duration new_period = system.min_period();
    auto handle = after_builder.add_task({.period = new_period, .name = "added"});
    for (std::size_t p = 0; p < system.processor_count(); ++p) {
      handle.subtask(ProcessorId{static_cast<std::int32_t>(p)},
                     std::max<Duration>(1, new_period / 20), Priority{0});
    }
  }
  const ReconfigurationCost reconfiguration = reconfiguration_cost(
      std::move(before_builder).build(), std::move(after_builder).build());

  TextTable reconfig({"protocol", "parameters to rewrite", "of subtasks"});
  reconfig.add_row({"DS", std::to_string(reconfiguration.ds),
                    std::to_string(reconfiguration.common_subtasks)});
  reconfig.add_row({"PM", std::to_string(reconfiguration.pm),
                    std::to_string(reconfiguration.common_subtasks)});
  reconfig.add_row({"MPM", std::to_string(reconfiguration.mpm),
                    std::to_string(reconfiguration.common_subtasks)});
  reconfig.add_row({"RG", std::to_string(reconfiguration.rg),
                    std::to_string(reconfiguration.common_subtasks)});
  out << "\nreconfiguration cost of adding one high-priority task across "
         "all processors\n(Section 3.1: PM/MPM depend on global analysis "
         "results, DS/RG do not):\n"
      << reconfig.to_string();

  // Section 3.3's closing remark, executed: charge interrupt and context-
  // switch costs into the WCETs and watch the "equal" PM/RG bounds
  // separate (RG pays one extra interrupt per instance).
  const OverheadCosts costs{
      .context_switch = std::max<Duration>(1, system.min_period() / 2000),
      .interrupt = std::max<Duration>(1, system.min_period() / 1000)};
  TextTable overhead_bounds({"protocol", "per-instance overhead",
                             "mean EER-bound inflation", "schedulable tasks"});
  for (const ProtocolKind kind : kAllProtocolKinds) {
    const TaskSystem inflated = inflate_for_overhead(system, kind, costs);
    const AnalysisResult result = kind == ProtocolKind::kDirectSync
                                      ? analyze_sa_ds(inflated).analysis
                                      : analyze_sa_pm(inflated);
    RunningStats inflation;
    int schedulable = 0;
    for (const Task& t : system.tasks()) {
      const Duration b = baseline.eer_bound(t.id);
      const Duration i = result.eer_bound(t.id);
      if (!is_infinite(b) && !is_infinite(i) && b > 0) {
        inflation.add(static_cast<double>(i) / static_cast<double>(b));
      }
      if (result.task_schedulable[t.id.index()]) ++schedulable;
    }
    overhead_bounds.add_row(
        {std::string(to_string(kind)),
         std::to_string(per_instance_overhead(kind, costs)) + " ticks",
         TextTable::fmt(inflation.mean(), 3),
         std::to_string(schedulable) + "/" + std::to_string(system.task_count())});
  }
  out << "\noverhead-aware bounds (interrupt = 0.1% of the shortest period, "
         "context switch = 0.05%),\nrelative to the overhead-free SA/PM "
         "bounds:\n"
      << overhead_bounds.to_string();
}

void jitter_report(std::ostream& out, const SweepOptions& options) {
  out << "== Extension: output jitter |EER(m) - EER(m-1)|, normalized by period ==\n"
      << "paper Section 6: PM/MPM jitter is bounded by the last subtask's "
         "response bound; RG's can reach the whole EER bound; DS floats "
         "freely. Expect DS >= RG > PM.\n\n";
  const std::vector<ConfigResult> results = run_grid(options);

  out << "-- DS mean normalized jitter --\n";
  print_grid(out, results,
             [](const ConfigResult& r) { return ratio_cell(r.ds_jitter); });
  out << "\n-- PM mean normalized jitter --\n";
  print_grid(out, results,
             [](const ConfigResult& r) { return ratio_cell(r.pm_jitter); });
  out << "\n-- RG mean normalized jitter --\n";
  print_grid(out, results,
             [](const ConfigResult& r) { return ratio_cell(r.rg_jitter); });
}

void ablation_report(std::ostream& out, const SweepOptions& options) {
  out << "== Ablation A: SA/DS vs holistic (best-case-refined jitter) bounds ==\n"
      << "the refined jitter never hurts: expect ratio <= SA/DS ratio and a "
         "lower failure rate\n\n";
  SweepOptions analysis_options = options;
  analysis_options.run_simulation = false;
  analysis_options.run_analysis = true;
  analysis_options.run_holistic = true;
  const std::vector<ConfigResult> analysis_results = run_grid(analysis_options);

  out << "-- SA/DS / SA-PM bound ratio --\n";
  print_grid(out, analysis_results,
             [](const ConfigResult& r) { return ratio_cell(r.bound_ratio); });
  out << "\n-- holistic / SA-PM bound ratio --\n";
  print_grid(out, analysis_results,
             [](const ConfigResult& r) { return ratio_cell(r.holistic_ratio); });
  out << "\n-- SA/DS failure rate vs holistic failure rate --\n";
  print_grid(out, analysis_results, [](const ConfigResult& r) {
    return TextTable::fmt(r.failure_rate(), 2) + "/" +
           TextTable::fmt(r.systems > 0 ? static_cast<double>(r.holistic_failures) /
                                              r.systems
                                        : 0.0,
                          2);
  });

  out << "\n== Ablation B: RG guard rule 2 (idle-point reset) disabled ==\n"
      << "paper Section 3.2: rule 2 shortens average EER times; expect "
         "RG-without-rule-2 / DS above RG/DS, most visibly at low load\n\n";
  SweepOptions sim_options = options;
  sim_options.run_simulation = true;
  sim_options.run_analysis = false;
  sim_options.run_rg_no_idle_rule = true;
  const std::vector<ConfigResult> sim_results = run_grid(sim_options);
  out << "-- RG/DS (rule 2 on) --\n";
  print_grid(out, sim_results,
             [](const ConfigResult& r) { return ratio_cell(r.rg_ds_ratio); });
  out << "\n-- RG/DS (rule 2 off) --\n";
  print_grid(out, sim_results,
             [](const ConfigResult& r) { return ratio_cell(r.rg_noidle_ds_ratio); });

  out << "\n== Ablation C: priority assignment policy (SA/DS failure rate) ==\n"
      << "the paper fixes PDM; RM/DM/equal-slice quantify how much the "
         "policy choice matters\n\n";
  for (const PriorityPolicy policy :
       {PriorityPolicy::kProportionalDeadlineMonotonic, PriorityPolicy::kRateMonotonic,
        PriorityPolicy::kDeadlineMonotonic, PriorityPolicy::kEqualSliceDeadline}) {
    SweepOptions policy_options = options;
    policy_options.run_simulation = false;
    policy_options.run_analysis = true;
    policy_options.priority_policy = policy;
    const char* name = policy == PriorityPolicy::kProportionalDeadlineMonotonic
                           ? "PDM (paper)"
                       : policy == PriorityPolicy::kRateMonotonic      ? "RM"
                       : policy == PriorityPolicy::kDeadlineMonotonic ? "DM"
                                                                       : "equal-slice";
    out << "-- " << name << " --\n";
    print_grid(out, run_grid(policy_options), [](const ConfigResult& r) {
      return TextTable::fmt(r.failure_rate(), 2);
    });
    out << "\n";
  }

  out << "== Ablation D: bound pessimism (analysis bound / observed worst EER) ==\n"
      << "how loose the sound bounds are against a long simulation window; "
         "expect SA/DS markedly looser than SA/PM at high (N, U)\n\n";
  SweepOptions pessimism_options = options;
  pessimism_options.run_simulation = true;
  pessimism_options.run_analysis = true;
  const std::vector<ConfigResult> pessimism_results = run_grid(pessimism_options);
  out << "-- SA/PM bound / worst EER under RG --\n";
  print_grid(out, pessimism_results,
             [](const ConfigResult& r) { return ratio_cell(r.rg_bound_pessimism); });
  out << "\n-- SA/DS bound / worst EER under DS (finite bounds only) --\n";
  print_grid(out, pessimism_results,
             [](const ConfigResult& r) { return ratio_cell(r.ds_bound_pessimism); });

  out << "\n== Ablation E: 20% non-preemptible subtasks (extension) ==\n"
      << "blocking terms lengthen bounds and raise the SA/DS failure rate\n\n";
  SweepOptions np_options = options;
  np_options.run_simulation = false;
  np_options.run_analysis = true;
  np_options.non_preemptible_fraction = 0.2;
  out << "-- SA/DS failure rate --\n";
  print_grid(out, run_grid(np_options), [](const ConfigResult& r) {
    return TextTable::fmt(r.failure_rate(), 2);
  });

  out << "\n== Ablation F: bounded release jitter of 10% of each period "
         "(extension) ==\n"
      << "jitter-aware ceilings inflate the bound ratio and failure rate\n\n";
  SweepOptions jitter_options = options;
  jitter_options.run_simulation = false;
  jitter_options.run_analysis = true;
  jitter_options.release_jitter_fraction = 0.1;
  const std::vector<ConfigResult> jitter_results = run_grid(jitter_options);
  out << "-- SA/DS failure rate --\n";
  print_grid(out, jitter_results, [](const ConfigResult& r) {
    return TextTable::fmt(r.failure_rate(), 2);
  });
  out << "\n-- bound ratio SA-DS / SA-PM --\n";
  print_grid(out, jitter_results,
             [](const ConfigResult& r) { return ratio_cell(r.bound_ratio); });
}

/// HOPA priority optimization (extension; paper reference [10]): how much
/// schedulability the deadline-redistribution heuristic buys over the
/// paper's fixed PDM assignment, judged by Algorithm SA/PM. Each (N, U)
/// cell forks its systems from the same master seed a grid cell uses.
void hopa_report(std::ostream& out, const SweepOptions& options) {
  const int systems = options.systems_per_config;
  out << "== HOPA priority optimization vs PDM (SA/PM schedulability, "
         "deadline = period) ==\n"
      << systems << " systems per cell; 'sched' = fraction with every "
         "EER bound within its deadline; 'margin' = mean of max_i "
         "bound_i/D_i (finite systems)\n\n";

  TextTable table({"N", "U%", "PDM sched", "HOPA sched", "PDM margin",
                   "HOPA margin", "improved"});
  for (const Configuration& config : hopa_configurations()) {
    Rng master{options.seed ^
               (static_cast<std::uint64_t>(config.subtasks_per_task) << 32) ^
               static_cast<std::uint64_t>(config.utilization_percent)};
    int pdm_ok = 0;
    int hopa_ok = 0;
    int improved = 0;
    RunningStats pdm_margin;
    RunningStats hopa_margin;
    for (int i = 0; i < systems; ++i) {
      Rng rng = master.fork(static_cast<std::uint64_t>(i));
      const HopaResult r =
          optimize_priorities_hopa(generate_system(rng, options_for(config)));
      if (r.initial_margin <= 1.0) ++pdm_ok;
      if (r.schedulable()) ++hopa_ok;
      if (r.improved()) ++improved;
      if (r.initial_margin < 1e8) pdm_margin.add(r.initial_margin);
      if (r.margin < 1e8) hopa_margin.add(r.margin);
    }
    table.add_row({std::to_string(config.subtasks_per_task),
                   std::to_string(config.utilization_percent),
                   TextTable::fmt(static_cast<double>(pdm_ok) / systems, 2),
                   TextTable::fmt(static_cast<double>(hopa_ok) / systems, 2),
                   TextTable::fmt(pdm_margin.mean(), 2),
                   TextTable::fmt(hopa_margin.mean(), 2),
                   TextTable::fmt(static_cast<double>(improved) / systems, 2)});
  }
  out << table.to_string();
}

/// Sensitivity of the headline results to the one under-specified
/// workload parameter: the paper gives the period distribution's support
/// ([100, 10000], truncated exponential) but not its rate. Re-runs the
/// Figure 12/13 summary cells for several exponential means and for the
/// uniform distribution the paper explicitly rejected (EXPERIMENTS.md
/// "Substitutions").
void sensitivity_report(std::ostream& out, const SweepOptions& options) {
  out << "== Sensitivity of Figures 12/13 to the period distribution ==\n"
      << options.systems_per_config << " systems per cell; summary cells: "
         "failure rate at (8,90) and (6,80); bound ratio at (5,70) and "
         "(8,60)\n\n";

  TextTable table({"periods", "fail(8,90)", "fail(6,80)", "ratio(5,70)",
                   "ratio(8,60)"});
  ScenarioExecutor executor{options.threads};
  for (const PeriodVariant& variant : sensitivity_variants()) {
    SweepOptions variant_options = options;
    if (variant.mean > 0.0) variant_options.period_mean = variant.mean;
    variant_options.period_distribution = variant.distribution;
    std::vector<ConfigResult> cells;
    for (const Configuration& config : sensitivity_configurations()) {
      cells.push_back(run_configuration(config, variant_options, executor));
    }
    table.add_row({variant.label, TextTable::fmt(cells[0].failure_rate(), 2),
                   TextTable::fmt(cells[1].failure_rate(), 2),
                   ratio_cell(cells[2].bound_ratio),
                   ratio_cell(cells[3].bound_ratio)});
  }
  out << table.to_string()
      << "\nexpected: failures stay concentrated at high (N,U) and the "
         "bound ratios stay >1 and N/U-monotone under every variant.\n";
}

}  // namespace

void run_figure(std::ostream& out, FigureKind figure, const SweepOptions& options) {
  SweepOptions sweep = options;
  sweep.run_simulation = simulation_figure(figure);
  sweep.run_analysis = !sweep.run_simulation;
  switch (figure) {
    case FigureKind::kFig12:
      fig12_failure_rate(out, sweep);
      break;
    case FigureKind::kFig13:
      fig13_bound_ratio(out, sweep);
      break;
    case FigureKind::kFig14:
      eer_ratio_figure(out, sweep, "== Figure 14: PM/DS average EER-time ratio ==",
                       "paper: >1 everywhere; decreases slightly with utilization; "
                       "grows with N; >2 for N>=5; ~3-4 at N=8",
                       &ConfigResult::pm_ds_ratio);
      break;
    case FigureKind::kFig15:
      eer_ratio_figure(out, sweep, "== Figure 15: RG/DS average EER-time ratio ==",
                       "paper: mostly within 1-2 for all cells, rising toward/above "
                       "2 only at 90% utilization (rule 2 fires rarely on busy "
                       "processors)",
                       &ConfigResult::rg_ds_ratio);
      break;
    case FigureKind::kFig16:
      eer_ratio_figure(out, sweep, "== Figure 16: PM/RG average EER-time ratio ==",
                       "paper: consistently >1; reaches ~2-3 for N in {6,7,8}",
                       &ConfigResult::pm_rg_ratio);
      break;
    case FigureKind::kOverhead:
      overhead_report(out, sweep);
      break;
    case FigureKind::kJitter:
      jitter_report(out, sweep);
      break;
    case FigureKind::kAblation:
      ablation_report(out, sweep);
      break;
    case FigureKind::kHopa:
      hopa_report(out, sweep);
      break;
    case FigureKind::kSensitivity:
      sensitivity_report(out, sweep);
      break;
    case FigureKind::kPaperExamples:
      report_example2(out);
      report_example1(out);
      break;
  }
}

}  // namespace e2e
