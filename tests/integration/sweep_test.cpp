// Tests for the experiment harness itself (tiny sample sizes).
#include <gtest/gtest.h>

#include <sstream>

#include "experiments/figures.h"
#include "experiments/sweep.h"

namespace e2e {
namespace {

SweepOptions tiny_options() {
  SweepOptions o;
  o.systems_per_config = 3;
  o.seed = 7;
  o.horizon_periods = 10.0;
  o.threads = 2;
  return o;
}

TEST(Sweep, AnalysisOnlyPopulatesAnalysisFields) {
  SweepOptions o = tiny_options();
  o.run_simulation = false;
  const ConfigResult r =
      run_configuration({.subtasks_per_task = 3, .utilization_percent = 60}, o);
  EXPECT_EQ(r.systems, 3);
  EXPECT_GE(r.ds_failures, 0);
  EXPECT_LE(r.ds_failures, 3);
  // Low-load cell: expect at least some finite ratios, all >= 1.
  EXPECT_GT(r.bound_ratio.count(), 0);
  EXPECT_GE(r.bound_ratio.min(), 1.0);
  // No simulation ran.
  EXPECT_EQ(r.pm_ds_ratio.count(), 0);
}

TEST(Sweep, SimulationPopulatesRatioFields) {
  SweepOptions o = tiny_options();
  o.run_analysis = false;
  const ConfigResult r =
      run_configuration({.subtasks_per_task = 3, .utilization_percent = 60}, o);
  EXPECT_GT(r.pm_ds_ratio.count(), 0);
  EXPECT_GT(r.rg_ds_ratio.count(), 0);
  EXPECT_GT(r.pm_rg_ratio.count(), 0);
  // PM should not beat DS on average EER (Figure 14's headline).
  EXPECT_GE(r.pm_ds_ratio.mean(), 1.0);
}

TEST(Sweep, DeterministicAcrossRunsAndThreadCounts) {
  SweepOptions a = tiny_options();
  SweepOptions b = tiny_options();
  b.threads = 1;
  const Configuration config{.subtasks_per_task = 4, .utilization_percent = 70};
  const ConfigResult ra = run_configuration(config, a);
  const ConfigResult rb = run_configuration(config, b);
  EXPECT_EQ(ra.ds_failures, rb.ds_failures);
  EXPECT_EQ(ra.bound_ratio.count(), rb.bound_ratio.count());
  EXPECT_DOUBLE_EQ(ra.bound_ratio.mean(), rb.bound_ratio.mean());
  EXPECT_DOUBLE_EQ(ra.pm_ds_ratio.mean(), rb.pm_ds_ratio.mean());
}

TEST(Sweep, SeedChangesResults) {
  SweepOptions a = tiny_options();
  SweepOptions b = tiny_options();
  b.seed = 8;
  const Configuration config{.subtasks_per_task = 4, .utilization_percent = 70};
  const ConfigResult ra = run_configuration(config, a);
  const ConfigResult rb = run_configuration(config, b);
  // Different workloads almost surely give different means.
  EXPECT_NE(ra.pm_ds_ratio.mean(), rb.pm_ds_ratio.mean());
}

TEST(Sweep, HighLoadCellShowsMoreFailuresThanLowLoad) {
  SweepOptions o = tiny_options();
  o.run_simulation = false;
  o.systems_per_config = 12;
  const ConfigResult low =
      run_configuration({.subtasks_per_task = 2, .utilization_percent = 50}, o);
  const ConfigResult high =
      run_configuration({.subtasks_per_task = 8, .utilization_percent = 90}, o);
  // The Figure 12 shape: failures concentrate at (8, 90).
  EXPECT_LE(low.failure_rate(), high.failure_rate());
  EXPECT_GT(high.failure_rate(), 0.5);
  EXPECT_LT(low.failure_rate(), 0.2);
}

TEST(Figures, Fig12PrintsGrid) {
  std::ostringstream out;
  run_figure(out, FigureKind::kFig12, tiny_options());
  const std::string text = out.str();
  EXPECT_NE(text.find("Figure 12"), std::string::npos);
  EXPECT_NE(text.find("90%"), std::string::npos);
  // Seven N rows (2..8).
  for (int n = 2; n <= 8; ++n) {
    EXPECT_NE(text.find('\n' + std::to_string(n) + ' '), std::string::npos)
        << "missing row for N=" << n;
  }
}

TEST(Figures, RatioFigurePrints) {
  std::ostringstream out;
  run_figure(out, FigureKind::kFig15, tiny_options());
  EXPECT_NE(out.str().find("Figure 15"), std::string::npos);
}

TEST(Figures, OverheadReportPrints) {
  std::ostringstream out;
  run_figure(out, FigureKind::kOverhead, tiny_options());
  const std::string text = out.str();
  EXPECT_NE(text.find("DS"), std::string::npos);
  EXPECT_NE(text.find("MPM"), std::string::npos);
  EXPECT_NE(text.find("global clock"), std::string::npos);
}

TEST(Figures, JitterReportPrintsThreeGrids) {
  std::ostringstream out;
  run_figure(out, FigureKind::kJitter, tiny_options());
  const std::string text = out.str();
  EXPECT_NE(text.find("DS mean normalized jitter"), std::string::npos);
  EXPECT_NE(text.find("PM mean normalized jitter"), std::string::npos);
  EXPECT_NE(text.find("RG mean normalized jitter"), std::string::npos);
}

TEST(Sweep, PeriodDistributionKnobChangesWorkloads) {
  SweepOptions exp_options = tiny_options();
  exp_options.run_simulation = false;
  exp_options.systems_per_config = 8;
  SweepOptions uni_options = exp_options;
  uni_options.period_distribution = GeneratorOptions::PeriodDistribution::kUniform;
  const Configuration config{.subtasks_per_task = 5, .utilization_percent = 80};
  const ConfigResult exp_result = run_configuration(config, exp_options);
  const ConfigResult uni_result = run_configuration(config, uni_options);
  // Different workload populations: the aggregate ratio almost surely
  // differs (both remain sane, >= 1).
  EXPECT_NE(exp_result.bound_ratio.mean(), uni_result.bound_ratio.mean());
  EXPECT_GE(uni_result.bound_ratio.min(), 1.0);
}

TEST(Sweep, PessimismStatsPopulatedWhenBothRun) {
  SweepOptions o = tiny_options();
  o.run_analysis = true;
  o.run_simulation = true;
  const ConfigResult r =
      run_configuration({.subtasks_per_task = 3, .utilization_percent = 60}, o);
  EXPECT_GT(r.rg_bound_pessimism.count(), 0);
  // Bounds are upper bounds: pessimism ratios are >= 1.
  EXPECT_GE(r.rg_bound_pessimism.min(), 1.0);
  if (r.ds_bound_pessimism.count() > 0) {
    EXPECT_GE(r.ds_bound_pessimism.min(), 1.0);
  }
}

}  // namespace
}  // namespace e2e
