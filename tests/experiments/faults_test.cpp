// Smoke test for the fault-sweep experiment driver: a miniature sweep
// produces one cell per (severity, protocol) with sane counters, and the
// report renders every severity block.
#include "experiments/faults.h"

#include <gtest/gtest.h>

#include <sstream>

namespace e2e {
namespace {

FaultSweepOptions tiny_options() {
  FaultSweepOptions options;
  options.systems = 1;
  options.horizon_periods = 2.0;
  options.severities = {{"ideal", FaultPlan{}},
                        {"loss", FaultPlan{.signal_loss_prob = 0.3,
                                           .signal_delay_max = 2'000}}};
  options.protocols = {ProtocolKind::kDirectSync,
                       ProtocolKind::kModifiedPmRetransmit};
  return options;
}

TEST(FaultSweep, ProducesOneCellPerSeverityAndProtocol) {
  const FaultSweepResult result = run_fault_sweep(tiny_options());
  ASSERT_EQ(result.cells.size(), 4u);
  for (const FaultCell& cell : result.cells) {
    EXPECT_EQ(cell.systems, 1);
    EXPECT_GT(cell.jobs_released, 0) << cell.severity;
    EXPECT_GT(cell.instances, 0) << cell.severity;
    if (cell.severity == "ideal") {
      EXPECT_EQ(cell.violations, 0);
      EXPECT_EQ(cell.dropped_signals, 0);
      EXPECT_EQ(cell.stalls, 0);
    }
  }
}

TEST(FaultSweep, LossHitsTheChannelCounters) {
  const FaultSweepResult result = run_fault_sweep(tiny_options());
  std::int64_t dropped = 0;
  for (const FaultCell& cell : result.cells) {
    if (cell.severity == "loss") dropped += cell.dropped_signals;
  }
  EXPECT_GT(dropped, 0);
}

TEST(FaultSweep, ReportRendersEverySeverity) {
  std::ostringstream out;
  run_fault_report(out, tiny_options(), run_fault_sweep(tiny_options()));
  const std::string text = out.str();
  EXPECT_NE(text.find("severity: ideal"), std::string::npos);
  EXPECT_NE(text.find("severity: loss"), std::string::npos);
  EXPECT_NE(text.find("MPM-R"), std::string::npos);
  EXPECT_NE(text.find("viol/1k"), std::string::npos);
}

}  // namespace
}  // namespace e2e
