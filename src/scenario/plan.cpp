#include "scenario/plan.h"

#include <sstream>

namespace e2e {
namespace {

/// The per-cell master seed run_configuration derives for a grid cell.
std::uint64_t grid_cell_seed(std::uint64_t seed, const Configuration& config) {
  return seed ^ (static_cast<std::uint64_t>(config.subtasks_per_task) << 32) ^
         static_cast<std::uint64_t>(config.utilization_percent);
}

std::string grid_label(const Configuration& config) {
  return "N=" + std::to_string(config.subtasks_per_task) +
         " U=" + std::to_string(config.utilization_percent) + "%";
}

}  // namespace

std::int64_t ScenarioPlan::total_units() const noexcept {
  std::int64_t total = 0;
  for (const ScenarioCell& cell : cells) total += cell.units;
  return total;
}

std::string ScenarioPlan::describe() const {
  std::ostringstream out;
  out << "scenario " << to_string(kind) << ": " << cells.size()
      << (cells.size() == 1 ? " cell, " : " cells, ") << total_units()
      << " workload units\n";
  for (const ScenarioCell& cell : cells) {
    out << "  " << cell.label << " -- " << cell.units
        << (cell.units == 1 ? " unit" : " units") << ", stream seed "
        << cell.stream_seed << "\n";
  }
  return out.str();
}

ScenarioPlan expand_scenario(const ScenarioSpec& spec) {
  ScenarioPlan plan;
  plan.kind = spec.kind;
  switch (spec.kind) {
    case ScenarioKind::kMonteCarlo:
      for (const ProtocolKind kind : spec.protocols) {
        plan.cells.push_back(
            ScenarioCell{.label = "protocol=" + std::string{to_string(kind)},
                         .units = spec.systems,
                         .stream_seed = spec.seed});
      }
      break;
    case ScenarioKind::kSweep:
      for (const Configuration& config : spec.grid) {
        plan.cells.push_back(ScenarioCell{.label = grid_label(config),
                                          .units = spec.systems,
                                          .stream_seed =
                                              grid_cell_seed(spec.seed, config)});
      }
      break;
    case ScenarioKind::kFaults:
      // One shared system set (forked from spec.seed) feeds every cell;
      // cells differ only in the plan applied and the protocol simulated.
      for (const FaultSeverity& severity : spec.severities) {
        for (const ProtocolKind kind : spec.protocols) {
          plan.cells.push_back(ScenarioCell{
              .label = "severity=" + severity.label +
                       " protocol=" + std::string{to_string(kind)},
              .units = spec.systems,
              .stream_seed = spec.seed});
        }
      }
      break;
    case ScenarioKind::kBreakdown:
      for (int n = 2; n <= 8; ++n) {
        plan.cells.push_back(ScenarioCell{
            .label = "N=" + std::to_string(n),
            .units = spec.systems,
            .stream_seed = spec.seed ^ (static_cast<std::uint64_t>(n) << 40)});
      }
      break;
    case ScenarioKind::kFigure: {
      const auto add_grid = [&](const std::vector<Configuration>& grid,
                                const std::string& prefix) {
        for (const Configuration& config : grid) {
          plan.cells.push_back(
              ScenarioCell{.label = prefix + grid_label(config),
                           .units = spec.systems,
                           .stream_seed = grid_cell_seed(spec.seed, config)});
        }
      };
      switch (spec.figure) {
        case FigureKind::kOverhead:
          // The overhead report measures one generated (N=4, U=70%) system.
          plan.cells.push_back(ScenarioCell{.label = "N=4 U=70% (single system)",
                                            .units = 1,
                                            .stream_seed = spec.seed});
          break;
        case FigureKind::kPaperExamples:
          // Fixed systems: nothing is drawn, so the seed is unused.
          for (const char* example : {"Example 2 (Figure 2)", "Example 1 (Figure 1)"}) {
            plan.cells.push_back(
                ScenarioCell{.label = example, .units = 1, .stream_seed = 0});
          }
          break;
        case FigureKind::kHopa:
          add_grid(hopa_configurations(), "");
          break;
        case FigureKind::kSensitivity:
          // Every variant redraws the same cells' streams under its own
          // period distribution.
          for (const PeriodVariant& variant : sensitivity_variants()) {
            add_grid(sensitivity_configurations(),
                     std::string{"periods="} + variant.label + " ");
          }
          break;
        case FigureKind::kFig12:
        case FigureKind::kFig13:
        case FigureKind::kFig14:
        case FigureKind::kFig15:
        case FigureKind::kFig16:
        case FigureKind::kJitter:
        case FigureKind::kAblation:
          // Each figure sweeps the paper's 35-cell grid (the ablation
          // report re-runs it once per ablation with the same cells).
          add_grid(paper_configurations(), "");
          break;
      }
      break;
    }
  }
  return plan;
}

}  // namespace e2e
