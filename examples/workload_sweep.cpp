// Runs a miniature version of the paper's Section 5 study and exports the
// full grid as CSV (one row per configuration cell) for replotting the
// surface figures with any plotting tool:
//
//   $ ./build/examples/workload_sweep > sweep.csv
//
// Columns: N, U, failure_rate, bound_ratio, pm_ds, rg_ds, pm_rg and the
// 90% CI half-widths of the ratio columns.
#include <iostream>

#include "common/error.h"
#include "experiments/sweep.h"
#include "report/csv.h"
#include "report/table.h"
#include "scenario/defaults.h"

int main() {
  using namespace e2e;
  try {
    SweepOptions options;
    options.systems_per_config =
        static_cast<int>(env_int("E2E_SYSTEMS_PER_CONFIG", 10));  // example-sized
    options.run_analysis = true;
    options.run_simulation = true;

    CsvWriter csv{std::cout};
    csv.write_row({"subtasks", "utilization_percent", "ds_failure_rate",
                   "bound_ratio_ds_over_pm", "pm_ds_eer_ratio", "rg_ds_eer_ratio",
                   "pm_rg_eer_ratio", "bound_ratio_ci90", "pm_ds_ci90", "rg_ds_ci90",
                   "pm_rg_ci90"});
    for (const Configuration& config : paper_configurations()) {
      const ConfigResult r = run_configuration(config, options);
      csv.write_row({std::to_string(r.config.subtasks_per_task),
                     std::to_string(r.config.utilization_percent),
                     TextTable::fmt(r.failure_rate(), 4),
                     TextTable::fmt(r.bound_ratio.mean(), 4),
                     TextTable::fmt(r.pm_ds_ratio.mean(), 4),
                     TextTable::fmt(r.rg_ds_ratio.mean(), 4),
                     TextTable::fmt(r.pm_rg_ratio.mean(), 4),
                     TextTable::fmt(r.bound_ratio.ci_half_width(), 4),
                     TextTable::fmt(r.pm_ds_ratio.ci_half_width(), 4),
                     TextTable::fmt(r.rg_ds_ratio.ci_half_width(), 4),
                     TextTable::fmt(r.pm_rg_ratio.ci_half_width(), 4)});
    }
    return 0;
  } catch (const InvalidArgument& e) {
    std::cerr << "workload_sweep: " << e.what() << "\n";
    return 1;
  }
}
