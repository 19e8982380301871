// Robustness sweep as a perf workload: the default fault ladder (non-ideal
// clocks, lossy sync signals, timer jitter, transient stalls) x every
// protocol, timed once per thread count (E2E_BENCH_THREADS or 1,2,4,8).
// The measurements go to BENCH_faults.json, or the path `--json=path`
// names (see src/report/perf_json.h). Exits nonzero if any thread count
// produced a different schedule hash. The report itself is
// `e2e run examples/scenarios/fault_ladder.e2es`.
// E2E_* overrides: docs/cli_and_formats.md.
#include <iostream>
#include <sstream>

#include "common/args.h"
#include "common/error.h"
#include "common/hash.h"
#include "experiments/faults.h"
#include "report/perf_json.h"
#include "scenario/defaults.h"

int main(int argc, char** argv) {
  try {
    const e2e::ScenarioDefaults defaults = e2e::ScenarioDefaults::load();
    e2e::FaultSweepOptions options;
    options.systems = defaults.fault_systems;
    options.seed = defaults.fault_seed;
    options.horizon_periods = defaults.fault_horizon_periods;
    options.config.subtasks_per_task = defaults.fault_subtasks;
    options.config.utilization_percent = defaults.fault_utilization;
    options.threads = defaults.threads;

    const e2e::ArgParser args{argc, argv};
    args.expect_known({"json"});
    const std::string path = args.value_string("json", "BENCH_faults.json");
    std::ostringstream workload;
    workload << options.systems << " systems, N="
             << options.config.subtasks_per_task
             << ", U=" << options.config.utilization_percent << "%, horizon "
             << options.horizon_periods
             << " max-periods, full severity ladder x all protocols";
    return e2e::write_perf_report(
        "faults", workload.str(), path, e2e::bench_thread_counts(),
        [&](int threads) {
          e2e::FaultSweepOptions timed = options;
          timed.threads = threads;
          const e2e::FaultSweepResult result = e2e::run_fault_sweep(timed);
          e2e::PerfRunOutcome outcome;
          for (const e2e::FaultCell& cell : result.cells) {
            outcome.events += cell.events_processed;
            outcome.schedule_hash =
                e2e::hash_combine(outcome.schedule_hash, cell.schedule_hash);
          }
          return outcome;
        },
        e2e::PerfWriteOptions{}, std::cout);
  } catch (const e2e::InvalidArgument& e) {
    std::cerr << "bench_faults: " << e.what() << "\n";
    return 1;
  }
}
