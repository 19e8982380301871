// Monte-Carlo latency estimation as a perf workload: K independent
// simulations of one generated paper-style system under RG, with
// randomized phases and execution-time variation -- the experiment the
// parallel execution layer accelerates most directly, since every run is
// an independent simulation.
//
// The estimate is timed once per thread count (E2E_BENCH_THREADS or
// 1,2,4,8) and written as BENCH_montecarlo.json, or the path
// `--json=path` names; exits nonzero if any thread count produced a
// different schedule hash. Latency tables come from `e2e run` on a
// montecarlo spec. E2E_* overrides: docs/cli_and_formats.md.
#include <iostream>
#include <sstream>

#include "common/args.h"
#include "common/error.h"
#include "experiments/monte_carlo.h"
#include "report/perf_json.h"
#include "scenario/defaults.h"
#include "workload/generator.h"

int main(int argc, char** argv) {
  try {
    const e2e::ScenarioDefaults defaults = e2e::ScenarioDefaults::load();
    const int runs = defaults.bench_mc_runs;
    // E2E_SEED; the bench shares the sweep-context fallback (20260706), not
    // the CLI montecarlo default of 1.
    const std::uint64_t seed = defaults.sweep_seed;
    const int subtasks = defaults.mc_subtasks;
    const int utilization = defaults.mc_utilization;

    e2e::Rng rng{seed};
    e2e::GeneratorOptions gen = e2e::options_for(
        {.subtasks_per_task = subtasks, .utilization_percent = utilization});
    const e2e::TaskSystem system = e2e::generate_system(rng, gen);

    e2e::MonteCarloOptions options;
    options.runs = runs;
    options.seed = seed;
    options.horizon_periods = defaults.mc_horizon_periods;
    options.execution_min_fraction = 0.8;
    options.threads = defaults.threads;

    const e2e::ArgParser args{argc, argv};
    args.expect_known({"json"});
    const std::string path = args.value_string("json", "BENCH_montecarlo.json");
    std::ostringstream workload;
    workload << runs << " runs under RG, N=" << subtasks << ", U=" << utilization
             << "%, horizon " << options.horizon_periods
             << " max-periods, exec-var 0.8";
    return e2e::write_perf_report(
        "montecarlo", workload.str(), path, e2e::bench_thread_counts(),
        [&](int threads) {
          e2e::MonteCarloOptions timed = options;
          timed.threads = threads;
          const e2e::MonteCarloResult result = e2e::estimate_latency(
              system, e2e::ProtocolKind::kReleaseGuard, timed);
          return e2e::PerfRunOutcome{.events = result.events_processed,
                                     .schedule_hash = result.schedule_hash};
        },
        e2e::PerfWriteOptions{}, std::cout);
  } catch (const e2e::InvalidArgument& e) {
    std::cerr << "bench_montecarlo: " << e.what() << "\n";
    return 1;
  }
}
