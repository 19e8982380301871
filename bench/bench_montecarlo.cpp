// Monte-Carlo latency estimation as a perf workload: K independent
// simulations of one generated paper-style system under RG, with
// randomized phases and execution-time variation -- the experiment the
// parallel execution layer accelerates most directly, since every run is
// an independent simulation.
//
// Default mode prints the latency table. `--json[=path]` switches to
// perf mode: the estimate is timed once per thread count
// (E2E_BENCH_THREADS or 1,2,4,8) and written as BENCH_montecarlo.json;
// exits nonzero if any thread count produced a different schedule hash.
// E2E_* overrides: docs/cli_and_formats.md.
#include <iostream>
#include <sstream>

#include "common/args.h"
#include "common/error.h"
#include "experiments/monte_carlo.h"
#include "report/perf_json.h"
#include "report/table.h"
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
    if (args.has("json")) {
      const std::string path = args.value_string("json", "BENCH_montecarlo.json");
      std::ostringstream workload;
      workload << runs << " runs under RG, N=" << subtasks << ", U="
               << utilization << "%, horizon " << options.horizon_periods
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
    }

    const e2e::MonteCarloResult result = e2e::estimate_latency(
        system, e2e::ProtocolKind::kReleaseGuard, options);
    std::cout << "Monte-Carlo latency estimate: " << result.runs
              << " runs, N=" << subtasks << ", U=" << utilization << "%\n\n";
    e2e::TextTable table({"task", "instances", "mean EER", "p(miss)"});
    for (const e2e::Task& t : system.tasks()) {
      const e2e::TaskLatency& latency = result.per_task[t.id.index()];
      table.add_row({t.name, std::to_string(latency.instances),
                     e2e::TextTable::fmt(latency.eer.mean(), 2),
                     e2e::TextTable::fmt(latency.miss_probability(), 4)});
    }
    std::cout << table.to_string();
    return 0;
  } catch (const e2e::InvalidArgument& e) {
    std::cerr << "bench_montecarlo: " << e.what() << "\n";
    return 1;
  }
}
