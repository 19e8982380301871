// run_scenario: executes a fully-concrete ScenarioSpec end to end --
// plan expansion, one shared ScenarioExecutor, the experiment driver the
// spec names, and the requested reporter (table/csv/json).
//
// This is the single pipeline behind `e2e run`, both for a report and
// for `--perf-json`, which times the same run over a thread ladder.
// Lives in its own target (e2e_scenario_driver) because it depends on
// e2e_experiments, which itself depends on e2e_scenario.
#pragma once

#include <cstdint>
#include <iosfwd>

#include "scenario/spec.h"

namespace e2e {

/// What a montecarlo, sweep or faults run simulated: the events summed
/// over the report, and the schedule hashes the report prints (one per
/// protocol, per configuration or per fault cell) folded with
/// hash_combine from 0 in report order. Identical at every thread count.
struct ScenarioTotals {
  std::int64_t events = 0;
  std::uint64_t schedule_hash = 0;
};

/// Runs `spec`. `in` feeds `system stdin` montecarlo sources; everything
/// else ignores it. Returns the process exit code (0 on success).
/// Throws InvalidArgument on unrunnable specs / unreadable inputs, and
/// when `totals` is given for a figure or breakdown spec, which prints
/// no schedule hash; otherwise `*totals` receives the run's totals.
int run_scenario(const ScenarioSpec& spec, std::istream& in, std::ostream& out,
                 ScenarioTotals* totals = nullptr);

}  // namespace e2e
