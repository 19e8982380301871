// The `e2e` command-line tool, as a library so tests can drive it
// in-process. Subcommands:
//
//   e2e analyze  [file]                     bounds + verdicts (stdin if no file)
//   e2e simulate [file] --protocol=RG ...   metrics, optional gantt/trace
//   e2e generate --subtasks=N --utilization=U ...   emit a random system
//   e2e run <spec|->                        a scenario spec (docs/scenarios.md)
//   e2e admit [file|-] --processors=N ...   answer an admission request stream
//   e2e example2                            emit the paper's Example 2
//   e2e help                                usage
//
// `run` is the one way to run an experiment (Monte-Carlo, (N, U) sweep,
// fault ladder, figure, breakdown). It takes --threads=<n> (positive;
// default: the spec's `threads` key, then the E2E_THREADS environment
// variable, then hardware concurrency) and produces output that is
// byte-identical at every thread count.
//
// `simulate` options: --protocol=DS|PM|MPM|RG|MPM-R (default RG),
// --horizon=<ticks> (default 30 max-periods), --gantt[=<ticks/col>],
// --trace (CSV event log to stdout), --exec-var=<min fraction>,
// --seed=<n>, --faults=<key=val,...> (non-ideal clocks / lossy signal
// channel / stalls; see sim/fault/fault_plan.h for the keys),
// --precedence=record|abort|defer (what a violating release does;
// abort exits with code 3).
// `generate` options: --subtasks, --utilization (percent), --tasks,
// --processors, --seed, --ticks.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace e2e::cli {

/// Runs one invocation: `args` are argv[1..]; `in` feeds commands that
/// read a system when no file operand is given; results go to `out`,
/// diagnostics to `err`. Returns the process exit code.
int run(const std::vector<std::string>& args, std::istream& in, std::ostream& out,
        std::ostream& err);

}  // namespace e2e::cli
