// Regenerates the paper's worked examples: the schedules of Figures 3, 4,
// 5, 6, 7 (as ASCII Gantt charts) and the analysis numbers quoted in the
// text. Used by the paper-examples figure spec
// (examples/scenarios/paper_examples.e2es) and by integration tests.
#pragma once

#include <ostream>

namespace e2e {

/// Example 2 under DS / PM / RG (+ MPM equivalence check) with SA/PM and
/// SA/DS numbers.
void report_example2(std::ostream& out);

/// Example 1 (monitor task) under PM and MPM, with and without
/// interference (Figures 4 and 6).
void report_example1(std::ostream& out);

}  // namespace e2e
