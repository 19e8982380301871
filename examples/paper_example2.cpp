// Walks through the paper's Example 2 end to end: prints the Figures 3, 5
// and 7 schedules and the analysis numbers from Sections 3-4. (This is the
// first half of `e2e run examples/scenarios/paper_examples.e2es`; as an
// example it shows how to drive the report API directly.)
#include <iostream>

#include "experiments/paper_example_report.h"

int main() {
  e2e::report_example2(std::cout);
  return 0;
}
