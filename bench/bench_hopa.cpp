// HOPA priority optimization (extension; paper reference [10]): how much
// schedulability the deadline-redistribution heuristic buys over the
// paper's fixed PDM assignment, judged by Algorithm SA/PM.
#include <iostream>

#include "common/error.h"
#include "common/rng.h"
#include "core/analysis/hopa.h"
#include "metrics/stats.h"
#include "report/table.h"
#include "scenario/defaults.h"
#include "workload/generator.h"

int main() {
  using namespace e2e;
  try {
    const ScenarioDefaults defaults = ScenarioDefaults::load();
    const int systems = defaults.hopa_systems;
    const std::uint64_t seed = defaults.analysis_seed;

    std::cout << "== HOPA priority optimization vs PDM (SA/PM schedulability, "
                 "deadline = period) ==\n"
              << systems << " systems per cell; 'sched' = fraction with every "
                 "EER bound within its deadline; 'margin' = mean of max_i "
                 "bound_i/D_i (finite systems)\n\n";

    TextTable table({"N", "U%", "PDM sched", "HOPA sched", "PDM margin",
                     "HOPA margin", "improved"});
    for (const int n : {2, 3, 4, 5, 6, 7, 8}) {
      for (const int u : {60, 70, 80}) {
        Rng master{seed ^ (static_cast<std::uint64_t>(n) << 32) ^
                   static_cast<std::uint64_t>(u)};
        int pdm_ok = 0;
        int hopa_ok = 0;
        int improved = 0;
        RunningStats pdm_margin;
        RunningStats hopa_margin;
        for (int i = 0; i < systems; ++i) {
          Rng rng = master.fork(static_cast<std::uint64_t>(i));
          const TaskSystem sys = generate_system(
              rng, options_for({.subtasks_per_task = n, .utilization_percent = u}));
          const HopaResult r = optimize_priorities_hopa(sys);
          if (r.initial_margin <= 1.0) ++pdm_ok;
          if (r.schedulable()) ++hopa_ok;
          if (r.improved()) ++improved;
          if (r.initial_margin < 1e8) pdm_margin.add(r.initial_margin);
          if (r.margin < 1e8) hopa_margin.add(r.margin);
        }
        table.add_row({std::to_string(n), std::to_string(u),
                       TextTable::fmt(static_cast<double>(pdm_ok) / systems, 2),
                       TextTable::fmt(static_cast<double>(hopa_ok) / systems, 2),
                       TextTable::fmt(pdm_margin.mean(), 2),
                       TextTable::fmt(hopa_margin.mean(), 2),
                       TextTable::fmt(static_cast<double>(improved) / systems, 2)});
      }
    }
    std::cout << table.to_string();
    return 0;
  } catch (const InvalidArgument& e) {
    std::cerr << "bench_hopa: " << e.what() << "\n";
    return 1;
  }
}
