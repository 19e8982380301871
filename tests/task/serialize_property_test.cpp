// Property: serialization round-trips arbitrary generated systems, and
// the round-tripped copy is indistinguishable to the analyses and to the
// simulator.
#include <gtest/gtest.h>

#include "core/analysis/sa_ds.h"
#include "core/analysis/sa_pm.h"
#include "core/protocols/direct_sync.h"
#include "sim/engine.h"
#include "task/serialize.h"
#include "workload/generator.h"

namespace e2e {
namespace {

class SerializeProperty : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  TaskSystem make_system() const {
    Rng rng{GetParam() * 7677751};
    GeneratorOptions options =
        options_for({.subtasks_per_task = static_cast<int>(GetParam() % 7) + 2,
                     .utilization_percent = 50 + 10 * static_cast<int>(GetParam() % 5)});
    options.processors = 3;
    options.tasks = 6;
    options.ticks_per_unit = 10;
    options.non_preemptible_fraction = GetParam() % 2 == 0 ? 0.0 : 0.3;
    options.release_jitter_fraction = GetParam() % 3 == 0 ? 0.05 : 0.0;
    return generate_system(rng, options);
  }
};

TEST_P(SerializeProperty, RoundTripPreservesAnalysisResults) {
  const TaskSystem original = make_system();
  const TaskSystem copy = from_text(to_text(original));
  const AnalysisResult pm_a = analyze_sa_pm(original);
  const AnalysisResult pm_b = analyze_sa_pm(copy);
  const SaDsResult ds_a = analyze_sa_ds(original);
  const SaDsResult ds_b = analyze_sa_ds(copy);
  for (const Task& t : original.tasks()) {
    EXPECT_EQ(pm_a.eer_bound(t.id), pm_b.eer_bound(t.id)) << t.name;
    EXPECT_EQ(ds_a.analysis.eer_bound(t.id), ds_b.analysis.eer_bound(t.id)) << t.name;
  }
}

TEST_P(SerializeProperty, RoundTripPreservesTheSchedule) {
  const TaskSystem original = make_system();
  const TaskSystem copy = from_text(to_text(original));
  const Time horizon = 10 * original.max_period();

  const auto schedule_of = [&](const TaskSystem& sys) {
    DirectSyncProtocol ds;
    Engine engine{sys, ds, {.horizon = horizon}};
    engine.run();
    return engine.schedule_hash();
  };
  EXPECT_EQ(schedule_of(original), schedule_of(copy));
}

TEST_P(SerializeProperty, DoubleRoundTripIsStable) {
  const TaskSystem original = make_system();
  const std::string once = to_text(original);
  const std::string twice = to_text(from_text(once));
  EXPECT_EQ(once, twice);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SerializeProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

}  // namespace
}  // namespace e2e
