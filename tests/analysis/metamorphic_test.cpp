// Metamorphic properties of the analyses: uniformly scaling all time
// quantities (periods, phases, deadlines, execution times) by an integer
// factor k must scale every bound by exactly k -- the fixpoint equations
// are homogeneous of degree one. A strong, oracle-free correctness check.
#include <gtest/gtest.h>

#include "core/analysis/sa_ds.h"
#include "core/analysis/sa_pm.h"
#include "task/builder.h"
#include "task/paper_examples.h"
#include "workload/generator.h"

namespace e2e {
namespace {

TaskSystem scale_all_times(const TaskSystem& system, Duration k) {
  TaskSystemBuilder builder{system.processor_count()};
  for (const Task& t : system.tasks()) {
    auto handle = builder.add_task({.period = t.period * k,
                                    .phase = t.phase * k,
                                    .deadline = t.relative_deadline * k,
                                    .release_jitter = t.release_jitter * k,
                                    .name = t.name});
    for (const Subtask& s : t.subtasks) {
      handle.subtask(s.processor, s.execution_time * k, s.priority, s.name);
      if (!s.preemptible) handle.non_preemptible();
    }
  }
  return std::move(builder).build();
}

TaskSystem random_system(std::uint64_t seed, int subtasks, int utilization) {
  Rng rng{seed * 48611};
  GeneratorOptions options = options_for(
      {.subtasks_per_task = subtasks, .utilization_percent = utilization});
  options.processors = 3;
  options.tasks = 5;
  options.ticks_per_unit = 1;  // coarse base so x7 stays exact
  return generate_system(rng, options);
}

struct Params {
  std::uint64_t seed;
  int subtasks;
  int utilization;
};

class Metamorphic : public ::testing::TestWithParam<Params> {};

TEST_P(Metamorphic, SaPmBoundsScaleLinearly) {
  const Params& p = GetParam();
  const TaskSystem base = random_system(p.seed, p.subtasks, p.utilization);
  const TaskSystem scaled = scale_all_times(base, 7);
  const AnalysisResult rb = analyze_sa_pm(base);
  const AnalysisResult rs = analyze_sa_pm(scaled);
  for (const Task& t : base.tasks()) {
    const Duration b = rb.eer_bound(t.id);
    const Duration s = rs.eer_bound(t.id);
    if (is_infinite(b)) {
      EXPECT_TRUE(is_infinite(s)) << t.name;
    } else {
      EXPECT_EQ(s, b * 7) << t.name;
    }
    for (const Subtask& sub : t.subtasks) {
      const Duration sb = rb.subtask_bounds.at(sub.ref);
      const Duration ss = rs.subtask_bounds.at(sub.ref);
      if (!is_infinite(sb)) {
        EXPECT_EQ(ss, sb * 7) << sub.name;
      }
    }
  }
}

TEST_P(Metamorphic, SaDsBoundsScaleLinearly) {
  const Params& p = GetParam();
  const TaskSystem base = random_system(p.seed, p.subtasks, p.utilization);
  const TaskSystem scaled = scale_all_times(base, 7);
  const SaDsResult rb = analyze_sa_ds(base);
  const SaDsResult rs = analyze_sa_ds(scaled);
  ASSERT_EQ(rb.converged, rs.converged);
  for (const Task& t : base.tasks()) {
    const Duration b = rb.analysis.eer_bound(t.id);
    const Duration s = rs.analysis.eer_bound(t.id);
    if (is_infinite(b)) {
      EXPECT_TRUE(is_infinite(s)) << t.name;
    } else {
      EXPECT_EQ(s, b * 7) << t.name;
    }
  }
}

TEST_P(Metamorphic, SchedulabilityVerdictIsScaleInvariant) {
  const Params& p = GetParam();
  const TaskSystem base = random_system(p.seed, p.subtasks, p.utilization);
  const TaskSystem scaled = scale_all_times(base, 13);
  EXPECT_EQ(analyze_sa_pm(base).system_schedulable(),
            analyze_sa_pm(scaled).system_schedulable());
  EXPECT_EQ(analyze_sa_ds(base).analysis.system_schedulable(),
            analyze_sa_ds(scaled).analysis.system_schedulable());
}

INSTANTIATE_TEST_SUITE_P(
    Grid, Metamorphic,
    ::testing::Values(Params{1, 2, 60}, Params{2, 3, 70}, Params{3, 4, 80},
                      Params{4, 5, 90}, Params{5, 6, 50}, Params{6, 8, 90},
                      Params{7, 3, 90}, Params{8, 4, 60}),
    [](const ::testing::TestParamInfo<Params>& param_info) {
      return "seed" + std::to_string(param_info.param.seed) + "_N" +
             std::to_string(param_info.param.subtasks) + "_U" +
             std::to_string(param_info.param.utilization);
    });

TEST(Metamorphic, Example2TimesSeven) {
  const TaskSystem scaled = scale_all_times(paper::example2(), 7);
  const AnalysisResult pm = analyze_sa_pm(scaled);
  EXPECT_EQ(pm.subtask_bounds.at(SubtaskRef{TaskId{1}, 0}), 4 * 7);
  EXPECT_EQ(pm.eer_bound(TaskId{2}), 5 * 7);
  const SaDsResult ds = analyze_sa_ds(scaled);
  EXPECT_EQ(ds.analysis.eer_bound(TaskId{2}), 8 * 7);
}

}  // namespace
}  // namespace e2e
