// Golden parity: `e2e run` with a scenario spec must reproduce the
// legacy montecarlo/sweep/faults subcommands byte for byte, and the
// figure/report specs must reproduce the committed small-size goldens in
// tests/scenario/figure_goldens/, at every thread count (the spec layer
// may not perturb results or formatting).
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "scenario/driver.h"
#include "task/paper_examples.h"
#include "task/serialize.h"
#include "tools/cli.h"

namespace e2e {
namespace {

struct CliResult {
  int exit_code;
  std::string out;
  std::string err;
};

CliResult run_cli(const std::vector<std::string>& args,
                  const std::string& stdin_text = {}) {
  std::istringstream in{stdin_text};
  std::ostringstream out;
  std::ostringstream err;
  const int code = cli::run(args, in, out, err);
  return CliResult{code, out.str(), err.str()};
}

void expect_parity(const std::vector<std::string>& legacy_args,
                   const std::string& legacy_stdin, const std::string& spec) {
  for (const int threads : {1, 2, 8}) {
    const std::string flag = "--threads=" + std::to_string(threads);
    std::vector<std::string> legacy = legacy_args;
    legacy.push_back(flag);
    const CliResult want = run_cli(legacy, legacy_stdin);
    ASSERT_EQ(want.exit_code, 0) << want.err;
    ASSERT_FALSE(want.out.empty());

    const CliResult got = run_cli({"run", "-", flag}, spec);
    ASSERT_EQ(got.exit_code, 0) << got.err;
    EXPECT_EQ(got.out, want.out) << "threads=" << threads;
  }
}

TEST(ScenarioParity, MontecarloMatchesLegacy) {
  const std::string system = to_text(paper::example2());
  const std::string spec =
      "e2esync-scenario v1\n"
      "scenario montecarlo\n"
      "seed 11\n"
      "runs 6\n"
      "horizon-periods 4\n"
      "protocol RG\n"
      "begin system\n" +
      system + "end system\n";
  expect_parity({"montecarlo", "--runs=6", "--horizon-periods=4", "--seed=11"},
                system, spec);
}

TEST(ScenarioParity, MontecarloExplicitProtocolMatchesLegacy) {
  const std::string system = to_text(paper::example2());
  const std::string spec =
      "e2esync-scenario v1\n"
      "scenario montecarlo\n"
      "seed 3\n"
      "runs 4\n"
      "horizon-periods 4\n"
      "exec-var 0.5\n"
      "protocol MPM-R\n"
      "begin system\n" +
      system + "end system\n";
  expect_parity({"montecarlo", "--protocol=MPM-R", "--runs=4",
                 "--horizon-periods=4", "--exec-var=0.5", "--seed=3"},
                system, spec);
}

TEST(ScenarioParity, SweepMatchesLegacy) {
  const std::string spec =
      "e2esync-scenario v1\n"
      "scenario sweep\n"
      "seed 5\n"
      "systems 3\n"
      "horizon-periods 4\n"
      "config 2 40\n";
  expect_parity({"sweep", "--systems=3", "--subtasks=2", "--utilization=40",
                 "--horizon-periods=4", "--seed=5"},
                "", spec);
}

TEST(ScenarioParity, FaultsMatchesLegacy) {
  // The legacy faults subcommand pins horizon-periods to 30, so the spec
  // says so explicitly (shielding the test from E2E_HORIZON_PERIODS).
  const std::string spec =
      "e2esync-scenario v1\n"
      "scenario faults\n"
      "seed 9\n"
      "systems 1\n"
      "horizon-periods 30\n"
      "config 2 40\n";
  expect_parity({"faults", "--systems=1", "--subtasks=2", "--utilization=40",
                 "--seed=9"},
                "", spec);
}

// The goldens are the figure/report outputs at E2E_SYSTEMS_PER_CONFIG=3,
// E2E_SIM_SYSTEMS_PER_CONFIG=4, E2E_HORIZON_PERIODS=5,
// E2E_BREAKDOWN_SYSTEMS=3, 3 systems per HOPA/sensitivity cell and the
// default seed; the specs write those values as keys, so the environment
// cannot change what runs. The HOPA, sensitivity and paper-example
// goldens were captured from the standalone programs that printed those
// reports before they became figure specs.
void expect_golden(const std::string& name, const std::string& keys) {
  std::ifstream file{std::string{E2E_FIGURE_GOLDEN_DIR} + "/" + name + ".txt"};
  ASSERT_TRUE(file) << "missing golden " << name;
  std::ostringstream want;
  want << file.rdbuf();

  const std::string text = "e2esync-scenario v1\n" + keys + "seed 20260706\n";
  for (const int threads : {1, 2, 8}) {
    ScenarioSpec spec = parse_scenario(text, ScenarioDefaults{});
    spec.threads = threads;
    std::istringstream in;
    std::ostringstream got;
    ASSERT_EQ(run_scenario(spec, in, got), 0);
    EXPECT_EQ(got.str(), want.str()) << name << " threads=" << threads;
  }
}

std::string figure_keys(const std::string& figure, int systems) {
  return "scenario figure\nfigure " + figure + "\nsystems " +
         std::to_string(systems) + "\nhorizon-periods 5\n";
}

TEST(ScenarioParity, Fig12MatchesGolden) { expect_golden("fig12", figure_keys("12", 3)); }
TEST(ScenarioParity, Fig13MatchesGolden) { expect_golden("fig13", figure_keys("13", 3)); }
TEST(ScenarioParity, Fig14MatchesGolden) { expect_golden("fig14", figure_keys("14", 4)); }
TEST(ScenarioParity, Fig15MatchesGolden) { expect_golden("fig15", figure_keys("15", 4)); }
TEST(ScenarioParity, Fig16MatchesGolden) { expect_golden("fig16", figure_keys("16", 4)); }
TEST(ScenarioParity, OverheadMatchesGolden) {
  expect_golden("overhead", figure_keys("overhead", 4));
}
TEST(ScenarioParity, JitterMatchesGolden) {
  expect_golden("jitter", figure_keys("jitter", 4));
}
TEST(ScenarioParity, AblationMatchesGolden) {
  // Half the simulation sample, as the ablation's default would pick.
  expect_golden("ablation", figure_keys("ablation", 2));
}
TEST(ScenarioParity, HopaMatchesGolden) {
  expect_golden("hopa", figure_keys("hopa", 3));
}
TEST(ScenarioParity, SensitivityMatchesGolden) {
  expect_golden("sensitivity", figure_keys("sensitivity", 3));
}
TEST(ScenarioParity, PaperExamplesMatchesGolden) {
  expect_golden("paper_examples", figure_keys("paper-examples", 3));
}
TEST(ScenarioParity, BreakdownMatchesGolden) {
  expect_golden("breakdown", "scenario breakdown\nsystems 3\n");
}

}  // namespace
}  // namespace e2e
