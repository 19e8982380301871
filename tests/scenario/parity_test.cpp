// Golden parity: `e2e run` with a scenario spec must reproduce the
// legacy montecarlo/sweep/faults subcommands byte for byte, and the
// figure/report specs and the time-service fault specs must reproduce
// the committed small-size goldens in tests/scenario/figure_goldens/, at
// every thread count (the spec layer may not perturb results or
// formatting).
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

std::string run_spec_text(const std::string& text, int threads) {
  ScenarioSpec spec = parse_scenario(text, ScenarioDefaults{});
  spec.threads = threads;
  std::istringstream in;
  std::ostringstream out;
  EXPECT_EQ(run_scenario(spec, in, out), 0);
  return out.str();
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
    EXPECT_EQ(run_spec_text(text, threads), want.str())
        << name << " threads=" << threads;
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

// The faulted goldens: a committed time-service spec with its `systems`
// and `horizon-periods` keys rewritten to 3 and 10 and a `report` key
// appended. The text report carries the per-rung `timesvc:` lines, the
// CSV every cell's precision columns, PM-E's own included.
std::string reduced_faults_spec(const std::string& name, const std::string& report) {
  std::ifstream file{std::string{E2E_SCENARIO_DIR} + "/" + name + ".e2es"};
  EXPECT_TRUE(file) << "missing spec " << name;
  std::string text;
  std::string line;
  while (std::getline(file, line)) {
    if (line.starts_with("systems ")) line = "systems 3";
    if (line.starts_with("horizon-periods ")) line = "horizon-periods 10";
    text += line + "\n";
  }
  return text + "report " + report + "\n";
}

void expect_faults_golden(const std::string& name, const std::string& report,
                          const std::string& golden) {
  std::ifstream file{std::string{E2E_FIGURE_GOLDEN_DIR} + "/" + golden};
  ASSERT_TRUE(file) << "missing golden " << golden;
  std::ostringstream want;
  want << file.rdbuf();
  const std::string text = reduced_faults_spec(name, report);
  for (const int threads : {1, 3}) {
    EXPECT_EQ(run_spec_text(text, threads), want.str())
        << golden << " threads=" << threads;
  }
}

TEST(ScenarioParity, TimesvcLadderMatchesGolden) {
  expect_faults_golden("timesvc_ladder", "table", "timesvc_ladder.txt");
  expect_faults_golden("timesvc_ladder", "csv", "timesvc_ladder.csv");
}
TEST(ScenarioParity, PartitionMatchesGolden) {
  expect_faults_golden("partition", "table", "partition.txt");
  expect_faults_golden("partition", "csv", "partition.csv");
}

std::vector<std::string> timesvc_lines(const std::string& report) {
  std::vector<std::string> lines;
  std::istringstream in{report};
  for (std::string line; std::getline(in, line);) {
    if (line.starts_with("timesvc:")) lines.push_back(line);
  }
  return lines;
}

TEST(ScenarioParity, TimesvcLineIgnoresProtocolOrder) {
  // PM-E queries its time service, which slews that service along its
  // own query times; the rung's `timesvc:` line must not depend on
  // whether PM-E's cell comes first.
  const std::string pm_first = reduced_faults_spec("timesvc_ladder", "table");
  std::string pm_e_first = pm_first;
  const std::string order = "protocol PM\nprotocol PM-E\n";
  const std::size_t at = pm_e_first.find(order);
  ASSERT_NE(at, std::string::npos);
  pm_e_first.replace(at, order.size(), "protocol PM-E\nprotocol PM\n");

  const std::vector<std::string> want = timesvc_lines(run_spec_text(pm_first, 1));
  ASSERT_EQ(want.size(), 5u);
  EXPECT_EQ(timesvc_lines(run_spec_text(pm_e_first, 1)), want);
}

}  // namespace
}  // namespace e2e
