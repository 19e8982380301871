// Golden parity: `e2e run` with a scenario spec must reproduce the
// committed goldens in tests/scenario/figure_goldens/ at every thread
// count -- the retired montecarlo/sweep/faults subcommands' output, the
// small-size figure/report outputs and the time-service fault specs (the
// spec layer may not perturb results or formatting) -- and the committed
// soft real-time result, results/FIG_soft_realtime.txt. The bench specs'
// event counts and folded schedule hashes are pinned here too, so a
// results/BENCH_*.json is only a timing record.
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
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

std::string read_file(const std::string& path) {
  std::ifstream file{path};
  EXPECT_TRUE(file) << "missing " << path;
  std::ostringstream text;
  text << file.rdbuf();
  return text.str();
}

std::string read_golden(const std::string& name) {
  return read_file(std::string{E2E_FIGURE_GOLDEN_DIR} + "/" + name);
}

// `e2e run -` with `spec` at threads 1, 2 and 8 must print `recorded`.
void expect_at_thread_counts(const std::string& recorded, const std::string& spec,
                             const std::string& label) {
  ASSERT_FALSE(recorded.empty()) << label;
  for (const int threads : {1, 2, 8}) {
    const CliResult got = run_cli({"run", "-", "--threads=" + std::to_string(threads)},
                                  spec);
    ASSERT_EQ(got.exit_code, 0) << got.err;
    EXPECT_EQ(got.out, recorded) << label << " threads=" << threads;
  }
}

// The legacy goldens are the output of the retired `e2e montecarlo`,
// `e2e sweep` and `e2e faults` subcommands at --threads=1, captured
// before they were removed; `e2e run -` with the equivalent spec must
// keep those bytes.
void expect_legacy_golden(const std::string& golden, const std::string& spec) {
  expect_at_thread_counts(read_golden(golden), spec, golden);
}

TEST(ScenarioParity, MontecarloMatchesLegacyGolden) {
  // Was: e2e montecarlo --runs=6 --horizon-periods=4 --seed=11 < example2
  const std::string spec =
      "e2esync-scenario v1\n"
      "scenario montecarlo\n"
      "seed 11\n"
      "runs 6\n"
      "horizon-periods 4\n"
      "protocol RG\n"
      "begin system\n" +
      to_text(paper::example2()) + "end system\n";
  expect_legacy_golden("legacy_montecarlo_rg.txt", spec);
}

TEST(ScenarioParity, MontecarloExplicitProtocolMatchesLegacyGolden) {
  // Was: e2e montecarlo --protocol=MPM-R --runs=4 --horizon-periods=4
  //      --exec-var=0.5 --seed=3 < example2
  const std::string spec =
      "e2esync-scenario v1\n"
      "scenario montecarlo\n"
      "seed 3\n"
      "runs 4\n"
      "horizon-periods 4\n"
      "exec-var 0.5\n"
      "protocol MPM-R\n"
      "begin system\n" +
      to_text(paper::example2()) + "end system\n";
  expect_legacy_golden("legacy_montecarlo_mpm_r.txt", spec);
}

TEST(ScenarioParity, SweepMatchesLegacyGolden) {
  // Was: e2e sweep --systems=3 --subtasks=2 --utilization=40
  //      --horizon-periods=4 --seed=5
  expect_legacy_golden("legacy_sweep.txt",
                       "e2esync-scenario v1\n"
                       "scenario sweep\n"
                       "seed 5\n"
                       "systems 3\n"
                       "horizon-periods 4\n"
                       "config 2 40\n");
}

TEST(ScenarioParity, FaultsMatchesLegacyGolden) {
  // Was: e2e faults --systems=1 --subtasks=2 --utilization=40 --seed=9,
  // which pinned horizon-periods to 30 (written as a key here, so
  // E2E_HORIZON_PERIODS cannot change what runs).
  expect_legacy_golden("legacy_faults.txt",
                       "e2esync-scenario v1\n"
                       "scenario faults\n"
                       "seed 9\n"
                       "systems 1\n"
                       "horizon-periods 30\n"
                       "config 2 40\n");
}

TEST(ScenarioParity, SoftRealtimeMatchesCommittedResult) {
  expect_at_thread_counts(
      read_file(std::string{E2E_RESULTS_DIR} + "/FIG_soft_realtime.txt"),
      read_file(std::string{E2E_SCENARIO_DIR} + "/soft_realtime.e2es"),
      "FIG_soft_realtime.txt");
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
  const std::string want = read_golden(name + ".txt");
  const std::string text = "e2esync-scenario v1\n" + keys + "seed 20260706\n";
  for (const int threads : {1, 2, 8}) {
    EXPECT_EQ(run_spec_text(text, threads), want)
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
  const std::string want = read_golden(golden);
  const std::string text = reduced_faults_spec(name, report);
  for (const int threads : {1, 3}) {
    EXPECT_EQ(run_spec_text(text, threads), want)
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

// The workloads `e2e run <spec> --perf-json` times for the committed
// results/BENCH_<spec>.json: each spec's events and schedule hashes
// folded in report order (the numbers the JSON records at every thread
// count), with the table report they total.
std::pair<ScenarioTotals, std::string> run_committed_spec(const std::string& name) {
  ScenarioSpec spec = parse_scenario(
      read_file(std::string{E2E_SCENARIO_DIR} + "/" + name + ".e2es"),
      ScenarioDefaults{});
  spec.threads = 1;
  std::istringstream in;
  std::ostringstream out;
  ScenarioTotals totals;
  EXPECT_EQ(run_scenario(spec, in, out, &totals), 0);
  return {totals, out.str()};
}

TEST(ScenarioParity, BenchSpecsKeepTheirCommittedTotals) {
  // montecarlo.e2es prints one schedule hash, RG's; the fold is
  // hash_combine(0, 0xac2524c1f5cef191).
  const auto [montecarlo, report] = run_committed_spec("montecarlo");
  EXPECT_NE(report.find("schedule hash 0xac2524c1f5cef191, events 1995300\n"),
            std::string::npos)
      << report;
  EXPECT_EQ(montecarlo.events, 1'995'300);
  EXPECT_EQ(montecarlo.schedule_hash, 0x4a5c9e7b75196da6u);
  const ScenarioTotals faults = run_committed_spec("fault_ladder").first;
  EXPECT_EQ(faults.events, 7'708'417);
  EXPECT_EQ(faults.schedule_hash, 0xb7d4fa86d981e9e4u);
  const ScenarioTotals timesvc = run_committed_spec("timesvc_ladder").first;
  EXPECT_EQ(timesvc.events, 4'212'781);
  EXPECT_EQ(timesvc.schedule_hash, 0x79e0b8332bf1d9a4u);
}

}  // namespace
}  // namespace e2e
