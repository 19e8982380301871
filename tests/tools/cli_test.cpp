// End-to-end tests of the `e2e` CLI, driven in-process through cli::run.
#include "tools/cli.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "report/perf_json.h"
#include "task/paper_examples.h"
#include "task/serialize.h"

namespace e2e {
namespace {

struct CliResult {
  int exit_code;
  std::string out;
  std::string err;
};

CliResult run_cli(const std::vector<std::string>& args, const std::string& stdin_text = {}) {
  std::istringstream in{stdin_text};
  std::ostringstream out;
  std::ostringstream err;
  const int code = cli::run(args, in, out, err);
  return CliResult{code, out.str(), err.str()};
}

TEST(Cli, HelpPrintsUsage) {
  const CliResult r = run_cli({"help"});
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.out.find("usage: e2e"), std::string::npos);
  EXPECT_NE(r.out.find("analyze"), std::string::npos);
}

TEST(Cli, NoCommandIsAnError) {
  const CliResult r = run_cli({});
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.out.find("usage"), std::string::npos);
}

TEST(Cli, UnknownCommandIsAnError) {
  const CliResult r = run_cli({"frobnicate"});
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.err.find("unknown command"), std::string::npos);
}

TEST(Cli, Example2EmitsParsableSystem) {
  const CliResult r = run_cli({"example2"});
  EXPECT_EQ(r.exit_code, 0);
  const TaskSystem sys = from_text(r.out);  // round-trips
  EXPECT_EQ(sys.task_count(), 3u);
}

TEST(Cli, AnalyzeExample2FromStdin) {
  const CliResult r = run_cli({"analyze"}, to_text(paper::example2()));
  // Example 2 is not fully schedulable (T2's bound 7 > 6): exit code 1.
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.out.find("bound PM/MPM/RG"), std::string::npos);
  EXPECT_NE(r.out.find("T3"), std::string::npos);
  EXPECT_NE(r.out.find("NO"), std::string::npos);
}

TEST(Cli, AnalyzeRejectsGarbage) {
  const CliResult r = run_cli({"analyze"}, "not a system\n");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.err.find("header"), std::string::npos);
}

TEST(Cli, AnalyzeRejectsMissingFile) {
  const CliResult r = run_cli({"analyze", "/nonexistent/system.txt"});
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.err.find("cannot open"), std::string::npos);
}

TEST(Cli, SimulateDefaultsToRg) {
  const CliResult r = run_cli({"simulate"}, to_text(paper::example2()));
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.out.find("protocol RG"), std::string::npos);
  EXPECT_NE(r.out.find("avg EER"), std::string::npos);
}

TEST(Cli, SimulateRejectsUnknownProtocol) {
  const CliResult r =
      run_cli({"simulate", "--protocol=EDF"}, to_text(paper::example2()));
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.err.find("unknown protocol"), std::string::npos);
}

TEST(Cli, SimulateAcceptsMpmRetransmit) {
  const CliResult r = run_cli({"simulate", "--protocol=MPM-R", "--horizon=60"},
                              to_text(paper::example2()));
  EXPECT_EQ(r.exit_code, 0) << r.err;
  EXPECT_NE(r.out.find("protocol MPM-R"), std::string::npos);
}

TEST(Cli, UnknownProtocolErrorListsExtendedSet) {
  const CliResult r =
      run_cli({"simulate", "--protocol=EDF"}, to_text(paper::example2()));
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.err.find("MPM-R"), std::string::npos);
}

TEST(Cli, SimulateWithFaultsPrintsFaultStats) {
  const CliResult r = run_cli({"simulate", "--protocol=DS", "--horizon=600",
                               "--faults=loss-prob=0.5,seed=3"},
                              to_text(paper::example2()));
  EXPECT_EQ(r.exit_code, 0) << r.err;
  EXPECT_NE(r.out.find("faults:"), std::string::npos);
  EXPECT_NE(r.out.find("dropped"), std::string::npos);
}

TEST(Cli, FaultsWithoutValueIsAnError) {
  const CliResult r =
      run_cli({"simulate", "--faults"}, to_text(paper::example2()));
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.err.find("--faults expects key=value"), std::string::npos);
}

TEST(Cli, FaultsUnknownKeyListsKnownKeys) {
  const CliResult r = run_cli({"simulate", "--faults=losss-prob=0.5"},
                              to_text(paper::example2()));
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.err.find("unknown fault key 'losss-prob'"), std::string::npos);
  EXPECT_NE(r.err.find("loss-prob"), std::string::npos);  // suggests valid keys
}

TEST(Cli, FaultsOutOfRangeProbabilityIsAnError) {
  const CliResult r = run_cli({"simulate", "--faults=loss-prob=1.5"},
                              to_text(paper::example2()));
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.err.find("loss-prob"), std::string::npos);
  EXPECT_NE(r.err.find("probability"), std::string::npos);
}

TEST(Cli, UnknownPrecedencePolicyIsAnError) {
  const CliResult r = run_cli({"simulate", "--precedence=panic"},
                              to_text(paper::example2()));
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.err.find("unknown precedence policy"), std::string::npos);
  EXPECT_NE(r.err.find("record, abort, defer"), std::string::npos);
}

TEST(Cli, AbortPolicyExitsWithCodeThree) {
  // Example 2 under PM with a skewed clock: the violation aborts the run.
  const CliResult r = run_cli({"simulate", "--protocol=PM", "--horizon=600",
                               "--faults=offset=3,seed=4", "--precedence=abort"},
                              to_text(paper::example2()));
  EXPECT_EQ(r.exit_code, 3);
  EXPECT_NE(r.err.find("aborted: precedence violation"), std::string::npos);
}

TEST(Cli, SimulateRejectsTypoedOption) {
  const CliResult r =
      run_cli({"simulate", "--horizn=10"}, to_text(paper::example2()));
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.err.find("unknown option"), std::string::npos);
}

TEST(Cli, SimulateWithGantt) {
  const CliResult r = run_cli({"simulate", "--protocol=DS", "--horizon=24", "--gantt"},
                              to_text(paper::example2()));
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.out.find("P1:"), std::string::npos);
  EXPECT_NE(r.out.find('#'), std::string::npos);
}

TEST(Cli, SimulateTraceEmitsCsv) {
  const CliResult r = run_cli({"simulate", "--trace", "--horizon=12"},
                              to_text(paper::example2()));
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.out.find("event,time,task,subtask,instance,processor"),
            std::string::npos);
  EXPECT_NE(r.out.find("release,0,"), std::string::npos);
}

TEST(Cli, GenerateEmitsValidSystem) {
  const CliResult r = run_cli(
      {"generate", "--subtasks=3", "--utilization=50", "--tasks=6", "--seed=9"});
  ASSERT_EQ(r.exit_code, 0) << r.err;
  const TaskSystem sys = from_text(r.out);
  EXPECT_EQ(sys.task_count(), 6u);
  EXPECT_EQ(sys.task(TaskId{0}).chain_length(), 3u);
}

TEST(Cli, GeneratePipesIntoAnalyze) {
  const CliResult generated = run_cli(
      {"generate", "--subtasks=2", "--utilization=40", "--tasks=4", "--seed=3"});
  ASSERT_EQ(generated.exit_code, 0);
  const CliResult analyzed = run_cli({"analyze"}, generated.out);
  EXPECT_NE(analyzed.out.find("bound PM/MPM/RG"), std::string::npos);
}

const std::string kMontecarloSpec =
    "e2esync-scenario v1\n"
    "scenario montecarlo\n"
    "runs 2\n"
    "horizon-periods 4\n"
    "system example2\n";

TEST(Cli, ThreadsZeroIsAnError) {
  const CliResult r = run_cli({"run", "-", "--threads=0"}, kMontecarloSpec);
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.err.find("--threads must be a positive integer"),
            std::string::npos);
}

TEST(Cli, ThreadsNonNumericIsAnError) {
  const CliResult r = run_cli({"run", "-", "--threads=abc"}, kMontecarloSpec);
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.err.find("--threads"), std::string::npos);
}

TEST(Cli, RunRejectsNegativeThreads) {
  const CliResult r = run_cli({"run", "-", "--threads=-2"},
                              "e2esync-scenario v1\nscenario faults\nconfig 2 40\n");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.err.find("--threads must be a positive integer"),
            std::string::npos);
}

TEST(Cli, RunRejectsOutOfRangeThreads) {
  // Narrowed to int, 2^32 + 1 would run on one thread.
  const CliResult r = run_cli({"run", "-", "--threads=4294967297"}, kMontecarloSpec);
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_TRUE(r.out.empty());
  EXPECT_NE(r.err.find("--threads is out of range"), std::string::npos) << r.err;
}

TEST(Cli, RunMontecarloPrintsScheduleHashAndTable) {
  const CliResult r = run_cli({"run", "-", "--threads=1"},
                              "e2esync-scenario v1\n"
                              "scenario montecarlo\n"
                              "runs 3\n"
                              "horizon-periods 4\n"
                              "system example2\n");
  ASSERT_EQ(r.exit_code, 0) << r.err;
  EXPECT_NE(r.out.find("schedule hash 0x"), std::string::npos);
  EXPECT_NE(r.out.find("mean EER"), std::string::npos);
  EXPECT_NE(r.out.find("T1"), std::string::npos);
}

TEST(Cli, RunMontecarloIsDeterministicAcrossThreadCounts) {
  const std::string spec =
      "e2esync-scenario v1\n"
      "scenario montecarlo\n"
      "seed 11\n"
      "runs 6\n"
      "horizon-periods 4\n"
      "system example2\n";
  const CliResult serial = run_cli({"run", "-", "--threads=1"}, spec);
  ASSERT_EQ(serial.exit_code, 0) << serial.err;
  EXPECT_NE(serial.out.find("schedule hash 0x"), std::string::npos);
  for (const char* threads : {"--threads=2", "--threads=8"}) {
    const CliResult parallel = run_cli({"run", "-", threads}, spec);
    ASSERT_EQ(parallel.exit_code, 0) << parallel.err;
    EXPECT_EQ(parallel.out, serial.out);
  }
}

TEST(Cli, RunSweepIsDeterministicAcrossThreadCounts) {
  const std::string spec =
      "e2esync-scenario v1\n"
      "scenario sweep\n"
      "seed 5\n"
      "systems 3\n"
      "horizon-periods 4\n"
      "config 2 40\n";
  const CliResult serial = run_cli({"run", "-", "--threads=1"}, spec);
  ASSERT_EQ(serial.exit_code, 0) << serial.err;
  EXPECT_NE(serial.out.find("schedule hash 0x"), std::string::npos);

  const CliResult parallel = run_cli({"run", "-", "--threads=8"}, spec);
  ASSERT_EQ(parallel.exit_code, 0) << parallel.err;
  EXPECT_EQ(parallel.out, serial.out);
}

// Every subcommand -- including the flagless example2/help -- rejects
// unknown options with the same diagnostic and exit code.
TEST(Cli, HelpRejectsUnknownOption) {
  const CliResult r = run_cli({"help", "--bogus"});
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.err.find("unknown option --bogus"), std::string::npos);
}

TEST(Cli, Example2RejectsUnknownOption) {
  const CliResult r = run_cli({"example2", "--bogus"});
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.err.find("unknown option --bogus"), std::string::npos);
}

TEST(Cli, RunRejectsUnknownOption) {
  const CliResult r = run_cli({"run", "-", "--bogus"});
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.err.find("unknown option --bogus"), std::string::npos);
}

TEST(Cli, RunWithoutSpecIsAnError) {
  const CliResult r = run_cli({"run"});
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.err.find("run expects a scenario spec"), std::string::npos);
}

TEST(Cli, RunRejectsMissingFile) {
  const CliResult r = run_cli({"run", "/nonexistent/spec.e2es"});
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.err.find("cannot open"), std::string::npos);
}

TEST(Cli, RunRejectsMalformedSpec) {
  const CliResult r = run_cli({"run", "-"}, "not a scenario\n");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.err.find("header"), std::string::npos);
}

TEST(Cli, RunRejectsMalformedSeverityLikeSimulateFaults) {
  // The spec's severity value speaks the same --faults=key=value,...
  // language, with the same diagnostics (plus a line number).
  const CliResult r = run_cli(
      {"run", "-"},
      "e2esync-scenario v1\nscenario faults\nseverity bad losss-prob=0.5\n");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.err.find("unknown fault key 'losss-prob'"), std::string::npos);
  EXPECT_NE(r.err.find("line 3"), std::string::npos);
}

TEST(Cli, RunPlanPrintsCellsWithoutRunning) {
  const CliResult r = run_cli({"run", "-", "--plan"},
                              "e2esync-scenario v1\n"
                              "scenario sweep\n"
                              "systems 3\n"
                              "config 2 40\n"
                              "config 4 60\n");
  ASSERT_EQ(r.exit_code, 0) << r.err;
  EXPECT_NE(r.out.find("scenario sweep"), std::string::npos);
  EXPECT_NE(r.out.find("2 cells"), std::string::npos);
  EXPECT_EQ(r.out.find("schedule hash"), std::string::npos);  // nothing ran
}

// `run <spec> --perf-json=PATH` on the 1,2 thread ladder with `in` as
// stdin: returns the JSON it wrote (empty when it wrote none) and removes
// the file.
std::string run_timed(const std::string& spec_path, std::istream& in,
                      CliResult& result) {
  const std::string json_path = ::testing::TempDir() + "cli_test_perf.json";
  std::remove(json_path.c_str());
  ::setenv("E2E_BENCH_THREADS", "1,2", 1);
  std::ostringstream out;
  std::ostringstream err;
  const int code =
      cli::run({"run", spec_path, "--perf-json=" + json_path}, in, out, err);
  result = CliResult{code, out.str(), err.str()};
  ::unsetenv("E2E_BENCH_THREADS");
  std::ifstream file{json_path};
  std::ostringstream json;
  json << file.rdbuf();
  std::remove(json_path.c_str());
  return json.str();
}

std::string run_timed(const std::string& spec_path, const std::string& stdin_text,
                      CliResult& result) {
  std::istringstream in{stdin_text};
  return run_timed(spec_path, in, result);
}

TEST(Cli, RunPerfJsonTimesAMontecarloSpec) {
  CliResult r;
  const std::string json = run_timed(
      E2E_REPO_DIR "/examples/scenarios/montecarlo_example2.e2es", "", r);
  ASSERT_EQ(r.exit_code, 0) << r.err << r.out;
  EXPECT_NO_THROW(validate_perf_json(json)) << json;
  // bench is the spec's file name, workload the plan's headline.
  EXPECT_NE(json.find("\"bench\": \"montecarlo_example2\""), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"workload\": \"scenario montecarlo: 2 cells, 100 "
                      "workload units\""),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"deterministic\": true"), std::string::npos) << json;
  EXPECT_NE(r.out.find("montecarlo_example2: threads=2 "), std::string::npos) << r.out;
  EXPECT_EQ(r.out.find("mean EER"), std::string::npos) << "reports are discarded";
}

TEST(Cli, RunPerfJsonReadsStdinOnlyForASystemStdinSpec) {
  // A spec with its own system leaves stdin unread: a terminal's stdin
  // never reaches end of file.
  std::istringstream unread{"not a system"};
  CliResult r;
  (void)run_timed(E2E_REPO_DIR "/examples/scenarios/montecarlo_example2.e2es",
                  unread, r);
  ASSERT_EQ(r.exit_code, 0) << r.err << r.out;
  EXPECT_EQ(unread.tellg(), 0);

  // A `system stdin` spec times every run on the same input.
  const std::string spec_path = ::testing::TempDir() + "cli_test_stdin.e2es";
  {
    std::ofstream spec{spec_path};
    spec << "e2esync-scenario v1\nscenario montecarlo\nruns 2\n"
            "horizon-periods 4\nsystem stdin\n";
  }
  const std::string json = run_timed(spec_path, to_text(paper::example2()), r);
  std::remove(spec_path.c_str());
  ASSERT_EQ(r.exit_code, 0) << r.err << r.out;
  EXPECT_NE(json.find("\"deterministic\": true"), std::string::npos) << json;
}

TEST(Cli, RunPerfJsonTimesASweepSpecFromStdin) {
  CliResult r;
  const std::string json = run_timed("-",
                                     "e2esync-scenario v1\n"
                                     "scenario sweep\n"
                                     "seed 5\n"
                                     "systems 3\n"
                                     "horizon-periods 4\n"
                                     "config 2 40\n",
                                     r);
  ASSERT_EQ(r.exit_code, 0) << r.err << r.out;
  EXPECT_NO_THROW(validate_perf_json(json)) << json;
  EXPECT_NE(json.find("\"bench\": \"stdin\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"deterministic\": true"), std::string::npos) << json;
}

TEST(Cli, RunPerfJsonRejectsAFigureSpecByKind) {
  CliResult r;
  const std::string json = run_timed("-",
                                     "e2esync-scenario v1\n"
                                     "scenario figure\n"
                                     "figure 12\n"
                                     "systems 1\n",
                                     r);
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.err.find("scenario figure"), std::string::npos) << r.err;
  EXPECT_TRUE(json.empty());
}

TEST(Cli, RunPerfJsonRejectsPlanAndThreads) {
  for (const char* flag : {"--plan", "--threads=2"}) {
    const CliResult r = run_cli({"run", "-", "--perf-json=unused.json", flag},
                                kMontecarloSpec);
    EXPECT_EQ(r.exit_code, 1) << flag;
    EXPECT_NE(r.err.find("--perf-json takes neither --plan nor --threads"),
              std::string::npos)
        << r.err;
  }
}

TEST(Cli, RunMontecarloReportCsv) {
  const CliResult r = run_cli({"run", "-", "--report=csv", "--threads=1"},
                              "e2esync-scenario v1\n"
                              "scenario montecarlo\n"
                              "runs 2\n"
                              "horizon-periods 4\n"
                              "system example2\n");
  ASSERT_EQ(r.exit_code, 0) << r.err;
  EXPECT_NE(r.out.find("protocol,task,instances,mean_eer,p_miss"),
            std::string::npos);
  EXPECT_NE(r.out.find("RG,"), std::string::npos);
}

TEST(Cli, RunSweepReportCsvCarriesCi90) {
  // The legacy_sweep.txt spec of scenario_parity_test, as CSV.
  const CliResult r = run_cli({"run", "-", "--report=csv", "--threads=1"},
                              "e2esync-scenario v1\n"
                              "scenario sweep\n"
                              "seed 5\n"
                              "systems 3\n"
                              "horizon-periods 4\n"
                              "config 2 40\n");
  ASSERT_EQ(r.exit_code, 0) << r.err;
  EXPECT_TRUE(r.out.starts_with("subtasks,utilization,metric,mean,samples,ci90\n"))
      << r.out;
  // The failure rate is a proportion and carries no interval.
  EXPECT_NE(r.out.find("\n2,40,SA/DS failure rate,0,3,0\n"), std::string::npos);
  const std::string row = "\n2,40,avg-EER ratio PM/DS,";
  const std::size_t at = r.out.find(row);
  ASSERT_NE(at, std::string::npos) << r.out;
  const std::string line = r.out.substr(at + 1, r.out.find('\n', at + 1) - at - 1);
  const double ci90 = std::stod(line.substr(line.rfind(',') + 1));
  EXPECT_NEAR(ci90, 0.158087086, 1e-8) << line;
}

TEST(Cli, RunMontecarloReportJson) {
  const CliResult r = run_cli({"run", "-", "--threads=1"},
                              "e2esync-scenario v1\n"
                              "scenario montecarlo\n"
                              "report json\n"
                              "runs 2\n"
                              "horizon-periods 4\n"
                              "system example2\n");
  ASSERT_EQ(r.exit_code, 0) << r.err;
  EXPECT_NE(r.out.find("\"scenario\":\"montecarlo\""), std::string::npos);
  EXPECT_NE(r.out.find("\"schedule_hash\""), std::string::npos);
}

TEST(Cli, RunFaultsWithTimesvcReportsAchievedPrecision) {
  const CliResult r = run_cli({"run", "-", "--threads=1"},
                              "e2esync-scenario v1\n"
                              "scenario faults\n"
                              "systems 1\n"
                              "horizon-periods 3\n"
                              "protocol PM\n"
                              "protocol PM-E\n"
                              "timesvc interval=25000\n"
                              "severity clock offset=150000,drift-ppm=15000\n");
  ASSERT_EQ(r.exit_code, 0) << r.err;
  EXPECT_NE(r.out.find("PM-E"), std::string::npos);
  EXPECT_NE(r.out.find("timesvc: |err| mean"), std::string::npos);
  EXPECT_NE(r.out.find("holdover"), std::string::npos);
}

TEST(Cli, RunFaultsWithTimesvcAddsPrecisionCsvColumns) {
  const std::string spec =
      "e2esync-scenario v1\n"
      "scenario faults\n"
      "systems 1\n"
      "horizon-periods 3\n"
      "protocol PM-E\n"
      "severity clock offset=150000,drift-ppm=15000\n";
  const CliResult with_svc = run_cli({"run", "-", "--report=csv", "--threads=1"},
                                     spec + "timesvc interval=25000\n");
  ASSERT_EQ(with_svc.exit_code, 0) << with_svc.err;
  EXPECT_NE(with_svc.out.find("sync_err_mean"), std::string::npos);
  EXPECT_NE(with_svc.out.find("holdover_ticks"), std::string::npos);
  // Without the timesvc line the legacy header is byte-identical.
  const CliResult without = run_cli({"run", "-", "--report=csv", "--threads=1"}, spec);
  ASSERT_EQ(without.exit_code, 0) << without.err;
  EXPECT_EQ(without.out.find("sync_err_mean"), std::string::npos);
}

TEST(Cli, RunRejectsMalformedTimesvc) {
  const CliResult r = run_cli({"run", "-"},
                              "e2esync-scenario v1\n"
                              "scenario faults\n"
                              "config 2 40\n"
                              "timesvc intervall=5\n");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.err.find("unknown timesvc key 'intervall'"), std::string::npos);
  EXPECT_NE(r.err.find("line 4"), std::string::npos) << r.err;
}

TEST(Cli, PartitionExampleScenarioParsesAndPlans) {
  // The checked-in partition scenario (timesvc + partition/source-down
  // windows) must stay parseable; --plan validates and expands it
  // without paying for the full run.
  const CliResult r = run_cli(
      {"run", E2E_REPO_DIR "/examples/scenarios/partition.e2es", "--plan"});
  ASSERT_EQ(r.exit_code, 0) << r.err;
  EXPECT_NE(r.out.find("faults"), std::string::npos);
}

TEST(Cli, SimulateAcceptsPmEstimated) {
  const CliResult r = run_cli({"simulate", "--protocol=PM-E", "--horizon=60"},
                              to_text(paper::example2()));
  EXPECT_EQ(r.exit_code, 0) << r.err;
  EXPECT_NE(r.out.find("protocol PM-E"), std::string::npos);
}

TEST(Cli, SimulateWithExecutionVariation) {
  const CliResult r = run_cli(
      {"simulate", "--protocol=DS", "--exec-var=0.5", "--seed=4", "--horizon=600"},
      to_text(paper::example2()));
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.out.find("avg EER"), std::string::npos);
}

TEST(Cli, SimulateRejectsNonPositiveHorizon) {
  for (const std::string horizon : {"0", "-5"}) {
    const CliResult r = run_cli({"simulate", "--horizon=" + horizon},
                                to_text(paper::example2()));
    EXPECT_EQ(r.exit_code, 1) << horizon;
    EXPECT_NE(r.err.find("--horizon must be a positive integer"), std::string::npos)
        << r.err;
  }
}

TEST(Cli, SimulateRejectsExecVarOutsideUnitInterval) {
  for (const std::string exec_var : {"0", "-0.5", "1.5"}) {
    const CliResult r = run_cli({"simulate", "--exec-var=" + exec_var},
                                to_text(paper::example2()));
    EXPECT_EQ(r.exit_code, 1) << exec_var;
    EXPECT_NE(r.err.find("--exec-var must be in (0, 1]"), std::string::npos)
        << r.err;
  }
}

TEST(Cli, GenerateRejectsNonPositiveCounts) {
  // A negative count fails in the CLI before it can wrap to a huge size;
  // 0 reaches the generator, whose message names what is missing.
  const std::pair<std::string, std::string> cases[] = {
      {"--subtasks=-1", "--subtasks must be a positive integer"},
      {"--tasks=-1", "--tasks must be a positive integer"},
      {"--processors=-1", "--processors must be a positive integer"},
      {"--subtasks=0", "generator: need subtasks"},
      {"--tasks=0", "generator: need tasks"},
      {"--processors=0", "generator: need processors"}};
  for (const auto& [flag, message] : cases) {
    const CliResult r = run_cli({"generate", flag});
    EXPECT_EQ(r.exit_code, 1) << flag;
    EXPECT_NE(r.err.find(message), std::string::npos) << r.err;
  }
}

TEST(Cli, SeedRejectsNegativeAndOverflowingValues) {
  // --seed is a uint64 everywhere: a negative value or one of 2^64 or more
  // is an error naming the flag, not a silently wrapped or clamped seed.
  const std::string system = to_text(paper::example2());
  for (const char* command : {"simulate", "generate"}) {
    for (const std::string seed : {"-1", "18446744073709551616"}) {
      const CliResult r = run_cli({command, "--seed=" + seed}, system);
      EXPECT_EQ(r.exit_code, 1) << command << " " << seed;
      EXPECT_TRUE(r.out.empty()) << command << " " << seed;
      EXPECT_NE(r.err.find("--seed"), std::string::npos) << r.err;
    }
  }
}

TEST(Cli, SimulateRejectsOutOfRangeHorizon) {
  const CliResult r = run_cli({"simulate", "--horizon=99999999999999999999"},
                              to_text(paper::example2()));
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.err.find("--horizon is out of range"), std::string::npos) << r.err;
}

TEST(Cli, RunSweepRunsTheLargestSeed) {
  // The value used to be clamped to 2^63 - 1 (hash 0x478e0847c3abd96f).
  const CliResult r = run_cli({"run", "-", "--threads=1"},
                              "e2esync-scenario v1\n"
                              "scenario sweep\n"
                              "seed 18446744073709551615\n"
                              "systems 1\n"
                              "horizon-periods 2\n"
                              "config 4 60\n");
  ASSERT_EQ(r.exit_code, 0) << r.err;
  EXPECT_NE(r.out.find("schedule hash 0xee779452cfbe5cb9"), std::string::npos) << r.out;
}

TEST(Cli, RetiredSpecBuildersAreUnknownCommands) {
  for (const char* command : {"montecarlo", "sweep", "faults"}) {
    const CliResult r = run_cli({command}, to_text(paper::example2()));
    EXPECT_EQ(r.exit_code, 1) << command;
    EXPECT_NE(r.err.find("unknown command"), std::string::npos) << r.err;
  }
}

TEST(Cli, NonFiniteNumbersAreRejectedByName) {
  // NaN used to pass every range check: --utilization=nan set every exec
  // time to 1, loss-prob=nan turned loss off, and a spec's exec-var nan
  // aborted the process.
  const std::string system = to_text(paper::example2());
  const std::pair<std::vector<std::string>, std::string> cases[] = {
      {{"generate", "--utilization=nan"}, "--utilization is out of range: 'nan'"},
      {{"simulate", "--faults=loss-prob=nan"},
       "fault key 'loss-prob' is out of range: 'nan'"},
      {{"simulate", "--exec-var=inf"}, "--exec-var is out of range: 'inf'"}};
  for (const auto& [args, message] : cases) {
    const CliResult r = run_cli(args, system);
    EXPECT_EQ(r.exit_code, 1) << args[1];
    EXPECT_NE(r.err.find(message), std::string::npos) << r.err;
  }
  const CliResult spec = run_cli({"run", "-"}, kMontecarloSpec + "exec-var nan\n");
  EXPECT_EQ(spec.exit_code, 1);
  EXPECT_NE(spec.err.find("line 6: 'exec-var' is out of range: 'nan'"), std::string::npos)
      << spec.err;
}

TEST(Cli, OverflowingFaultTicksAreRejectedByName) {
  // strtoll saturated this to INT64_MAX: every signal arrived "late".
  const CliResult r = run_cli({"simulate", "--protocol=DS",
                               "--faults=delay=99999999999999999999999"},
                              to_text(paper::example2()));
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_TRUE(r.out.empty());
  EXPECT_NE(r.err.find("fault key 'delay' is out of range"), std::string::npos) << r.err;
}

TEST(Cli, AdmitRejectsAProcessorIdThatWouldWrap) {
  // 2^32 used to narrow to processor 0 and be accepted.
  const CliResult r = run_cli({"admit", "--processors=2"},
                              "admit name=A period=100 sub=4294967296:10:1\n");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.out.find("sub processor is out of range"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("admitted 0"), std::string::npos) << r.out;
}

TEST(Cli, RunRejectsOutOfRangeSpecCounts) {
  const CliResult r =
      run_cli({"run", "-"}, "e2esync-scenario v1\nscenario sweep\nsystems 4294967297\n");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.err.find("line 3"), std::string::npos) << r.err;
  EXPECT_NE(r.err.find("out of range"), std::string::npos) << r.err;
}

TEST(Cli, AdmitJsonEscapesControlCharacters) {
  // A raw 0x01 inside a JSON string is invalid JSON; it must come out as
  // the \u0001 escape.
  const CliResult r = run_cli({"admit", "--processors=2", "--report=json"},
                              "admit name=a\x01" "b period=100 sub=0:10:0\n");
  EXPECT_EQ(r.exit_code, 0) << r.err;
  EXPECT_NE(r.out.find("a\\u0001b"), std::string::npos) << r.out;
  EXPECT_EQ(r.out.find('\x01'), std::string::npos);
}

TEST(Cli, AdmitAnswersRequestStream) {
  const CliResult r = run_cli({"admit", "--processors=2"},
                              "admit name=T1 period=100 sub=0:10:0\n"
                              "query\n"
                              "remove name=T1\n");
  EXPECT_EQ(r.exit_code, 0) << r.err;
  EXPECT_NE(r.out.find("accepted"), std::string::npos);
  EXPECT_NE(r.out.find("removed 'T1'"), std::string::npos);
}

TEST(Cli, AdmitParseErrorsExitNonzeroButKeepStreaming) {
  const CliResult r = run_cli({"admit", "--processors=2"},
                              "admit name=T1 budget=3\n"
                              "admit name=T2 period=100 sub=0:10:0\n");
  EXPECT_EQ(r.exit_code, 2);  // the bad line counts as an error...
  EXPECT_NE(r.out.find("unknown key 'budget'"), std::string::npos);
  EXPECT_NE(r.out.find("(known: "), std::string::npos);
  EXPECT_NE(r.out.find("admitted 'T2'"), std::string::npos);  // ...stream goes on
}

TEST(Cli, AdmitJsonReportCarriesCulpritDetail) {
  const CliResult r = run_cli(
      {"admit", "--processors=2", "--report=json"},
      "admit name=T1 period=10 sub=0:5:0\n"
      "admit name=T2 period=12 deadline=6 sub=0:5:1\n");
  EXPECT_EQ(r.exit_code, 0) << r.err;
  EXPECT_NE(r.out.find("\"reason\": \"bound-failure\""), std::string::npos);
  EXPECT_NE(r.out.find("\"culprit\""), std::string::npos);
  EXPECT_NE(r.out.find("\"result_hash\""), std::string::npos);
}

/// True if `out` contains `prefix` + "0x" + 16 lowercase hex digits + `suffix`.
bool has_hex_hash(const std::string& out, const std::string& prefix,
                  const std::string& suffix) {
  const std::size_t at = out.find(prefix + "0x");
  if (at == std::string::npos) return false;
  const std::string rest = out.substr(at + prefix.size() + 2);
  return rest.size() >= 16 + suffix.size() &&
         rest.find_first_not_of("0123456789abcdef") == 16 &&
         rest.compare(16, suffix.size(), suffix) == 0;
}

TEST(Cli, AdmitPrintsResultHashInTheSixteenDigitForm) {
  const std::string stream = "admit name=T1 period=100 sub=0:10:0\n";
  const CliResult json = run_cli({"admit", "--processors=2", "--report=json"}, stream);
  EXPECT_EQ(json.exit_code, 0) << json.err;
  EXPECT_TRUE(has_hex_hash(json.out, "\"result_hash\": \"", "\"")) << json.out;
  const CliResult table = run_cli({"admit", "--processors=2"}, stream);
  EXPECT_EQ(table.exit_code, 0) << table.err;
  EXPECT_TRUE(has_hex_hash(table.out, "  hash ", "\n")) << table.out;
}

// Each outcome names the engine path that decided it; its entry solves
// and the counts of a component re-solve ride along in JSON, the path
// alone in CSV.
TEST(Cli, AdmitReportsTheEnginePath) {
  const std::string stream =
      "admit name=A period=100 sub=0:5:1 sub=1:5:1\n"
      "admit name=B period=100 sub=1:5:2 sub=0:5:2\n"
      "admit name=C period=100 sub=0:5:0\n"
      "remove name=C\n"
      "query\n";
  const CliResult json =
      run_cli({"admit", "--processors=2", "--policy=ds", "--report=json"}, stream);
  EXPECT_EQ(json.exit_code, 0) << json.err;
  EXPECT_NE(json.out.find("\"path\": \"bootstrap\""), std::string::npos);
  EXPECT_NE(json.out.find("\"path\": \"warm\""), std::string::npos);
  EXPECT_NE(json.out.find("\"path\": \"components\", \"evaluations\": "),
            std::string::npos);
  EXPECT_NE(json.out.find("\"cone\": "), std::string::npos);
  EXPECT_NE(json.out.find("\"components_skipped\": "), std::string::npos);
  // The query ran no analysis.
  EXPECT_NE(json.out.find("\"path\": \"none\", \"evaluations\": 0,"), std::string::npos);

  const CliResult csv = run_cli(
      {"admit", "--processors=2", "--policy=ds", "--report=csv", "--full-recompute"},
      stream);
  EXPECT_EQ(csv.exit_code, 0) << csv.err;
  EXPECT_NE(csv.out.find(",cached,path\n"), std::string::npos);
  EXPECT_NE(csv.out.find(",full\n"), std::string::npos);
}

TEST(Cli, AdmitRejectsUnknownFlag) {
  const CliResult r = run_cli({"admit", "--plocy=ds"});
  EXPECT_NE(r.exit_code, 0);
  EXPECT_NE(r.err.find("unknown option --plocy"), std::string::npos);
  EXPECT_NE(r.err.find("(known: "), std::string::npos);
  EXPECT_NE(r.err.find("--policy"), std::string::npos);
}

TEST(Cli, AdmitRejectsUnknownPolicyAndBadCounts) {
  EXPECT_NE(run_cli({"admit", "--policy=edf"}).exit_code, 0);
  EXPECT_NE(run_cli({"admit", "--processors=0"}).exit_code, 0);
  EXPECT_NE(run_cli({"admit", "--cache=-1"}).exit_code, 0);
}

TEST(Cli, AdmitRejectsMissingFile) {
  const CliResult r = run_cli({"admit", "/nonexistent/requests.txt"});
  EXPECT_NE(r.exit_code, 0);
  EXPECT_NE(r.err.find("cannot open"), std::string::npos);
}

}  // namespace
}  // namespace e2e
