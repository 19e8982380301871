#include "scenario/spec.h"

#include <cmath>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/rng.h"
#include "scenario/plan.h"

namespace e2e {
namespace {

// Parsing with value-initialized defaults keeps the tests independent of
// the E2E_* environment the test runner happens to have.
ScenarioSpec parse(const std::string& text) {
  return parse_scenario(text, ScenarioDefaults{});
}

TEST(ScenarioSpecParse, MinimalSweepFillsDefaults) {
  const ScenarioSpec spec = parse("e2esync-scenario v1\nscenario sweep\n");
  EXPECT_EQ(spec.kind, ScenarioKind::kSweep);
  EXPECT_EQ(spec.report, ReportFormat::kTable);
  EXPECT_EQ(spec.seed, 20260706u);
  EXPECT_EQ(spec.systems, 20);
  EXPECT_DOUBLE_EQ(spec.horizon_periods, 30.0);
  ASSERT_EQ(spec.grid.size(), 1u);
  EXPECT_EQ(spec.grid[0].subtasks_per_task, 4);
  EXPECT_EQ(spec.grid[0].utilization_percent, 60);
}

TEST(ScenarioSpecParse, MinimalMonteCarloFillsDefaults) {
  const ScenarioSpec spec = parse("e2esync-scenario v1\nscenario montecarlo\n");
  EXPECT_EQ(spec.kind, ScenarioKind::kMonteCarlo);
  EXPECT_EQ(spec.seed, 1u);
  EXPECT_EQ(spec.systems, 20);
  EXPECT_DOUBLE_EQ(spec.horizon_periods, 20.0);
  ASSERT_EQ(spec.protocols.size(), 1u);
  EXPECT_EQ(spec.protocols[0], ProtocolKind::kReleaseGuard);
  EXPECT_EQ(spec.system.kind, SystemSource::Kind::kStdin);
}

TEST(ScenarioSpecParse, MinimalFaultsFillsLadderAndProtocols) {
  const ScenarioSpec spec = parse("e2esync-scenario v1\nscenario faults\n");
  EXPECT_EQ(spec.seed, 20260806u);
  EXPECT_EQ(spec.systems, 10);
  EXPECT_EQ(spec.protocols.size(), 5u);
  EXPECT_EQ(spec.severities, default_fault_severities());
  ASSERT_EQ(spec.grid.size(), 1u);
}

TEST(ScenarioSpecParse, CommentsAndBlankLinesIgnored) {
  const ScenarioSpec spec = parse(
      "# leading comment\n"
      "e2esync-scenario v1\n"
      "\n"
      "scenario sweep  # trailing comment\n"
      "seed 7\n");
  EXPECT_EQ(spec.seed, 7u);
}

TEST(ScenarioSpecParse, ExplicitKeysOverrideDefaults) {
  const ScenarioSpec spec = parse(
      "e2esync-scenario v1\n"
      "scenario montecarlo\n"
      "report json\n"
      "seed 42\n"
      "runs 5\n"
      "horizon-periods 2.5\n"
      "threads 3\n"
      "exec-var 0.8\n"
      "protocol PM\n"
      "protocol DS\n"
      "system example2\n");
  EXPECT_EQ(spec.report, ReportFormat::kJson);
  EXPECT_EQ(spec.seed, 42u);
  EXPECT_EQ(spec.systems, 5);
  EXPECT_DOUBLE_EQ(spec.horizon_periods, 2.5);
  EXPECT_EQ(spec.threads, 3);
  EXPECT_DOUBLE_EQ(spec.exec_var, 0.8);
  EXPECT_EQ(spec.protocols,
            (std::vector<ProtocolKind>{ProtocolKind::kPhaseModification,
                                       ProtocolKind::kDirectSync}));
  EXPECT_EQ(spec.system.kind, SystemSource::Kind::kExample2);
}

TEST(ScenarioSpecParse, InlineSystemBlockIsVerbatim) {
  const ScenarioSpec spec = parse(
      "e2esync-scenario v1\n"
      "scenario montecarlo\n"
      "begin system\n"
      "e2esync v1\n"
      "processors 1\n"
      "end system\n");
  EXPECT_EQ(spec.system.kind, SystemSource::Kind::kInline);
  EXPECT_EQ(spec.system.text, "e2esync v1\nprocessors 1\n");
}

TEST(ScenarioSpecParse, ErrorsCarryLineNumbers) {
  try {
    parse("e2esync-scenario v1\nscenario sweep\nbogus 1\n");
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string{e.what()}.find("line 3"), std::string::npos);
    EXPECT_NE(std::string{e.what()}.find("unknown key 'bogus'"),
              std::string::npos);
  }
}

/// Parses `text` expecting InvalidArgument; returns its message.
std::string parse_error(const std::string& text) {
  try {
    (void)parse(text);
  } catch (const InvalidArgument& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected InvalidArgument for:\n" << text;
  return {};
}

TEST(ScenarioSpecParse, OutOfRangeCountsFailInsteadOfWrapping) {
  // Narrowed to int, 2^32 + 1 and 2^32 + 2 would run as 1 and 2.
  const std::string head = "e2esync-scenario v1\nscenario sweep\n";
  std::string message = parse_error(head + "systems 4294967297\n");
  EXPECT_NE(message.find("line 3"), std::string::npos) << message;
  EXPECT_NE(message.find("'systems' is out of range"), std::string::npos)
      << message;

  message = parse_error(head + "runs -4294967297\n");
  EXPECT_NE(message.find("'runs' is out of range"), std::string::npos) << message;

  message = parse_error(head + "\nthreads 4294967297\n");
  EXPECT_NE(message.find("line 4"), std::string::npos) << message;
  EXPECT_NE(message.find("'threads' is out of range"), std::string::npos)
      << message;

  message = parse_error(head + "config 4294967298 40\n");
  EXPECT_NE(message.find("'config N' is out of range"), std::string::npos)
      << message;
  message = parse_error(head + "config 4 99999999999999999999\n");
  EXPECT_NE(message.find("'config U' is out of range"), std::string::npos)
      << message;

  for (const char* key : {"subtasks", "utilization", "tasks", "processors"}) {
    message = parse_error(
        "e2esync-scenario v1\nscenario montecarlo\nsystem generate " +
        std::string{key} + "=4294967297\n");
    EXPECT_NE(message.find("line 3"), std::string::npos) << message;
    EXPECT_NE(message.find("'" + std::string{key} + "' is out of range"),
              std::string::npos)
        << message;
    // One line prefix, not the parser's message wrapped in a second one.
    EXPECT_EQ(message.find("line 3", message.find("line 3") + 1),
              std::string::npos)
        << message;
  }
  message = parse_error(
      "e2esync-scenario v1\nscenario montecarlo\nseed 18446744073709551616\n");
  EXPECT_NE(message.find("'seed' is out of range"), std::string::npos) << message;

  // The extremes that do fit still parse.
  EXPECT_EQ(parse(head + "systems 2147483647\n").systems, 2147483647);
}

TEST(ScenarioSpecParse, NonFiniteValuesFailByLine) {
  // `exec-var nan` used to pass validation and abort the Monte-Carlo run;
  // `horizon-periods inf` ran with an infinite horizon.
  const std::string head = "e2esync-scenario v1\nscenario montecarlo\n";
  EXPECT_EQ(parse_error(head + "exec-var nan\n"),
            "scenario spec line 3: 'exec-var' is out of range: 'nan'");
  for (const char* value : {"inf", "nan", "-inf", "1e999"}) {
    const std::string message = parse_error(head + "horizon-periods " + value + "\n");
    EXPECT_NE(message.find("line 3: 'horizon-periods' is out of range"),
              std::string::npos)
        << message;
  }
}

TEST(ScenarioSpecParse, RejectsMissingHeader) {
  EXPECT_THROW(parse("scenario sweep\n"), InvalidArgument);
}

TEST(ScenarioSpecParse, RejectsMissingKind) {
  EXPECT_THROW(parse("e2esync-scenario v1\nseed 1\n"), InvalidArgument);
}

TEST(ScenarioSpecParse, RejectsUnknownProtocol) {
  EXPECT_THROW(
      parse("e2esync-scenario v1\nscenario montecarlo\nprotocol XX\n"),
      InvalidArgument);
}

TEST(ScenarioSpecParse, RejectsMalformedSeverity) {
  EXPECT_THROW(
      parse("e2esync-scenario v1\nscenario faults\nseverity bad bogus=1\n"),
      InvalidArgument);
}

TEST(ScenarioSpecParse, TimesvcLineParsesAndRoundTrips) {
  const ScenarioSpec spec = parse(
      "e2esync-scenario v1\n"
      "scenario faults\n"
      "timesvc interval=25000,slew-ppm=40000\n");
  EXPECT_TRUE(spec.timesvc.enabled());
  EXPECT_EQ(spec.timesvc.sync_interval, 25'000);
  EXPECT_EQ(spec.timesvc.max_slew_ppm, 40'000);
  // write -> parse is the identity, timesvc line included.
  const ScenarioSpec reparsed = parse(write_scenario(spec));
  EXPECT_EQ(reparsed, spec);
  // A faults spec without the line stays disabled (legacy bytes).
  const ScenarioSpec plain = parse("e2esync-scenario v1\nscenario faults\n");
  EXPECT_FALSE(plain.timesvc.enabled());
}

TEST(ScenarioSpecParse, TimesvcErrorsCarryLineNumbers) {
  try {
    parse(
        "e2esync-scenario v1\n"
        "scenario faults\n"
        "timesvc intervall=5\n");
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("line 3"), std::string::npos);
    EXPECT_NE(what.find("unknown timesvc key 'intervall'"), std::string::npos);
  }
}

TEST(ScenarioSpecParse, TimesvcOnlyAppliesToFaultsScenarios) {
  EXPECT_THROW(
      parse("e2esync-scenario v1\nscenario sweep\ntimesvc interval=5\n"),
      InvalidArgument);
}

TEST(ScenarioSpecParse, PmEstimatedIsSelectable) {
  const ScenarioSpec spec = parse(
      "e2esync-scenario v1\n"
      "scenario faults\n"
      "protocol PM\n"
      "protocol PM-E\n"
      "timesvc interval=25000\n");
  EXPECT_EQ(spec.protocols,
            (std::vector<ProtocolKind>{ProtocolKind::kPhaseModification,
                                       ProtocolKind::kPmEstimated}));
}

TEST(ScenarioSpecParse, RejectsUnterminatedSystemBlock) {
  EXPECT_THROW(
      parse("e2esync-scenario v1\nscenario montecarlo\nbegin system\nfoo\n"),
      InvalidArgument);
}

TEST(ScenarioSpecValidate, RejectsUnrunnableSpecs) {
  ScenarioSpec spec = parse("e2esync-scenario v1\nscenario sweep\n");
  spec.systems = 0;
  EXPECT_THROW(validate_scenario(spec), InvalidArgument);

  spec = parse("e2esync-scenario v1\nscenario sweep\n");
  spec.exec_var = 1.5;
  EXPECT_THROW(validate_scenario(spec), InvalidArgument);

  // NaN fails every comparison, so each check is written to reject it.
  spec = parse("e2esync-scenario v1\nscenario montecarlo\n");
  spec.exec_var = std::nan("");
  EXPECT_THROW(validate_scenario(spec), InvalidArgument);
  spec = parse("e2esync-scenario v1\nscenario montecarlo\n");
  spec.horizon_periods = std::nan("");
  EXPECT_THROW(validate_scenario(spec), InvalidArgument);

  spec = parse("e2esync-scenario v1\nscenario faults\n");
  spec.grid.push_back(spec.grid[0]);
  EXPECT_THROW(validate_scenario(spec), InvalidArgument);

  spec = parse("e2esync-scenario v1\nscenario montecarlo\n");
  spec.protocols.clear();
  EXPECT_THROW(validate_scenario(spec), InvalidArgument);
}

/// Draws a random fully-concrete, valid spec (the shape parse_scenario
/// would produce).
ScenarioSpec random_spec(Rng& rng) {
  ScenarioSpec spec;
  spec.kind = static_cast<ScenarioKind>(rng.uniform_int(0, 4));
  spec.report = static_cast<ReportFormat>(rng.uniform_int(0, 2));
  if (spec.kind == ScenarioKind::kFigure) {
    spec.figure = static_cast<FigureKind>(rng.uniform_int(0, 10));
  }
  spec.seed = rng.next_u64();
  spec.systems = static_cast<int>(rng.uniform_int(1, 500));
  spec.horizon_periods = rng.uniform_real(0.5, 40.0);
  spec.threads = static_cast<int>(rng.uniform_int(0, 8));
  if (rng.next_double() < 0.5) spec.exec_var = rng.uniform_real(0.1, 1.0);

  const auto random_protocols = [&](std::int64_t max_count) {
    std::vector<ProtocolKind> protocols;
    const std::int64_t count = rng.uniform_int(1, max_count);
    for (std::int64_t i = 0; i < count; ++i) {
      protocols.push_back(static_cast<ProtocolKind>(rng.uniform_int(0, 4)));
    }
    return protocols;
  };
  const auto random_config = [&] {
    return Configuration{
        .subtasks_per_task = static_cast<int>(rng.uniform_int(1, 10)),
        .utilization_percent = static_cast<int>(rng.uniform_int(1, 100))};
  };

  switch (spec.kind) {
    case ScenarioKind::kMonteCarlo: {
      spec.protocols = random_protocols(3);
      const std::int64_t source = rng.uniform_int(0, 4);
      if (source == 0) {
        spec.system.kind = SystemSource::Kind::kStdin;
      } else if (source == 1) {
        spec.system.kind = SystemSource::Kind::kExample2;
      } else if (source == 2) {
        spec.system.kind = SystemSource::Kind::kFile;
        spec.system.path = "systems/sys" + std::to_string(rng.next_u64() % 100);
      } else if (source == 3) {
        spec.system.kind = SystemSource::Kind::kGenerate;
        spec.system.generate_subtasks = static_cast<int>(rng.uniform_int(1, 8));
        spec.system.generate_utilization =
            static_cast<int>(rng.uniform_int(10, 95));
        spec.system.generate_tasks = static_cast<int>(rng.uniform_int(2, 20));
        spec.system.generate_processors =
            static_cast<int>(rng.uniform_int(1, 8));
        spec.system.generate_seed = rng.next_u64();
        spec.system.generate_ticks = rng.uniform_int(1, 10000);
      } else {
        spec.system.kind = SystemSource::Kind::kInline;
        spec.system.text = "e2esync v1\nprocessors 2\n";
      }
      break;
    }
    case ScenarioKind::kSweep: {
      const std::int64_t cells = rng.uniform_int(1, 3);
      for (std::int64_t i = 0; i < cells; ++i) spec.grid.push_back(random_config());
      break;
    }
    case ScenarioKind::kFaults: {
      spec.grid = {random_config()};
      spec.protocols = random_protocols(5);
      std::vector<FaultSeverity> ladder = default_fault_severities();
      const std::int64_t count = rng.uniform_int(1, 4);
      spec.severities.assign(ladder.begin(), ladder.begin() + count);
      break;
    }
    case ScenarioKind::kBreakdown:
    case ScenarioKind::kFigure:
      break;
  }
  return spec;
}

TEST(ScenarioSpecRoundTrip, WriteThenParseIsIdentity) {
  Rng rng{20260806};
  for (int trial = 0; trial < 200; ++trial) {
    const ScenarioSpec spec = random_spec(rng);
    const std::string text = write_scenario(spec);
    ScenarioSpec reparsed;
    try {
      reparsed = parse(text);
    } catch (const InvalidArgument& e) {
      FAIL() << "trial " << trial << ": " << e.what() << "\nspec:\n" << text;
    }
    EXPECT_EQ(reparsed, spec) << "trial " << trial << "\nspec:\n" << text;
  }
}

TEST(ScenarioPlan, ExpandsExpectedCellCounts) {
  ScenarioSpec spec = parse("e2esync-scenario v1\nscenario sweep\n");
  spec.grid.push_back(Configuration{.subtasks_per_task = 6,
                                    .utilization_percent = 70});
  ScenarioPlan plan = expand_scenario(spec);
  EXPECT_EQ(plan.cells.size(), 2u);
  EXPECT_EQ(plan.total_units(), 2 * spec.systems);

  plan = expand_scenario(parse("e2esync-scenario v1\nscenario faults\n"));
  EXPECT_EQ(plan.cells.size(), 5u * 5u);  // severities x protocols

  plan = expand_scenario(parse("e2esync-scenario v1\nscenario breakdown\n"));
  EXPECT_EQ(plan.cells.size(), 7u);  // chain lengths 2..8

  plan = expand_scenario(
      parse("e2esync-scenario v1\nscenario figure\nfigure 12\n"));
  EXPECT_EQ(plan.cells.size(), 35u);  // the paper's 7x5 (N, U) grid

  const std::string description = plan.describe();
  EXPECT_NE(description.find("scenario figure"), std::string::npos);
  EXPECT_NE(description.find("35 cells"), std::string::npos);

  // The reports that are not the 35-cell grid list the cells they run.
  plan = expand_scenario(parse(
      "e2esync-scenario v1\nscenario figure\nfigure hopa\nsystems 30\n"));
  EXPECT_EQ(plan.cells.size(), 21u);  // N = 2..8 x U = 60, 70, 80
  EXPECT_EQ(plan.total_units(), 21 * 30);
  plan = expand_scenario(parse(
      "e2esync-scenario v1\nscenario figure\nfigure sensitivity\nsystems 60\n"));
  EXPECT_EQ(plan.cells.size(), 4u * 4u);  // period variants x summary cells
  plan = expand_scenario(
      parse("e2esync-scenario v1\nscenario figure\nfigure paper-examples\n"));
  EXPECT_EQ(plan.cells.size(), 2u);  // Examples 2 and 1
  EXPECT_EQ(plan.total_units(), 2);
}

ScenarioSpec parse_example_spec(const std::string& name) {
  const std::string path = std::string{E2E_SCENARIO_DIR} + "/" + name;
  std::ifstream file{path};
  EXPECT_TRUE(file) << "cannot open " << path;
  return parse_scenario(file, ScenarioDefaults{});
}

TEST(ScenarioLadderSpecs, FaultLadderSpellsTheDefaultLadder) {
  const ScenarioSpec spec = parse_example_spec("fault_ladder.e2es");
  EXPECT_EQ(spec.severities, default_fault_severities());
  EXPECT_EQ(spec.protocols,
            std::vector<ProtocolKind>(std::begin(kExtendedProtocolKinds),
                                      std::end(kExtendedProtocolKinds)));
  EXPECT_FALSE(spec.timesvc.enabled());
}

TEST(ScenarioLadderSpecs, TimesvcLadderSpellsTheSyncDegradationLadder) {
  const ScenarioSpec spec = parse_example_spec("timesvc_ladder.e2es");
  EXPECT_EQ(spec.severities, sync_degradation_severities());
  EXPECT_EQ(spec.protocols,
            (std::vector<ProtocolKind>{ProtocolKind::kPhaseModification,
                                       ProtocolKind::kPmEstimated,
                                       ProtocolKind::kModifiedPmRetransmit}));
  EXPECT_EQ(spec.timesvc, TimeServiceConfig{.sync_interval = 25'000});
}

}  // namespace
}  // namespace e2e
