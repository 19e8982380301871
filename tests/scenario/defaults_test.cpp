#include "scenario/defaults.h"

#include <cstdlib>
#include <string>

#include <gtest/gtest.h>

#include "common/error.h"
#include "scenario/spec.h"

namespace e2e {
namespace {

/// Clears a variable for the test's duration and restores "unset" after.
struct EnvGuard {
  explicit EnvGuard(const char* name) : name_{name} { unsetenv(name_); }
  ~EnvGuard() { unsetenv(name_); }
  void set(const char* value) { setenv(name_, value, /*overwrite=*/1); }

 private:
  const char* name_;
};

TEST(Defaults, IntFallsBackWhenUnset) {
  EnvGuard guard{"E2E_TEST_INT"};
  EXPECT_EQ(env_int("E2E_TEST_INT", 42), 42);
}

TEST(Defaults, IntParsesValue) {
  EnvGuard guard{"E2E_TEST_INT"};
  guard.set("17");
  EXPECT_EQ(env_int("E2E_TEST_INT", 42), 17);
}

TEST(Defaults, IntEmptyStringFallsBack) {
  EnvGuard guard{"E2E_TEST_INT"};
  guard.set("");
  EXPECT_EQ(env_int("E2E_TEST_INT", 42), 42);
}

TEST(Defaults, IntNegative) {
  EnvGuard guard{"E2E_TEST_INT"};
  guard.set("-3");
  EXPECT_EQ(env_int("E2E_TEST_INT", 42), -3);
}

TEST(Defaults, DoubleFallsBackWhenUnset) {
  EnvGuard guard{"E2E_TEST_DOUBLE"};
  EXPECT_DOUBLE_EQ(env_double("E2E_TEST_DOUBLE", 1.5), 1.5);
}

TEST(Defaults, DoubleParsesValue) {
  EnvGuard guard{"E2E_TEST_DOUBLE"};
  guard.set("2.25");
  EXPECT_DOUBLE_EQ(env_double("E2E_TEST_DOUBLE", 1.5), 2.25);
}

TEST(Defaults, LoadPicksUpOverrides) {
  EnvGuard systems{"E2E_SYSTEMS_PER_CONFIG"};
  EnvGuard sim_systems{"E2E_SIM_SYSTEMS_PER_CONFIG"};
  EnvGuard seed{"E2E_SEED"};
  EnvGuard threads{"E2E_THREADS"};
  systems.set("77");
  seed.set("99");
  threads.set("3");

  const ScenarioDefaults defaults = ScenarioDefaults::load();
  EXPECT_EQ(defaults.figure_systems, 77);
  // Simulation figures fall back to the analysis count, then prefer the
  // SIM-specific override.
  EXPECT_EQ(defaults.figure_sim_systems, 77);
  EXPECT_EQ(defaults.figure_seed, 99u);
  EXPECT_EQ(defaults.threads, 3);

  sim_systems.set("33");
  EXPECT_EQ(ScenarioDefaults::load().figure_sim_systems, 33);
}

/// Expects `fn` to throw InvalidArgument whose message names `variable`.
template <typename Fn>
void expect_rejects(const char* variable, Fn&& fn) {
  try {
    fn();
    ADD_FAILURE() << variable << " was accepted";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string{e.what()}.find(variable), std::string::npos) << e.what();
  }
}

TEST(Defaults, IntRejectsTrailingGarbage) {
  EnvGuard guard{"E2E_TEST_INT"};
  guard.set("17abc");
  expect_rejects("E2E_TEST_INT", [] { (void)env_int("E2E_TEST_INT", 42); });
}

TEST(Defaults, IntRejectsScientificNotation) {
  // strtoll stops at the 'e': "1e3" used to plan 1 unit per cell.
  EnvGuard guard{"E2E_SYSTEMS_PER_CONFIG"};
  guard.set("1e3");
  expect_rejects("E2E_SYSTEMS_PER_CONFIG", [] { (void)ScenarioDefaults::load(); });
}

TEST(Defaults, IntRejectsOverflow) {
  EnvGuard guard{"E2E_SYSTEMS_PER_CONFIG"};
  // Fits int64 but not the int field (used to wrap to 1215752191).
  guard.set("99999999999");
  expect_rejects("E2E_SYSTEMS_PER_CONFIG", [] { (void)ScenarioDefaults::load(); });
  // Does not fit int64 at all.
  guard.set("99999999999999999999");
  expect_rejects("E2E_SYSTEMS_PER_CONFIG",
                 [] { (void)env_int("E2E_SYSTEMS_PER_CONFIG", 42); });
}

TEST(Defaults, DoubleRejectsTrailingGarbage) {
  EnvGuard guard{"E2E_HORIZON_PERIODS"};
  guard.set("2.5x");
  expect_rejects("E2E_HORIZON_PERIODS", [] { (void)ScenarioDefaults::load(); });
}

TEST(Defaults, SeedRejectsNegative) {
  EnvGuard guard{"E2E_SEED"};
  guard.set("-1");
  expect_rejects("E2E_SEED", [] { (void)ScenarioDefaults::load(); });
  guard.set("18446744073709551615");
  EXPECT_EQ(ScenarioDefaults::load().figure_seed, 18446744073709551615u);
}

ScenarioSpec parse_figure(const std::string& figure) {
  return parse_scenario(
      "e2esync-scenario v1\nscenario figure\nfigure " + figure + "\n",
      ScenarioDefaults::load());
}

TEST(Defaults, FigureSpecsPickUpOverrides) {
  EnvGuard systems{"E2E_SYSTEMS_PER_CONFIG"};
  EnvGuard sim_systems{"E2E_SIM_SYSTEMS_PER_CONFIG"};
  EnvGuard seed{"E2E_SEED"};
  EnvGuard horizon{"E2E_HORIZON_PERIODS"};
  systems.set("77");
  seed.set("99");
  horizon.set("12.5");

  const ScenarioSpec analysis = parse_figure("12");
  EXPECT_EQ(analysis.systems, 77);
  EXPECT_EQ(analysis.seed, 99u);
  EXPECT_DOUBLE_EQ(analysis.horizon_periods, 12.5);

  // Simulation figures fall back to the analysis count, then prefer the
  // SIM-specific override; the ablation halves whichever applies.
  EXPECT_EQ(parse_figure("14").systems, 77);
  EXPECT_EQ(parse_figure("ablation").systems, 38);
  sim_systems.set("33");
  EXPECT_EQ(parse_figure("14").systems, 33);
  EXPECT_EQ(parse_figure("13").systems, 77);
  EXPECT_EQ(parse_figure("ablation").systems, 16);
  sim_systems.set("3");
  EXPECT_EQ(parse_figure("ablation").systems, 2);
}

TEST(Defaults, FigureSpecDefaultsDifferByFigureKind) {
  EnvGuard systems{"E2E_SYSTEMS_PER_CONFIG"};
  EnvGuard sim_systems{"E2E_SIM_SYSTEMS_PER_CONFIG"};
  // Analysis-only figures default to more systems per cell than the
  // simulation figures, because analysis is much cheaper.
  for (const char* figure : {"12", "13"}) {
    EXPECT_EQ(parse_figure(figure).systems, 200) << figure;
    EXPECT_FALSE(simulation_figure(parse_figure(figure).figure)) << figure;
  }
  for (const char* figure : {"14", "15", "16", "overhead", "jitter"}) {
    EXPECT_EQ(parse_figure(figure).systems, 50) << figure;
    EXPECT_TRUE(simulation_figure(parse_figure(figure).figure)) << figure;
  }
  EXPECT_EQ(parse_figure("ablation").systems, 25);
  EXPECT_TRUE(simulation_figure(FigureKind::kAblation));
  // An explicit key always wins over the computed default.
  EXPECT_EQ(parse_scenario("e2esync-scenario v1\nscenario figure\n"
                           "figure ablation\nsystems 7\n",
                           ScenarioDefaults{})
                .systems,
            7);
}

}  // namespace
}  // namespace e2e
