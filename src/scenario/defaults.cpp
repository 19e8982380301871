#include "scenario/defaults.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <limits>

#include "common/error.h"

namespace e2e {
namespace {

/// The variable's value, or nullptr when it is unset or empty.
const char* env_value(const std::string& name) {
  const char* value = std::getenv(name.c_str());
  return value == nullptr || *value == '\0' ? nullptr : value;
}

[[noreturn]] void reject(const std::string& name, const char* value,
                         const char* problem) {
  throw InvalidArgument(name + "='" + value + "': " + problem);
}

/// env_int narrowed to an int field.
int env_count(const std::string& name, int fallback) {
  const std::int64_t value = env_int(name, fallback);
  if (value < std::numeric_limits<int>::min() ||
      value > std::numeric_limits<int>::max()) {
    reject(name, env_value(name), "out of range");
  }
  return static_cast<int>(value);
}

/// Seeds span the full uint64 range.
std::uint64_t env_seed(std::uint64_t fallback) {
  const char* value = env_value("E2E_SEED");
  if (value == nullptr) return fallback;
  char* end = nullptr;
  errno = 0;
  const unsigned long long parsed = std::strtoull(value, &end, 10);
  if (std::isdigit(static_cast<unsigned char>(value[0])) == 0 || *end != '\0') {
    reject("E2E_SEED", value, "expected an unsigned integer");
  }
  if (errno == ERANGE) reject("E2E_SEED", value, "out of range");
  return parsed;
}

}  // namespace

std::int64_t env_int(const std::string& name, std::int64_t fallback) {
  const char* value = env_value(name);
  if (value == nullptr) return fallback;
  char* end = nullptr;
  errno = 0;
  const std::int64_t parsed = std::strtoll(value, &end, 10);
  if (end == value || *end != '\0') reject(name, value, "expected an integer");
  if (errno == ERANGE) reject(name, value, "out of range");
  return parsed;
}

double env_double(const std::string& name, double fallback) {
  const char* value = env_value(name);
  if (value == nullptr) return fallback;
  char* end = nullptr;
  errno = 0;
  const double parsed = std::strtod(value, &end);
  if (end == value || *end != '\0') reject(name, value, "expected a number");
  if (errno == ERANGE || !std::isfinite(parsed)) reject(name, value, "out of range");
  return parsed;
}

ScenarioDefaults ScenarioDefaults::load() {
  ScenarioDefaults d;
  d.threads = env_count("E2E_THREADS", d.threads);

  d.mc_seed = env_seed(d.mc_seed);
  d.mc_runs = env_count("E2E_MC_RUNS", d.mc_runs);
  d.mc_horizon_periods = env_double("E2E_HORIZON_PERIODS", d.mc_horizon_periods);
  d.mc_subtasks = env_count("E2E_MC_SUBTASKS", d.mc_subtasks);
  d.mc_utilization = env_count("E2E_MC_UTILIZATION", d.mc_utilization);
  d.bench_mc_runs = env_count("E2E_MC_RUNS", d.bench_mc_runs);

  d.sweep_seed = env_seed(d.sweep_seed);
  d.sweep_systems = env_count("E2E_SYSTEMS_PER_CONFIG", d.sweep_systems);
  d.sweep_horizon_periods =
      env_double("E2E_HORIZON_PERIODS", d.sweep_horizon_periods);

  d.fault_seed = env_seed(d.fault_seed);
  d.fault_systems = env_count("E2E_FAULT_SYSTEMS", d.fault_systems);
  d.fault_horizon_periods =
      env_double("E2E_HORIZON_PERIODS", d.fault_horizon_periods);
  d.fault_subtasks = env_count("E2E_FAULT_SUBTASKS", d.fault_subtasks);
  d.fault_utilization = env_count("E2E_FAULT_UTILIZATION", d.fault_utilization);

  d.breakdown_seed = env_seed(d.breakdown_seed);
  d.breakdown_systems = env_count("E2E_BREAKDOWN_SYSTEMS", d.breakdown_systems);

  d.figure_seed = env_seed(d.figure_seed);
  d.figure_horizon_periods =
      env_double("E2E_HORIZON_PERIODS", d.figure_horizon_periods);
  d.figure_systems = env_count("E2E_SYSTEMS_PER_CONFIG", d.figure_systems);
  d.figure_sim_systems =
      env_count("E2E_SIM_SYSTEMS_PER_CONFIG",
                env_count("E2E_SYSTEMS_PER_CONFIG", d.figure_sim_systems));

  d.analysis_seed = env_seed(d.analysis_seed);
  d.analysis_systems = env_count("E2E_ANALYSIS_SYSTEMS", d.analysis_systems);
  d.analysis_subtasks = env_count("E2E_ANALYSIS_SUBTASKS", d.analysis_subtasks);
  d.analysis_utilization =
      env_count("E2E_ANALYSIS_UTILIZATION", d.analysis_utilization);
  d.analysis_repeats = env_count("E2E_ANALYSIS_REPEATS", d.analysis_repeats);
  d.hopa_systems = env_count("E2E_HOPA_SYSTEMS", d.hopa_systems);
  d.hopa_iters = env_count("E2E_HOPA_ITERS", d.hopa_iters);
  d.sensitivity_systems =
      env_count("E2E_SENSITIVITY_SYSTEMS", d.sensitivity_systems);

  d.admission_seed = env_seed(d.admission_seed);
  d.admission_processors =
      env_count("E2E_ADMIT_PROCESSORS", d.admission_processors);
  d.admission_initial_tasks =
      env_count("E2E_ADMIT_INITIAL_TASKS", d.admission_initial_tasks);
  d.admission_requests = env_count("E2E_ADMIT_REQUESTS", d.admission_requests);
  d.admission_shards = env_count("E2E_ADMIT_SHARDS", d.admission_shards);
  d.admission_shard_requests =
      env_count("E2E_ADMIT_SHARD_REQUESTS", d.admission_shard_requests);
  return d;
}

}  // namespace e2e
