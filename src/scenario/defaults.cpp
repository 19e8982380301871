#include "scenario/defaults.h"

#include <cstdlib>

#include "common/error.h"
#include "common/number.h"

namespace e2e {
namespace {

/// The variable's value, or nullptr when it is unset or empty.
const char* env_value(const std::string& name) {
  const char* value = std::getenv(name.c_str());
  return value == nullptr || *value == '\0' ? nullptr : value;
}

[[noreturn]] void reject(const std::string& name, const char* value,
                         const std::string& problem) {
  throw InvalidArgument(name + "='" + value + "': " + problem);
}

/// The variable read by the rule of common/number.h, or `fallback`.
template <typename T>
T env_number(const std::string& name, T fallback) {
  const char* value = env_value(name);
  if (value == nullptr) return fallback;
  const ParsedNumber<T> parsed = parse_number<T>(value);
  if (parsed.status == NumberStatus::kMalformed) {
    reject(name, value, std::string{"expected "} + number_kind<T>());
  }
  if (parsed.status == NumberStatus::kOutOfRange) reject(name, value, "out of range");
  return parsed.value;
}

int env_count(const std::string& name, int fallback) {
  return env_number<int>(name, fallback);
}

std::uint64_t env_seed(std::uint64_t fallback) {
  return env_number<std::uint64_t>("E2E_SEED", fallback);
}

}  // namespace

std::int64_t env_int(const std::string& name, std::int64_t fallback) {
  return env_number<std::int64_t>(name, fallback);
}

double env_double(const std::string& name, double fallback) {
  return env_number<double>(name, fallback);
}

ScenarioDefaults ScenarioDefaults::load() {
  ScenarioDefaults d;
  d.threads = env_count("E2E_THREADS", d.threads);

  d.mc_seed = env_seed(d.mc_seed);
  d.mc_runs = env_count("E2E_MC_RUNS", d.mc_runs);
  d.mc_horizon_periods = env_double("E2E_HORIZON_PERIODS", d.mc_horizon_periods);

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
