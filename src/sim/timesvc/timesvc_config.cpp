#include "sim/timesvc/timesvc_config.h"

#include "common/args.h"
#include "common/error.h"
#include "common/number.h"

namespace e2e {
namespace {

std::int64_t parse_count(const std::string& key, const std::string& value) {
  const std::string subject = "timesvc key '" + key + "'";
  const std::int64_t parsed = read_number<std::int64_t>(value, subject);
  if (parsed < 0) {
    throw InvalidArgument(subject + " must be non-negative, got '" + value + "'");
  }
  return parsed;
}

}  // namespace

void TimeServiceConfig::validate() const {
  const auto check_rate = [](std::int64_t ppm, const char* name) {
    if (ppm < 0 || ppm >= 1'000'000) {
      throw InvalidArgument(std::string{"timesvc config: "} + name +
                            " must be in [0, 1e6) ppm");
    }
  };
  if (sync_interval < 0) {
    throw InvalidArgument("timesvc config: sync_interval must be non-negative");
  }
  if (backup_offset < 0) {
    throw InvalidArgument("timesvc config: backup_offset must be non-negative");
  }
  check_rate(max_slew_ppm, "max_slew_ppm");
  check_rate(holdover_ppm, "holdover_ppm");
  if (enabled() && max_slew_ppm == 0) {
    throw InvalidArgument("timesvc config: max_slew_ppm must be positive "
                          "(a servo that cannot slew never corrects)");
  }
  if (holdover_after < 1 || failover_after < 1) {
    throw InvalidArgument("timesvc config: holdover-after and failover-after "
                          "must be at least 1");
  }
}

std::vector<std::pair<std::string, std::string>> timesvc_config_keys() {
  return {
      {"interval", "ticks between sync exchanges (0 disables)"},
      {"slew-ppm", "max servo correction rate, ppm (default 50000)"},
      {"holdover-ppm", "uncertainty growth in holdover, ppm (default 1000)"},
      {"backup-offset", "backup-source disagreement, ticks (default 1000)"},
      {"holdover-after", "failed exchanges before holdover (default 2)"},
      {"failover-after", "silent primary polls before failover (default 3)"},
  };
}

std::string write_timesvc_config(const TimeServiceConfig& config) {
  const TimeServiceConfig defaults;
  std::string spec;
  const auto emit = [&](const char* key, std::int64_t value) {
    if (!spec.empty()) spec += ',';
    spec += key;
    spec += '=';
    spec += std::to_string(value);
  };
  if (config.sync_interval != defaults.sync_interval) {
    emit("interval", config.sync_interval);
  }
  if (config.max_slew_ppm != defaults.max_slew_ppm) {
    emit("slew-ppm", config.max_slew_ppm);
  }
  if (config.holdover_ppm != defaults.holdover_ppm) {
    emit("holdover-ppm", config.holdover_ppm);
  }
  if (config.backup_offset != defaults.backup_offset) {
    emit("backup-offset", config.backup_offset);
  }
  if (config.holdover_after != defaults.holdover_after) {
    emit("holdover-after", config.holdover_after);
  }
  if (config.failover_after != defaults.failover_after) {
    emit("failover-after", config.failover_after);
  }
  return spec.empty() ? "-" : spec;
}

TimeServiceConfig parse_timesvc_config(const std::string& spec) {
  TimeServiceConfig config;
  if (spec == "-") return config;  // the writer's token for the default
  std::vector<std::string> seen;
  for (const auto& [key, value] : split_key_values(spec)) {
    for (const auto& earlier : seen) {
      if (earlier == key) {
        throw InvalidArgument("duplicate timesvc key '" + key +
                              "' (each key may appear at most once)");
      }
    }
    seen.push_back(key);
    if (key == "interval") {
      config.sync_interval = parse_count(key, value);
    } else if (key == "slew-ppm") {
      config.max_slew_ppm = parse_count(key, value);
    } else if (key == "holdover-ppm") {
      config.holdover_ppm = parse_count(key, value);
    } else if (key == "backup-offset") {
      config.backup_offset = parse_count(key, value);
    } else if (key == "holdover-after") {
      config.holdover_after = parse_count(key, value);
    } else if (key == "failover-after") {
      config.failover_after = parse_count(key, value);
    } else {
      std::vector<std::string> known;
      for (const auto& [k, _] : timesvc_config_keys()) known.push_back(k);
      throw InvalidArgument("unknown timesvc key '" + key +
                            "' (known: " + format_known_keys(known) + ")");
    }
  }
  config.validate();
  return config;
}

}  // namespace e2e
