#include "sim/fault/fault_plan.h"

#include "common/args.h"
#include "common/error.h"
#include "common/number.h"

namespace e2e {
namespace {

std::string fault_key(const std::string& key) { return "fault key '" + key + "'"; }

double parse_probability(const std::string& key, const std::string& value) {
  const double parsed = read_number<double>(value, fault_key(key));
  if (!(parsed >= 0.0 && parsed <= 1.0)) {
    throw InvalidArgument(fault_key(key) + " expects a probability in [0, 1], got '" +
                          value + "'");
  }
  return parsed;
}

std::int64_t parse_ticks(const std::string& key, const std::string& value) {
  const std::int64_t parsed = read_number<std::int64_t>(value, fault_key(key));
  if (parsed < 0) {
    throw InvalidArgument(fault_key(key) + " must be non-negative, got '" + value + "'");
  }
  return parsed;
}

}  // namespace

bool FaultPlan::enabled() const noexcept {
  return clock_offset_max != 0 || drift_ppm_max != 0 || signal_loss_prob > 0.0 ||
         signal_delay_max != 0 || signal_duplicate_prob > 0.0 ||
         timer_jitter_max != 0 || (stall_prob > 0.0 && stall_max != 0) ||
         sync_loss_prob > 0.0 || partition_for != 0 || source_down_for != 0;
}

void FaultPlan::validate() const {
  const auto check_prob = [](double p, const char* name) {
    if (!(p >= 0.0 && p <= 1.0)) {
      throw InvalidArgument(std::string{"fault plan: "} + name +
                            " must be a probability in [0, 1]");
    }
  };
  const auto check_ticks = [](Duration d, const char* name) {
    if (d < 0) {
      throw InvalidArgument(std::string{"fault plan: "} + name +
                            " must be non-negative ticks");
    }
  };
  check_prob(signal_loss_prob, "signal_loss_prob");
  check_prob(signal_duplicate_prob, "signal_duplicate_prob");
  check_prob(stall_prob, "stall_prob");
  check_prob(sync_loss_prob, "sync_loss_prob");
  check_ticks(clock_offset_max, "clock_offset_max");
  check_ticks(signal_delay_max, "signal_delay_max");
  check_ticks(timer_jitter_max, "timer_jitter_max");
  check_ticks(stall_max, "stall_max");
  check_ticks(partition_at, "partition_at");
  check_ticks(partition_for, "partition_for");
  check_ticks(source_down_at, "source_down_at");
  check_ticks(source_down_for, "source_down_for");
  if (drift_ppm_max < 0) {
    throw InvalidArgument("fault plan: drift_ppm_max must be non-negative");
  }
  if (drift_ppm_max >= 1'000'000) {
    throw InvalidArgument("fault plan: drift_ppm_max must be below 1e6 "
                          "(a clock cannot drift past real time)");
  }
  if (stall_prob > 0.0 && stall_max == 0) {
    throw InvalidArgument("fault plan: stall_prob needs a positive stall "
                          "duration (set 'stall')");
  }
}

std::vector<std::pair<std::string, std::string>> fault_plan_keys() {
  return {
      {"seed", "fault stream seed (default 1)"},
      {"offset", "max per-processor clock offset, ticks"},
      {"drift-ppm", "max per-processor clock drift, ppm"},
      {"loss-prob", "sync-signal loss probability [0,1]"},
      {"delay", "max sync-signal delivery delay, ticks"},
      {"dup-prob", "sync-signal duplication probability [0,1]"},
      {"timer-jitter", "max timer lateness, ticks"},
      {"stall-prob", "per-job transient stall probability [0,1]"},
      {"stall", "max stall duration, ticks"},
      {"sync-loss-prob", "extra loss on time-service exchanges [0,1]"},
      {"partition-at", "partition window start, ticks"},
      {"partition-for", "partition window length, ticks"},
      {"source-down-at", "primary-source outage start, ticks"},
      {"source-down-for", "primary-source outage length, ticks"},
  };
}

std::string write_fault_plan(const FaultPlan& plan) {
  std::string spec;
  const auto emit = [&](const char* key, const std::string& value) {
    if (!spec.empty()) spec += ',';
    spec += key;
    spec += '=';
    spec += value;
  };
  if (plan.seed != FaultPlan{}.seed) emit("seed", std::to_string(plan.seed));
  if (plan.clock_offset_max != 0) {
    emit("offset", std::to_string(plan.clock_offset_max));
  }
  if (plan.drift_ppm_max != 0) emit("drift-ppm", std::to_string(plan.drift_ppm_max));
  if (plan.signal_loss_prob != 0.0) {
    emit("loss-prob", fmt_shortest(plan.signal_loss_prob));
  }
  if (plan.signal_delay_max != 0) emit("delay", std::to_string(plan.signal_delay_max));
  if (plan.signal_duplicate_prob != 0.0) {
    emit("dup-prob", fmt_shortest(plan.signal_duplicate_prob));
  }
  if (plan.timer_jitter_max != 0) {
    emit("timer-jitter", std::to_string(plan.timer_jitter_max));
  }
  if (plan.stall_prob != 0.0) emit("stall-prob", fmt_shortest(plan.stall_prob));
  if (plan.stall_max != 0) emit("stall", std::to_string(plan.stall_max));
  if (plan.sync_loss_prob != 0.0) {
    emit("sync-loss-prob", fmt_shortest(plan.sync_loss_prob));
  }
  if (plan.partition_at != 0) {
    emit("partition-at", std::to_string(plan.partition_at));
  }
  if (plan.partition_for != 0) {
    emit("partition-for", std::to_string(plan.partition_for));
  }
  if (plan.source_down_at != 0) {
    emit("source-down-at", std::to_string(plan.source_down_at));
  }
  if (plan.source_down_for != 0) {
    emit("source-down-for", std::to_string(plan.source_down_for));
  }
  return spec.empty() ? "-" : spec;
}

FaultPlan parse_fault_plan(const std::string& spec) {
  FaultPlan plan;
  if (spec == "-") return plan;  // the writer's token for an inert plan
  std::vector<std::string> seen;
  for (const auto& [key, value] : split_key_values(spec)) {
    for (const auto& earlier : seen) {
      if (earlier == key) {
        throw InvalidArgument("duplicate fault key '" + key +
                              "' (each key may appear at most once)");
      }
    }
    seen.push_back(key);
    if (key == "seed") {
      plan.seed = read_number<std::uint64_t>(value, fault_key(key));
    } else if (key == "offset") {
      plan.clock_offset_max = parse_ticks(key, value);
    } else if (key == "drift-ppm") {
      plan.drift_ppm_max = parse_ticks(key, value);
    } else if (key == "loss-prob") {
      plan.signal_loss_prob = parse_probability(key, value);
    } else if (key == "delay") {
      plan.signal_delay_max = parse_ticks(key, value);
    } else if (key == "dup-prob") {
      plan.signal_duplicate_prob = parse_probability(key, value);
    } else if (key == "timer-jitter") {
      plan.timer_jitter_max = parse_ticks(key, value);
    } else if (key == "stall-prob") {
      plan.stall_prob = parse_probability(key, value);
    } else if (key == "stall") {
      plan.stall_max = parse_ticks(key, value);
    } else if (key == "sync-loss-prob") {
      plan.sync_loss_prob = parse_probability(key, value);
    } else if (key == "partition-at") {
      plan.partition_at = parse_ticks(key, value);
    } else if (key == "partition-for") {
      plan.partition_for = parse_ticks(key, value);
    } else if (key == "source-down-at") {
      plan.source_down_at = parse_ticks(key, value);
    } else if (key == "source-down-for") {
      plan.source_down_for = parse_ticks(key, value);
    } else {
      std::vector<std::string> known;
      for (const auto& [k, _] : fault_plan_keys()) known.push_back(k);
      throw InvalidArgument("unknown fault key '" + key +
                            "' (known: " + format_known_keys(known) + ")");
    }
  }
  plan.validate();
  return plan;
}

}  // namespace e2e
