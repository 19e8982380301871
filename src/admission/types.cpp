#include "admission/types.h"

#include "common/error.h"

namespace e2e::admission {

const char* to_string(Policy policy) noexcept {
  switch (policy) {
    case Policy::kPm: return "pm";
    case Policy::kDs: return "ds";
    case Policy::kHolistic: return "holistic";
  }
  return "?";
}

const char* to_string(EnginePath path) noexcept {
  switch (path) {
    case EnginePath::kNone: return "none";
    case EnginePath::kCache: return "cache";
    case EnginePath::kWarm: return "warm";
    case EnginePath::kComponents: return "components";
    case EnginePath::kColdCap: return "cold-cap";
    case EnginePath::kColdNonconverged: return "cold-nonconverged";
    case EnginePath::kColdBudget: return "cold-budget";
    case EnginePath::kBootstrap: return "bootstrap";
    case EnginePath::kFull: return "full";
  }
  return "?";
}

Policy parse_policy(const std::string& name) {
  if (name == "pm") return Policy::kPm;
  if (name == "ds") return Policy::kDs;
  if (name == "holistic") return Policy::kHolistic;
  throw InvalidArgument("unknown policy '" + name + "' (pm, ds, holistic)");
}

std::uint64_t spec_content_hash(const TaskSpec& spec) noexcept {
  std::uint64_t h = fnv1a64(spec.name);
  h = hash_combine(h, static_cast<std::uint64_t>(spec.period));
  h = hash_combine(h, static_cast<std::uint64_t>(spec.phase));
  h = hash_combine(h, static_cast<std::uint64_t>(spec.deadline));
  h = hash_combine(h, static_cast<std::uint64_t>(spec.release_jitter));
  for (const SubtaskSpec& sub : spec.subtasks) {
    h = hash_combine(h, static_cast<std::uint64_t>(sub.processor));
    h = hash_combine(h, static_cast<std::uint64_t>(sub.execution_time));
    h = hash_combine(h, static_cast<std::uint64_t>(sub.priority_level));
    h = hash_combine(h, sub.preemptible ? 1u : 2u);
  }
  return h;
}

}  // namespace e2e::admission
