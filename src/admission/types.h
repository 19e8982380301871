// Vocabulary of the online admission-control service (src/admission).
//
// An admission controller answers a stream of admit / remove / query
// requests against a growing-and-shrinking set of end-to-end tasks. A
// TaskSpec is the wire-level description of one candidate task -- the
// same fields TaskSystemBuilder::TaskParams and Subtask carry, but as a
// standalone value the controller can hash, validate, and store before
// any TaskSystem exists.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/time.h"

namespace e2e::admission {

/// Which schedulability analysis backs the verdicts.
enum class Policy : std::uint8_t {
  kPm,        ///< Algorithm SA/PM (PM / MPM / RG protocols)
  kDs,        ///< Algorithm SA/DS (DS protocol)
  kHolistic,  ///< SA/DS with best-case-refined jitter terms
};

[[nodiscard]] const char* to_string(Policy policy) noexcept;
/// Parses "pm" / "ds" / "holistic"; throws InvalidArgument otherwise.
[[nodiscard]] Policy parse_policy(const std::string& name);

/// The analysis path a verdict engine took for one request. Reporting
/// only: no verdict, bound or hash depends on it.
enum class EnginePath : std::uint8_t {
  kNone,              ///< no analysis ran (prechecks, queries, queued admits, emptying removes)
  kCache,             ///< the decision cache answered
  kWarm,              ///< delta re-analysis seeded from the committed tables
  kComponents,        ///< SA/DS remove: component-ordered re-solve of the dirty cone
  kColdCap,           ///< cold analysis: the divergence cap moved
  kColdNonconverged,  ///< cold analysis: the committed table had not converged
  kColdBudget,        ///< cold analysis: a delta run exhausted the pass budget
  kBootstrap,         ///< first admit(s) into an empty engine
  kFull,              ///< the full-recompute engine
};

[[nodiscard]] const char* to_string(EnginePath path) noexcept;

/// What an engine did for one request. The component counts are set
/// whenever a component re-solve ran: on kComponents, and on a
/// kColdBudget remove that fell back after one.
struct PathRecord {
  EnginePath path = EnginePath::kNone;
  /// Entry solves the request ran: IEERT entries under SA/DS and
  /// holistic, subtask equations under SA/PM; 0 when no analysis ran.
  std::uint64_t evaluations = 0;
  std::uint32_t cone = 0;      ///< entries in the dirty cone
  std::uint32_t resolved = 0;  ///< dependency components re-solved
  std::uint32_t skipped = 0;   ///< dependency components kept as they were
  std::uint32_t largest = 0;   ///< members of the largest re-solved component
  /// Entries whose equation the removal changed (the walk's roots): the
  /// rows that lost an interferer or whose blocking term fell.
  std::uint32_t forced = 0;
  /// The request compacted the SA/DS engine's retired rows away.
  bool compacted = false;
};

/// One stage of a candidate task (maps onto task/model.h's Subtask).
struct SubtaskSpec {
  int processor = -1;
  Duration execution_time = 0;
  int priority_level = 0;  ///< smaller = higher priority, as everywhere
  bool preemptible = true;
};

/// One candidate end-to-end task, as parsed off the request stream.
/// `deadline == 0` means "deadline = period" (normalized by the
/// controller before any engine sees the spec).
struct TaskSpec {
  std::string name;
  Duration period = 0;
  Time phase = 0;
  Duration deadline = 0;
  Duration release_jitter = 0;
  std::vector<SubtaskSpec> subtasks;
};

/// Order-dependent content hash of every TaskSpec field an analysis (or
/// the duplicate check) reads, names included via fnv1a64 so the value
/// is reproducible across processes.
[[nodiscard]] std::uint64_t spec_content_hash(const TaskSpec& spec) noexcept;

}  // namespace e2e::admission
