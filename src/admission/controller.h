// The in-process admission-control API.
//
// An AdmissionController owns one accepted task set (SystemState), one
// verdict engine, and a bounded decision cache, and answers admit /
// remove / query requests one at a time. Verdicts are deterministic
// functions of the request stream: two controllers -- full-recompute and
// incremental, or the same controller re-run -- fed the same stream
// produce byte-identical Outcome sequences and an identical running
// result hash, which is the identity bench_admission and the admission
// property test enforce.
//
// Admit pipeline, cheapest check first:
//   parse error -> spec validation -> duplicate name -> per-processor
//   utilization precheck (> 1 forces a divergent busy period, so the
//   analysis verdict is knowable without running it) -> decision cache
//   (keyed on state hash x spec hash; only analysis rejections are
//   cached, since accepts mutate the state) -> engine trial.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "admission/engine.h"
#include "admission/request.h"
#include "admission/state.h"
#include "admission/types.h"
#include "common/memo.h"

namespace e2e::admission {

/// Why a request was rejected (kNone on success). New values are
/// appended (never reordered): the numeric value feeds the result hash.
enum class ReasonCode : std::uint8_t {
  kNone,
  kParseError,     ///< malformed request line
  kValidation,     ///< spec violates a structural constraint
  kDuplicateName,  ///< admit: a live task already has this name
  kUnknownTask,    ///< remove: no live task has this name
  kUtilization,    ///< admit: a processor would exceed utilization 1
  kBoundFailure,   ///< admit: schedulability analysis rejected the system
  kQueued,         ///< admit inside an open batch: deferred to batch-commit
  kBatchError,     ///< batch verb misuse (nested begin, commit w/o begin, ...)
};

[[nodiscard]] const char* to_string(ReasonCode reason) noexcept;

/// The controller's answer to one request. Every field that feeds the
/// result hash is a pure function of the request stream; `from_cache`,
/// `path` and `message` are reporting-only.
struct Outcome {
  Verb verb = Verb::kQuery;
  bool accepted = false;
  ReasonCode reason = ReasonCode::kNone;
  std::string message;    ///< human-readable detail (not hashed)
  std::string task_name;  ///< the request's task, when it has one
  /// Accepted admit: the assigned slot. Accepted remove: the freed slot.
  std::uint32_t slot = 0;

  // Rejection-with-reason detail (kBoundFailure, and remove verdicts
  // where the remaining system is unschedulable): which task missed
  // which bound on which processor.
  std::string culprit_task;
  bool culprit_is_candidate = false;
  int culprit_subtask = -1;   ///< chain index of the decisive subtask
  int culprit_processor = -1; ///< that subtask's processor
  Duration culprit_bound = 0; ///< its (response or IEER) bound
  Duration culprit_eer = kTimeInfinity;
  Duration culprit_deadline = 0;

  double margin = 0.0;       ///< query: max EER/deadline over live tasks
  std::size_t live_tasks = 0;
  /// remove: whether the remaining system is schedulable (a removal can
  /// break SA/PM bounds by shrinking the divergence cap).
  bool remaining_schedulable = true;
  bool from_cache = false;  ///< served by the decision cache (not hashed)
  /// The engine path that decided the request (not hashed: the full and
  /// incremental engines reach the same verdicts by different paths).
  PathRecord path;
  /// batch-commit: number of queued admits decided by this outcome.
  /// Deliberately NOT folded into the result hash (it is derivable from
  /// the kQueued outcomes already folded), so streams without batch
  /// verbs hash exactly as they did before batching existed.
  std::size_t batch_size = 0;
};

struct ControllerOptions {
  Policy policy = Policy::kPm;
  std::size_t processors = 4;
  /// Use the full-recompute engine (the baseline) instead of the
  /// incremental one. Verdicts are identical either way.
  bool full_recompute = false;
  std::size_t decision_cache_capacity = 4096;
};

class AdmissionController {
 public:
  explicit AdmissionController(const ControllerOptions& options);

  /// Dispatches one parsed request.
  Outcome submit(const Request& request);

  Outcome admit(TaskSpec spec);
  Outcome remove(const std::string& name);
  [[nodiscard]] Outcome query();

  /// Opens a batch: subsequent admits are validated and queued (reason
  /// kQueued) instead of decided, until batch_commit() evaluates all of
  /// them through one engine trajectory with a single commit-or-rollback.
  /// Removals inside an open batch are refused (kBatchError) -- a batch
  /// is a pure admission group, not a transaction log.
  Outcome batch_begin();
  Outcome batch_commit();
  [[nodiscard]] bool in_batch() const noexcept { return in_batch_; }

  [[nodiscard]] const SystemState& state() const noexcept { return state_; }
  [[nodiscard]] const char* engine_name() const noexcept {
    return engine_->name();
  }
  /// Running fold of every outcome so far plus the engine's committed
  /// bound tables -- the cross-engine identity check.
  [[nodiscard]] std::uint64_t result_hash() const;
  [[nodiscard]] std::uint64_t cache_hits() const noexcept {
    return decision_cache_.hits();
  }
  [[nodiscard]] std::uint64_t cache_misses() const noexcept {
    return decision_cache_.misses();
  }
  /// The engine's persistent-structure hashes (nullopt for engines
  /// without any) -- the lockstep equivalence probe of the property test.
  [[nodiscard]] std::optional<Engine::StructureDigest> structure_digest() const {
    return engine_->structure_digest();
  }

 private:
  Outcome admit_checked(TaskSpec&& spec);
  Outcome queue_in_batch(TaskSpec&& spec);
  void fold_outcome(const Outcome& outcome);

  ControllerOptions options_;
  SystemState state_;
  std::unique_ptr<Engine> engine_;
  MemoTable<Outcome> decision_cache_;
  std::uint64_t hash_ = 0;
  std::uint64_t requests_ = 0;
  bool in_batch_ = false;
  std::vector<TaskSpec> pending_batch_;
};

}  // namespace e2e::admission
