#include "admission/controller.h"

#include <algorithm>
#include <bit>
#include <span>
#include <utility>
#include <vector>

#include "common/hash.h"

namespace e2e::admission {
namespace {

/// Structural validation of an admit spec; returns an error message or
/// empty. Runs before any engine sees the spec, so engines can assume
/// well-formed inputs.
std::string validate(const TaskSpec& spec, std::size_t processors) {
  if (spec.period <= 0) return "period must be > 0";
  if (spec.deadline < 0) return "deadline must be >= 0";
  if (spec.phase < 0) return "phase must be >= 0";
  if (spec.release_jitter < 0) return "jitter must be >= 0";
  if (spec.subtasks.empty()) return "at least one sub=proc:exec:prio required";
  for (const SubtaskSpec& sub : spec.subtasks) {
    if (sub.processor < 0 || static_cast<std::size_t>(sub.processor) >= processors) {
      return "sub processor " + std::to_string(sub.processor) +
             " out of range (have " + std::to_string(processors) + ")";
    }
    if (sub.execution_time <= 0) return "sub execution time must be > 0";
    if (sub.priority_level < 0) return "sub priority must be >= 0";
  }
  return {};
}

/// The decisive subtask of a failing task: the first unbounded entry, or
/// (all finite, the EER simply exceeds the deadline) the largest bound.
/// Pure function of the bound vector, so both engine families agree.
std::size_t decisive_subtask(std::span<const Duration> bounds) {
  for (std::size_t j = 0; j < bounds.size(); ++j) {
    if (is_infinite(bounds[j])) return j;
  }
  const auto it = std::max_element(bounds.begin(), bounds.end());
  return it == bounds.end() ? 0 : static_cast<std::size_t>(it - bounds.begin());
}

std::string format_bound(Duration bound) {
  return is_infinite(bound) ? "unbounded" : std::to_string(bound);
}

/// Copies a failed trial's detail into `outcome`: the failing task
/// `culprit`, its decisive subtask with that subtask's processor and
/// bound, and the task's EER and deadline.
void fill_culprit(Outcome& outcome, const TrialFailure& failure, const TaskSpec& culprit) {
  const std::size_t j = decisive_subtask(failure.subtask_bounds);
  outcome.culprit_task = culprit.name;
  outcome.culprit_is_candidate = failure.is_candidate;
  outcome.culprit_subtask = static_cast<int>(j);
  outcome.culprit_processor =
      j < culprit.subtasks.size() ? culprit.subtasks[j].processor : -1;
  outcome.culprit_bound =
      j < failure.subtask_bounds.size() ? failure.subtask_bounds[j] : kTimeInfinity;
  outcome.culprit_eer = failure.eer;
  outcome.culprit_deadline = failure.deadline;
}

/// "task 'X' eer E > deadline D", from fill_culprit's fields.
std::string culprit_summary(const Outcome& outcome) {
  return "task '" + outcome.culprit_task + "' eer " + format_bound(outcome.culprit_eer) +
         " > deadline " + std::to_string(outcome.culprit_deadline);
}

/// " (subtask J on processor P, bound B)", from fill_culprit's fields.
std::string culprit_location(const Outcome& outcome) {
  return " (subtask " + std::to_string(outcome.culprit_subtask) + " on processor " +
         std::to_string(outcome.culprit_processor) + ", bound " +
         format_bound(outcome.culprit_bound) + ")";
}

}  // namespace

const char* to_string(ReasonCode reason) noexcept {
  switch (reason) {
    case ReasonCode::kNone: return "ok";
    case ReasonCode::kParseError: return "parse-error";
    case ReasonCode::kValidation: return "validation";
    case ReasonCode::kDuplicateName: return "duplicate-name";
    case ReasonCode::kUnknownTask: return "unknown-task";
    case ReasonCode::kUtilization: return "utilization";
    case ReasonCode::kBoundFailure: return "bound-failure";
    case ReasonCode::kQueued: return "queued";
    case ReasonCode::kBatchError: return "batch-error";
  }
  return "?";
}

AdmissionController::AdmissionController(const ControllerOptions& options)
    : options_(options),
      state_(options.processors),
      engine_(make_engine(options.policy, options.full_recompute)),
      decision_cache_(options.decision_cache_capacity) {}

Outcome AdmissionController::submit(const Request& request) {
  if (!request.ok()) {
    Outcome outcome;
    outcome.verb = request.verb;
    outcome.reason = ReasonCode::kParseError;
    outcome.message = request.parse_error;
    outcome.task_name = request.task.name;
    outcome.live_tasks = state_.task_count();
    fold_outcome(outcome);
    return outcome;
  }
  switch (request.verb) {
    case Verb::kAdmit: return admit(request.task);
    case Verb::kRemove: return remove(request.task.name);
    case Verb::kQuery: return query();
    case Verb::kBatchBegin: return batch_begin();
    case Verb::kBatchCommit: return batch_commit();
  }
  return {};
}

Outcome AdmissionController::admit(TaskSpec spec) {
  Outcome outcome;
  outcome.verb = Verb::kAdmit;
  outcome.task_name = spec.name;

  if (std::string error = validate(spec, state_.processor_count()); !error.empty()) {
    outcome.reason = ReasonCode::kValidation;
    outcome.message = std::move(error);
    outcome.live_tasks = state_.task_count();
    fold_outcome(outcome);
    return outcome;
  }
  if (spec.deadline == 0) spec.deadline = spec.period;  // grammar default

  const bool duplicate_pending =
      in_batch_ &&
      std::any_of(pending_batch_.begin(), pending_batch_.end(),
                  [&](const TaskSpec& p) { return p.name == spec.name; });
  if (state_.slot_of(spec.name).has_value() || duplicate_pending) {
    outcome.reason = ReasonCode::kDuplicateName;
    outcome.message = duplicate_pending
                          ? "a queued batch admit is already named '" + spec.name + "'"
                          : "a live task is already named '" + spec.name + "'";
    outcome.live_tasks = state_.task_count();
    fold_outcome(outcome);
    return outcome;
  }

  // Utilization precheck: demand on a processor with utilization > 1
  // outgrows every busy-period window, so the analysis verdict is a
  // foregone rejection -- skip the fixpoints and name the processor.
  // Inside an open batch the queued admits count toward the sum, so a
  // batch can never be committed into a structurally infeasible system.
  std::vector<double> added(state_.processor_count(), 0.0);
  for (const SubtaskSpec& sub : spec.subtasks) {
    added[static_cast<std::size_t>(sub.processor)] +=
        static_cast<double>(sub.execution_time) / static_cast<double>(spec.period);
  }
  if (in_batch_) {
    for (const TaskSpec& p : pending_batch_) {
      for (const SubtaskSpec& sub : p.subtasks) {
        added[static_cast<std::size_t>(sub.processor)] +=
            static_cast<double>(sub.execution_time) / static_cast<double>(p.period);
      }
    }
  }
  for (std::size_t p = 0; p < added.size(); ++p) {
    if (added[p] == 0.0 || state_.utilization(p) + added[p] <= 1.0 + 1e-9) continue;
    outcome.reason = ReasonCode::kUtilization;
    outcome.culprit_processor = static_cast<int>(p);
    outcome.message = "processor " + std::to_string(p) +
                      " utilization would exceed 1";
    outcome.live_tasks = state_.task_count();
    fold_outcome(outcome);
    return outcome;
  }

  if (in_batch_) return queue_in_batch(std::move(spec));
  return admit_checked(std::move(spec));
}

Outcome AdmissionController::queue_in_batch(TaskSpec&& spec) {
  Outcome outcome;
  outcome.verb = Verb::kAdmit;
  outcome.task_name = spec.name;
  outcome.reason = ReasonCode::kQueued;
  outcome.live_tasks = state_.task_count();
  outcome.message = "queued '" + spec.name + "' (batch position " +
                    std::to_string(pending_batch_.size()) + ")";
  pending_batch_.push_back(std::move(spec));
  fold_outcome(outcome);
  return outcome;
}

Outcome AdmissionController::batch_begin() {
  Outcome outcome;
  outcome.verb = Verb::kBatchBegin;
  outcome.live_tasks = state_.task_count();
  if (in_batch_) {
    outcome.reason = ReasonCode::kBatchError;
    outcome.message = "a batch is already open";
  } else {
    in_batch_ = true;
    outcome.accepted = true;
    outcome.message = "batch open";
  }
  fold_outcome(outcome);
  return outcome;
}

Outcome AdmissionController::batch_commit() {
  Outcome outcome;
  outcome.verb = Verb::kBatchCommit;
  outcome.live_tasks = state_.task_count();
  if (!in_batch_) {
    outcome.reason = ReasonCode::kBatchError;
    outcome.message = "no open batch";
    fold_outcome(outcome);
    return outcome;
  }
  in_batch_ = false;
  std::vector<TaskSpec> batch = std::move(pending_batch_);
  pending_batch_.clear();
  outcome.batch_size = batch.size();
  if (batch.empty()) {
    outcome.accepted = true;
    outcome.message = "batch empty";
    fold_outcome(outcome);
    return outcome;
  }

  // One analysis trajectory for the whole group, one commit-or-rollback.
  // Batch verdicts skip the decision cache: its key covers one spec, and
  // group verdicts are not worth a compound-key cache line.
  const std::uint32_t first_slot = state_.next_slot();
  const TrialVerdict verdict = engine_->admit_batch(state_, first_slot, batch);
  outcome.path = verdict.path;
  if (verdict.schedulable) {
    for (TaskSpec& spec : batch) {
      (void)state_.commit_admit(spec);
    }
    outcome.accepted = true;
    outcome.slot = first_slot;
    outcome.live_tasks = state_.task_count();
    outcome.message = "admitted batch of " + std::to_string(batch.size());
    fold_outcome(outcome);
    return outcome;
  }

  const TrialFailure& failure = *verdict.failure;
  fill_culprit(outcome, failure,
               failure.is_candidate ? batch[failure.slot - first_slot]
                                    : state_.spec(failure.slot));
  outcome.reason = ReasonCode::kBoundFailure;
  outcome.message = "rejected batch of " + std::to_string(batch.size()) + ": " +
                    culprit_summary(outcome) + culprit_location(outcome);
  fold_outcome(outcome);
  return outcome;
}

Outcome AdmissionController::admit_checked(TaskSpec&& spec) {
  // Analysis rejections are pure functions of (live set, candidate) --
  // exactly the cache key -- and leave the state untouched, so they are
  // the one outcome class worth memoizing: churny streams re-offer
  // recently bounced candidates against an unchanged system.
  const std::uint64_t key =
      hash_combine(state_.content_hash(), spec_content_hash(spec));
  if (const auto hit = decision_cache_.find(key)) {
    Outcome outcome = *hit;
    outcome.from_cache = true;
    outcome.path = PathRecord{.path = EnginePath::kCache};
    outcome.live_tasks = state_.task_count();
    fold_outcome(outcome);
    return outcome;
  }

  Outcome outcome;
  outcome.verb = Verb::kAdmit;
  outcome.task_name = spec.name;
  const TrialVerdict verdict =
      engine_->admit_batch(state_, state_.next_slot(), std::span<const TaskSpec>{&spec, 1});
  outcome.path = verdict.path;
  if (verdict.schedulable) {
    outcome.accepted = true;
    outcome.slot = state_.commit_admit(spec);
    outcome.live_tasks = state_.task_count();
    outcome.message = "admitted '" + spec.name + "'";
    fold_outcome(outcome);
    return outcome;
  }

  const TrialFailure& failure = *verdict.failure;
  fill_culprit(outcome, failure, failure.is_candidate ? spec : state_.spec(failure.slot));
  outcome.reason = ReasonCode::kBoundFailure;
  outcome.live_tasks = state_.task_count();
  outcome.message = "rejected '" + spec.name + "': " + culprit_summary(outcome) +
                    culprit_location(outcome);
  (void)decision_cache_.insert(key, std::make_shared<const Outcome>(outcome));
  fold_outcome(outcome);
  return outcome;
}

Outcome AdmissionController::remove(const std::string& name) {
  Outcome outcome;
  outcome.verb = Verb::kRemove;
  outcome.task_name = name;
  if (in_batch_) {
    outcome.reason = ReasonCode::kBatchError;
    outcome.message = "remove not allowed inside an open batch";
    outcome.live_tasks = state_.task_count();
    fold_outcome(outcome);
    return outcome;
  }
  const std::optional<std::uint32_t> slot = state_.slot_of(name);
  if (!slot.has_value()) {
    outcome.reason = ReasonCode::kUnknownTask;
    outcome.message = "no live task named '" + name + "'";
    outcome.live_tasks = state_.task_count();
    fold_outcome(outcome);
    return outcome;
  }

  const TrialVerdict verdict = engine_->remove(state_, *slot);
  outcome.path = verdict.path;
  state_.commit_remove(*slot);
  outcome.accepted = true;
  outcome.slot = *slot;
  outcome.live_tasks = state_.task_count();
  outcome.remaining_schedulable = verdict.schedulable;
  if (verdict.schedulable) {
    outcome.message = "removed '" + name + "'";
  } else {
    // Shrinking the set can still break bounds: SA/PM's divergence cap
    // is 300 x the max live period, so removing the longest-period task
    // tightens every fixpoint cap.
    fill_culprit(outcome, *verdict.failure, state_.spec(verdict.failure->slot));
    outcome.message =
        "removed '" + name + "'; remaining system unschedulable: " + culprit_summary(outcome);
  }
  fold_outcome(outcome);
  return outcome;
}

Outcome AdmissionController::query() {
  Outcome outcome;
  outcome.verb = Verb::kQuery;
  outcome.accepted = true;
  outcome.margin = engine_->margin();
  outcome.live_tasks = state_.task_count();
  outcome.message = "live " + std::to_string(outcome.live_tasks) + ", margin " +
                    std::to_string(outcome.margin);
  fold_outcome(outcome);
  return outcome;
}

std::uint64_t AdmissionController::result_hash() const {
  return engine_->fold_bounds(hash_);
}

void AdmissionController::fold_outcome(const Outcome& outcome) {
  // Everything semantic; `message`, `from_cache` and `path` are
  // reporting-only (a cache hit must fold identically to the
  // recomputation it stands for).
  hash_ = hash_combine(hash_, static_cast<std::uint64_t>(outcome.verb));
  hash_ = hash_combine(hash_, outcome.accepted ? 1u : 0u);
  hash_ = hash_combine(hash_, static_cast<std::uint64_t>(outcome.reason));
  hash_ = hash_combine(hash_, fnv1a64(outcome.task_name));
  hash_ = hash_combine(hash_, outcome.slot);
  hash_ = hash_combine(hash_, fnv1a64(outcome.culprit_task));
  hash_ = hash_combine(hash_, outcome.culprit_is_candidate ? 1u : 0u);
  hash_ = hash_combine(hash_, static_cast<std::uint64_t>(outcome.culprit_subtask));
  hash_ = hash_combine(hash_, static_cast<std::uint64_t>(outcome.culprit_processor));
  hash_ = hash_combine(hash_, static_cast<std::uint64_t>(outcome.culprit_bound));
  hash_ = hash_combine(hash_, static_cast<std::uint64_t>(outcome.culprit_eer));
  hash_ = hash_combine(hash_, static_cast<std::uint64_t>(outcome.culprit_deadline));
  hash_ = hash_combine(hash_, std::bit_cast<std::uint64_t>(outcome.margin));
  hash_ = hash_combine(hash_, outcome.live_tasks);
  hash_ = hash_combine(hash_, outcome.remaining_schedulable ? 1u : 0u);
  // Periodically pin the full bound tables into the running hash, so a
  // wrong *bound* (not just a wrong verdict) cannot hide behind equal
  // accept/reject sequences.
  if (++requests_ % 64 == 0) hash_ = engine_->fold_bounds(hash_);
}

}  // namespace e2e::admission
