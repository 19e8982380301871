// The full-recompute engine: rebuild the TaskSystem and rerun the
// offline analysis on every request. It is the semantics-defining
// baseline the incremental engines are benchmarked (and property-
// tested) against, so it stays deliberately free of cleverness.
#include <algorithm>
#include <utility>

#include "admission/engine_internal.h"
#include "core/analysis/holistic.h"
#include "core/analysis/sa_ds.h"
#include "core/analysis/sa_pm.h"

namespace e2e::admission {
namespace {

class FullEngine final : public Engine {
 public:
  explicit FullEngine(Policy policy) : policy_(policy) {}

  TrialVerdict admit(const SystemState& state, std::uint32_t slot,
                     const TaskSpec& spec) override {
    return admit_batch(state, slot, std::span<const TaskSpec>{&spec, 1});
  }

  TrialVerdict admit_batch(const SystemState& state, std::uint32_t first_slot,
                           std::span<const TaskSpec> specs) override {
    const SystemState::Built built =
        state.build_with_batch(specs, first_slot, std::nullopt);
    PathRecord path{.path = EnginePath::kFull};
    const AnalysisResult result = analyze(built.system, path);
    if (!result.system_schedulable()) {
      return {false, failure_of(built, result, first_slot), path};
    }
    store(built, result);
    return {true, std::nullopt, path};
  }

  TrialVerdict remove(const SystemState& state, std::uint32_t slot) override {
    if (state.task_count() <= 1) {  // removing the last task: empty system
      slots_.clear();
      eers_.clear();
      deadlines_.clear();
      bounds_.clear();
      return {true, std::nullopt};
    }
    const SystemState::Built built = state.build_with(nullptr, 0, slot);
    PathRecord path{.path = EnginePath::kFull};
    const AnalysisResult result = analyze(built.system, path);
    store(built, result);  // removal always commits
    if (result.system_schedulable()) return {true, std::nullopt, path};
    return {false, failure_of(built, result, std::nullopt), path};
  }

  std::uint64_t fold_bounds(std::uint64_t acc) const override {
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      acc = detail::fold_task_bounds(acc, eers_[i], bounds_[i]);
    }
    return acc;
  }

  double margin() const override {
    double worst = 0.0;
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      worst = std::max(worst, detail::margin_ratio(eers_[i], deadlines_[i]));
    }
    return worst;
  }

  const char* name() const noexcept override { return "full-recompute"; }

 private:
  /// The policy's offline analysis; records its entry solves in `path`
  /// (SA/PM solves each subtask equation once).
  [[nodiscard]] AnalysisResult analyze(const TaskSystem& system, PathRecord& path) const {
    SaDsResult ds;
    switch (policy_) {
      case Policy::kPm:
        path.evaluations = system.subtask_count();
        return analyze_sa_pm(system);
      case Policy::kDs: ds = analyze_sa_ds(system); break;
      case Policy::kHolistic: ds = analyze_holistic_ds(system); break;
    }
    path.evaluations = ds.evaluations;
    return std::move(ds.analysis);
  }

  void store(const SystemState::Built& built, const AnalysisResult& result) {
    slots_ = built.slots;
    const std::size_t n = built.system.task_count();
    eers_.assign(n, 0);
    deadlines_.assign(n, 0);
    bounds_.assign(n, {});
    for (const Task& t : built.system.tasks()) {
      const std::size_t i = t.id.index();
      eers_[i] = result.eer_bounds[i];
      deadlines_[i] = t.relative_deadline;
      bounds_[i].reserve(t.subtasks.size());
      for (const Subtask& s : t.subtasks) {
        bounds_[i].push_back(result.subtask_bounds.at(s.ref));
      }
    }
  }

  /// Rejection detail from the first unschedulable task in build order.
  /// `first_candidate_slot`: any slot at or above it is a trial
  /// candidate (candidates always take the top slots of a build).
  [[nodiscard]] TrialFailure failure_of(
      const SystemState::Built& built, const AnalysisResult& result,
      std::optional<std::uint32_t> first_candidate_slot) {
    TrialFailure failure;
    failure_bounds_.clear();
    for (const Task& t : built.system.tasks()) {
      if (result.task_schedulable[t.id.index()]) continue;
      failure.slot = built.slots[t.id.index()];
      failure.is_candidate =
          first_candidate_slot.has_value() && failure.slot >= *first_candidate_slot;
      failure.eer = result.eer_bounds[t.id.index()];
      failure.deadline = t.relative_deadline;
      for (const Subtask& s : t.subtasks) {
        failure_bounds_.push_back(result.subtask_bounds.at(s.ref));
      }
      failure.subtask_bounds = failure_bounds_;
      break;
    }
    return failure;
  }

  Policy policy_;
  // Committed tables, parallel vectors in build (ascending slot) order.
  std::vector<std::uint32_t> slots_;
  std::vector<Duration> eers_;
  std::vector<Duration> deadlines_;
  std::vector<std::vector<Duration>> bounds_;
  std::vector<Duration> failure_bounds_;  ///< backs the last TrialFailure
};

}  // namespace

namespace detail {
std::unique_ptr<Engine> make_full_engine(Policy policy) {
  return std::make_unique<FullEngine>(policy);
}
}  // namespace detail

std::unique_ptr<Engine> make_engine(Policy policy, bool full_recompute) {
  if (full_recompute) return detail::make_full_engine(policy);
  switch (policy) {
    case Policy::kPm: return detail::make_incremental_pm_engine();
    case Policy::kDs: return detail::make_incremental_ds_engine(false);
    case Policy::kHolistic: return detail::make_incremental_ds_engine(true);
  }
  return detail::make_full_engine(policy);
}

}  // namespace e2e::admission
