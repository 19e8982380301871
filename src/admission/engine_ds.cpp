// Incremental SA/DS (and holistic) verdict engine.
//
// SA/DS is a global Kleene iteration: the IEER table is the least
// fixpoint of cap o IEERT above the optimistic init, so unlike SA/PM
// there is no per-entry locality to exploit directly. What there is
// instead is the monotone-seed theorem: iterating the operator from ANY
// table sandwiched between the init and the new least fixpoint converges
// to exactly that fixpoint. The engine exploits it with fully persistent
// analysis structures -- nothing is rebuilt per request:
//
//  * one TaskSystem, grown/shrunk in place through the sanctioned
//    append_task/remove_task mutators (builder-identical layout);
//  * one InterferenceMap, delta-patched via apply_admit/apply_remove
//    with revert_admit tokens for rejected trials (bit-identical to
//    fresh construction -- the property tests pin content_hash());
//  * the committed converged SubtaskTable plus per-subtask fixpoint
//    warm seeds and the IEERT dependency lists, all delta-maintained
//    and swept IN PLACE by ieert_sweep (no per-pass table copy).
//
// Per-request seeding:
//
//  * admit (single or batch): demand only grows, so every old entry
//    under-approximates the new fixpoint. Survivors keep their values
//    and warm seeds; entries whose demand equation changed -- the
//    candidates' own and every resident on a processor a candidate
//    occupies (interference sets AND non-preemptive blocking terms live
//    there) -- are force-flagged, and the dependency tracking
//    propagates any growth transitively. The sweep journals pre-trial
//    values first-touch, so a rejected trial rolls back byte-for-byte.
//
//  * remove: demand shrinks, so old values OVER-approximate and must
//    not seed the affected entries. The engine resets exactly the dirty
//    cone -- the closure, under reverse IEERT dependencies, of the
//    entries on the departed task's processors -- to the optimistic
//    init with cold fixpoints; entries outside the cone provably keep
//    their exact old fixpoint values (no input of theirs changes).
//
//  * a divergence-cap change (2 x 300 x the max live period, so it
//    moves only when the maximum period changes) invalidates even
//    infinite entries in both directions; the engine falls back to a
//    cold analyze_sa_ds run over the SAME persistent structures, which
//    is byte-identical to the offline analysis the full engine runs --
//    including the trajectory-dependent table of a pass-budget blowout.
//    A non-converged committed state also forces the next request cold
//    (its mid-iteration bytes are not a valid monotone seed).
//
// Commit semantics: an accepted admit and every remove commit the
// table; a rejected admit restores the sweep journal, pops the
// candidate rows, and reverts the interference/dependency deltas,
// leaving the engine bit-identical to before the request.
#include <algorithm>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "admission/engine_internal.h"
#include "common/error.h"
#include "common/math.h"
#include "core/analysis/ieert.h"
#include "core/analysis/sa_ds.h"
#include "task/builder.h"

namespace e2e::admission {
namespace {

/// Spec -> Task, mirroring SystemState::build_with's builder mapping
/// (including the builder's default subtask names) so the persistent
/// system is interchangeable with a freshly built one.
Task task_from_spec(const TaskSpec& spec) {
  Task t;
  t.period = spec.period;
  t.phase = spec.phase;
  t.relative_deadline = spec.deadline;
  t.release_jitter = spec.release_jitter;
  t.name = spec.name;
  t.subtasks.reserve(spec.subtasks.size());
  for (std::size_t j = 0; j < spec.subtasks.size(); ++j) {
    const SubtaskSpec& sub = spec.subtasks[j];
    Subtask s;
    s.processor = ProcessorId{sub.processor};
    s.execution_time = sub.execution_time;
    s.priority = Priority{sub.priority_level};
    s.preemptible = sub.preemptible;
    s.name = t.name + "," + std::to_string(j + 1);
    t.subtasks.push_back(std::move(s));
  }
  return t;
}

void add_unique(std::vector<int>& processors, int p) {
  if (std::find(processors.begin(), processors.end(), p) == processors.end()) {
    processors.push_back(p);
  }
}

class IncrementalDsEngine final : public Engine {
 public:
  explicit IncrementalDsEngine(bool refine) : refine_(refine) {}

  TrialVerdict admit(const SystemState& state, std::uint32_t slot,
                     const TaskSpec& spec) override {
    return admit_batch(state, slot, std::span<const TaskSpec>{&spec, 1});
  }

  TrialVerdict admit_batch(const SystemState& state, std::uint32_t first_slot,
                           std::span<const TaskSpec> specs) override {
    E2E_ASSERT(!specs.empty(), "admit_batch: empty batch");
    if (!system_.has_value()) return bootstrap(state, first_slot, specs);

    const std::size_t old_tasks = system_->task_count();
    const std::size_t old_count = imap_.subtask_count();

    // -- Grow every persistent structure by the whole batch. --
    std::vector<InterferenceMap::AdmitDelta> imap_deltas;
    std::vector<std::pair<std::size_t, std::uint32_t>> dep_pushes;
    imap_deltas.reserve(specs.size());
    for (const TaskSpec& spec : specs) {
      system_->append_task(task_from_spec(spec));
      imap_deltas.push_back(imap_.apply_admit(*system_));
      // Residents that gained interferers gain their predecessors as
      // dependencies. The new dep flats all index candidate subtasks
      // (>= the resident's old dep entries), so plain push_back keeps
      // the lists deduplicated and in fresh-construction order. Earlier
      // batch members count as residents for later ones (flat >=
      // old_count); skip them -- every candidate row gets a freshly
      // built dep list below, after the whole batch is mapped.
      for (const auto& [flat, appended] : imap_deltas.back().appended) {
        if (flat >= old_count) continue;
        const std::span<const Interferer> hp = imap_.of(imap_.ref_of(flat));
        std::uint32_t pushed = 0;
        for (std::size_t k = hp.size() - appended; k < hp.size(); ++k) {
          if (hp[k].ref.index <= 0) continue;
          state_.deps[flat].push_back(static_cast<std::uint32_t>(
              imap_.flat_index(SubtaskRef{hp[k].ref.task, hp[k].ref.index - 1})));
          ++pushed;
        }
        if (pushed > 0) dep_pushes.emplace_back(flat, pushed);
      }
    }
    const std::size_t count = imap_.subtask_count();
    state_.deps.resize(count);
    state_.rdeps.resize(count);
    state_.warm.resize(count);
    for (std::size_t ti = old_tasks; ti < system_->task_count(); ++ti) {
      const Task& t = system_->tasks()[ti];
      table_.append_row(t.subtasks.size(), 0);
      Duration cumulative = 0;  // Figure 11 step 1: optimistic init
      for (const Subtask& s : t.subtasks) {
        cumulative += s.execution_time;
        table_.set(s.ref, cumulative);
        const std::size_t flat = imap_.flat_index(s.ref);
        state_.deps[flat] = ieert_table_inputs(imap_, s.ref, imap_.of(s.ref));
        state_.warm[flat] = IeertWarmEntry{};
      }
      slots_.push_back(first_slot + static_cast<std::uint32_t>(ti - old_tasks));
    }
    // Reverse index, kept ascending (what ieert_index_dependencies
    // builds): resident lists gain candidate readers at the tail in flat
    // order; the candidates' own lists are new and sorted once.
    for (const auto& [flat, pushed] : dep_pushes) {
      const std::vector<std::uint32_t>& list = state_.deps[flat];
      for (std::size_t k = list.size() - pushed; k < list.size(); ++k) {
        state_.rdeps[list[k]].push_back(static_cast<std::uint32_t>(flat));
      }
    }
    for (std::size_t f = old_count; f < count; ++f) {
      for (const std::uint32_t d : state_.deps[f]) {
        state_.rdeps[d].push_back(static_cast<std::uint32_t>(f));
      }
    }
    for (std::size_t f = old_count; f < count; ++f) {
      std::sort(state_.rdeps[f].begin(), state_.rdeps[f].end());
    }

    // -- One analysis trajectory over the grown structures. --
    const Time new_cap = cap_of(*system_);
    bool cold = new_cap != cap_ || !converged_;
    SubtaskTable pre_table;              // wholesale snapshot, cold trials only
    std::vector<IeertWarmEntry> pre_warm;
    bool trial_converged;
    if (cold) {
      pre_table = table_;
      pre_warm = state_.warm;
      trial_converged = run_cold();
    } else {
      // Equation-changed region: every subtask on a processor a
      // candidate occupies (candidates included -- their processors are
      // all touched). Interference sets and blocking terms there moved.
      std::vector<int> touched;
      for (const TaskSpec& spec : specs) {
        for (const SubtaskSpec& sub : spec.subtasks) add_unique(touched, sub.processor);
      }
      arm_sweep(touched);
      undo_.arm(count);
      trial_converged = sweep_to_fixpoint(&undo_);
      if (!trial_converged) {
        // Pass-budget blowout: reconstruct the pre-trial snapshot from
        // the journal, then run the cold trajectory (the only one whose
        // mid-iteration bytes match the offline analyze_sa_ds).
        pre_table = table_;
        pre_warm = state_.warm;
        for (const IeertSweepUndo::Entry& e : undo_.entries) {
          pre_table.set(e.ref, e.value);
          pre_warm[e.flat] = e.warm;
        }
        cold = true;
        trial_converged = run_cold();
      }
    }

    refresh_outcomes(trial_converged);
    if (all_schedulable()) {
      cap_ = new_cap;
      converged_ = trial_converged;
      return {true, std::nullopt};
    }

    // -- Reject: restore everything byte-for-byte. --
    TrialFailure failure = failure_of(first_slot);
    if (cold) {
      table_ = std::move(pre_table);
      state_.warm = std::move(pre_warm);
    } else {
      for (const IeertSweepUndo::Entry& e : undo_.entries) {
        table_.set(e.ref, e.value);
        state_.warm[e.flat] = e.warm;
      }
    }
    for (std::size_t k = specs.size(); k-- > 0;) {
      table_.remove_row(old_tasks + k);
      system_->remove_task(old_tasks + k);
    }
    for (std::size_t f = old_count; f < count; ++f) {
      for (const std::uint32_t d : state_.deps[f]) {
        if (d >= old_count) continue;
        std::vector<std::uint32_t>& readers = state_.rdeps[d];
        while (!readers.empty() && readers.back() >= old_count) readers.pop_back();
      }
    }
    state_.warm.resize(old_count);
    state_.deps.resize(old_count);
    state_.rdeps.resize(old_count);
    for (const auto& [flat, pushed] : dep_pushes) {
      state_.deps[flat].resize(state_.deps[flat].size() - pushed);
    }
    for (auto it = imap_deltas.rbegin(); it != imap_deltas.rend(); ++it) {
      imap_.revert_admit(*it);
    }
    slots_.resize(old_tasks);
    refresh_outcomes(converged_);
    return {false, std::move(failure)};
  }

  TrialVerdict remove(const SystemState& state, std::uint32_t slot) override {
    if (state.task_count() <= 1) {  // removing the last task: empty system
      reset_empty();
      return {true, std::nullopt};
    }
    const auto it = std::find(slots_.begin(), slots_.end(), slot);
    E2E_ASSERT(it != slots_.end(), "remove: slot not tracked");
    const auto idx = static_cast<std::size_t>(it - slots_.begin());
    const Task& departing = system_->tasks()[idx];
    std::vector<int> touched;
    for (const Subtask& s : departing.subtasks) add_unique(touched, s.processor.value());
    const std::size_t base =
        imap_.flat_index(SubtaskRef{TaskId{static_cast<std::int32_t>(idx)}, 0});
    const std::size_t len = departing.subtasks.size();

    // -- Shrink every persistent structure (removal always commits). --
    system_->remove_task(idx);
    imap_.apply_remove(*system_, idx);
    table_.remove_row(idx);
    slots_.erase(it);
    const auto first = static_cast<std::ptrdiff_t>(base);
    const auto last = static_cast<std::ptrdiff_t>(base + len);
    state_.warm.erase(state_.warm.begin() + first, state_.warm.begin() + last);
    for (auto* index : {&state_.deps, &state_.rdeps}) {
      index->erase(index->begin() + first, index->begin() + last);
      for (auto& list : *index) {
        // Drop the departed flats, shift the rest -- exactly the lists a
        // fresh index over the shrunk system yields (value-level dedup
        // and order are preserved).
        std::size_t write = 0;
        for (const std::uint32_t d : list) {
          if (d >= base && d < base + len) continue;
          list[write++] = d >= base + len ? d - static_cast<std::uint32_t>(len) : d;
        }
        list.resize(write);
      }
    }

    const Time new_cap = cap_of(*system_);
    if (new_cap != cap_ || !converged_) {
      converged_ = run_cold();
    } else {
      // Dirty cone: the entries on the touched processors (equations
      // changed: interference sets shrank, blocking terms may have) ...
      arm_sweep(touched);
      std::vector<std::uint32_t>& cone = state_.force;
      std::vector<std::uint8_t> in_cone(imap_.subtask_count(), 0);
      for (const std::uint32_t flat : cone) in_cone[flat] = 1;
      // ... closed under reverse IEERT dependencies. Outside the cone no
      // input changes, so old values remain exact fixpoint entries.
      for (std::size_t next = 0; next < cone.size(); ++next) {
        for (const std::uint32_t reader : state_.rdeps[cone[next]]) {
          if (in_cone[reader] != 0) continue;
          in_cone[reader] = 1;
          cone.push_back(reader);
        }
      }
      // Cone entries restart from the optimistic init with cold seeds
      // (their old values over-approximate the shrunk fixpoint); the
      // sweep recomputes every one of them first.
      for (const std::uint32_t flat : cone) {
        const SubtaskRef ref = imap_.ref_of(flat);
        const Task& t = system_->task(ref.task);
        Duration cumulative = 0;
        for (std::int32_t j = 0; j <= ref.index; ++j) {
          cumulative += t.subtasks[static_cast<std::size_t>(j)].execution_time;
        }
        table_.set(ref, cumulative);
        state_.warm[flat] = IeertWarmEntry{};
      }
      converged_ = sweep_to_fixpoint(nullptr);
      if (!converged_) converged_ = run_cold();
    }
    cap_ = new_cap;
    refresh_outcomes(converged_);
    if (all_schedulable()) return {true, std::nullopt};
    return {false, failure_of(std::nullopt)};
  }

  std::uint64_t fold_bounds(std::uint64_t acc) const override {
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      acc = detail::fold_task_bounds(acc, eers_[i], table_.row(i));
    }
    return acc;
  }

  double margin() const override {
    double worst = 0.0;
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      worst = std::max(
          worst, detail::margin_ratio(eers_[i], system_->tasks()[i].relative_deadline));
    }
    return worst;
  }

  const char* name() const noexcept override { return "incremental"; }

  std::optional<StructureDigest> structure_digest() const override {
    if (!system_.has_value()) return std::nullopt;
    return StructureDigest{.interference_hash = imap_.content_hash(),
                           .table_hash = table_.content_hash(),
                           .dependency_hash = ieert_dependency_hash(state_)};
  }

 private:
  /// First admit(s) into an empty engine: build the candidate-only
  /// system through the builder (build_with's path) and analyze cold.
  TrialVerdict bootstrap(const SystemState& state, std::uint32_t first_slot,
                         std::span<const TaskSpec> specs) {
    TaskSystemBuilder builder{state.processor_count()};
    for (const TaskSpec& spec : specs) {
      auto handle = builder.add_task({.period = spec.period,
                                      .phase = spec.phase,
                                      .deadline = spec.deadline,
                                      .release_jitter = spec.release_jitter,
                                      .name = spec.name});
      for (const SubtaskSpec& sub : spec.subtasks) {
        handle.subtask(ProcessorId{sub.processor}, sub.execution_time,
                       Priority{sub.priority_level});
        if (!sub.preemptible) handle.non_preemptible();
      }
    }
    system_.emplace(std::move(builder).build());
    imap_ = InterferenceMap{*system_};
    const std::size_t count = imap_.subtask_count();
    table_ = SubtaskTable{*system_, 0};
    state_ = IeertIncrementalState{};
    ieert_index_dependencies(*system_, imap_, state_);
    state_.warm.assign(count, {});
    for (std::size_t i = 0; i < specs.size(); ++i) {
      slots_.push_back(first_slot + static_cast<std::uint32_t>(i));
    }
    const bool trial_converged = run_cold();
    refresh_outcomes(trial_converged);
    if (all_schedulable()) {
      cap_ = cap_of(*system_);
      converged_ = trial_converged;
      return {true, std::nullopt};
    }
    TrialFailure failure = failure_of(first_slot);
    reset_empty();
    return {false, std::move(failure)};
  }

  void reset_empty() {
    system_.reset();
    imap_ = InterferenceMap{};
    table_ = SubtaskTable{};
    state_ = IeertIncrementalState{};
    slots_.clear();
    eers_.clear();
    cap_ = -1;
    converged_ = true;
  }

  /// Same expression as analyze_sa_ds's divergence cap, so the seeded
  /// sweeps and the offline analysis cap identically.
  [[nodiscard]] Time cap_of(const TaskSystem& system) const {
    const SaDsOptions options{.refine_jitter_with_best_case = refine_};
    Duration max_cutoff = 0;
    for (const Task& t : system.tasks()) {
      max_cutoff = std::max(
          max_cutoff, static_cast<Duration>(options.failure_period_multiplier *
                                            static_cast<double>(t.period)));
    }
    return sat_mul(max_cutoff, 2);
  }

  [[nodiscard]] IeertOptions pass_options(Time cap) const {
    const SaDsOptions options{.refine_jitter_with_best_case = refine_};
    return IeertOptions{.cap = cap,
                        .refine_jitter_with_best_case =
                            options.refine_jitter_with_best_case,
                        .failure_period_multiplier =
                            options.failure_period_multiplier,
                        .legacy_demand_path = options.legacy_demand_path};
  }

  /// In-place sweeps until fixpoint or pass budget. In-sweep cutoff
  /// capping (bound_subtask_ieer declares a bound infinite past 300x the
  /// period) makes each sweep equal to cap o IEERT for every recomputed
  /// entry, so "zero changes" detects exactly the full loop's
  /// next == current fixpoint.
  [[nodiscard]] bool sweep_to_fixpoint(IeertSweepUndo* undo) {
    const SaDsOptions options{.refine_jitter_with_best_case = refine_};
    const IeertOptions popts = pass_options(cap_of(*system_));
    for (int passes = 0; passes < options.max_passes; ++passes) {
      if (ieert_sweep(*system_, imap_, table_, popts, state_, undo) == 0) {
        return true;
      }
    }
    return false;
  }

  /// The cold-trajectory fallback: the exact offline analysis over the
  /// persistent system and interference map -- byte-identical to what
  /// the full-recompute engine runs (including the mid-iteration table
  /// of a non-converged run). Warm seeds and dirty flags no longer
  /// describe the table afterwards, so they reset cold.
  [[nodiscard]] bool run_cold() {
    const SaDsOptions options{.refine_jitter_with_best_case = refine_};
    SaDsResult result = analyze_sa_ds(*system_, imap_, options);
    table_ = std::move(result.analysis.subtask_bounds);
    state_.warm.assign(imap_.subtask_count(), {});
    return result.converged;
  }

  /// Arms the next sweeps as a delta re-analysis: nothing counts as
  /// changed yet, and every entry on the `touched` processors is forced
  /// (their interference sets and blocking terms moved).
  void arm_sweep(std::span<const int> touched) {
    state_.recompute_all = false;
    state_.changed.clear();
    state_.force.clear();
    for (const int p : touched) {
      for (const SubtaskRef ref : system_->subtasks_on(ProcessorId{p})) {
        state_.force.push_back(static_cast<std::uint32_t>(imap_.flat_index(ref)));
      }
    }
  }

  /// Per-task EERs from the committed table: the last subtask's IEER
  /// bound when converged, infinity otherwise (matching analyze_sa_ds's
  /// non-convergence semantics).
  void refresh_outcomes(bool converged) {
    const std::size_t n = system_.has_value() ? system_->task_count() : 0;
    eers_.assign(n, kTimeInfinity);
    if (!converged) return;
    for (const Task& t : system_->tasks()) {
      eers_[t.id.index()] = table_.at(t.last_subtask().ref);
    }
  }

  [[nodiscard]] bool schedulable(std::size_t i) const {
    return !is_infinite(eers_[i]) &&
           eers_[i] <= system_->tasks()[i].relative_deadline;
  }

  [[nodiscard]] bool all_schedulable() const {
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      if (!schedulable(i)) return false;
    }
    return true;
  }

  /// Rejection detail from the first unschedulable task in build
  /// (ascending slot) order. `first_candidate_slot`: slots at or above
  /// it are trial candidates.
  [[nodiscard]] TrialFailure failure_of(
      std::optional<std::uint32_t> first_candidate_slot) const {
    TrialFailure failure;
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      if (schedulable(i)) continue;
      failure.slot = slots_[i];
      failure.is_candidate = first_candidate_slot.has_value() &&
                             failure.slot >= *first_candidate_slot;
      failure.eer = eers_[i];
      failure.deadline = system_->tasks()[i].relative_deadline;
      const std::span<const Duration> row = table_.row(i);
      failure.subtask_bounds.assign(row.begin(), row.end());
      break;
    }
    return failure;
  }

  bool refine_;
  // Persistent committed structures; all empty iff system_ is empty.
  std::optional<TaskSystem> system_;
  std::vector<std::uint32_t> slots_;  ///< per task index, ascending
  InterferenceMap imap_;
  SubtaskTable table_;           ///< committed (converged) IEER bounds
  IeertIncrementalState state_;  ///< persistent deps + warm seeds
  std::vector<Duration> eers_;   ///< per task index
  Time cap_ = -1;        ///< divergence cap of the committed analysis; -1 = none
  bool converged_ = true;  ///< committed table reached a fixpoint
  IeertSweepUndo undo_;    ///< reusable trial journal
};

}  // namespace

namespace detail {
std::unique_ptr<Engine> make_incremental_ds_engine(bool refine) {
  return std::make_unique<IncrementalDsEngine>(refine);
}
}  // namespace detail

}  // namespace e2e::admission
