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
//  * one TaskSystem, grown in place through the sanctioned append_task
//    mutator (builder-identical layout; a rejected trial's candidates
//    leave through pop_last_tasks, which restores the aggregates saved
//    before their appends) and shrunk by retire_task;
//  * one InterferenceMap, delta-patched via apply_admit/retire with
//    revert_admit tokens for rejected trials (bit-identical to fresh
//    construction once compacted -- the property tests pin
//    content_hash());
//  * the committed converged SubtaskTable plus per-subtask fixpoint
//    warm seeds and the IEERT dependency lists, all delta-maintained
//    and swept in place by sa_ds_iterate -- the same loop, pass options
//    and divergence cap (sa_ds_pass_options) analyze_sa_ds runs.
//
// A removed task is retired in place, not renumbered away: its refs
// leave the resident lists of its own processors, its interferers the
// rows on those processors, and its flats the dependency lists its own
// entries' lists name. Its rows stay behind as inert holes that no sweep
// enqueues, no walk reaches and no outcome reads. New tasks still append
// at the end, so the live entries keep their ascending flat order and
// every sweep visits them exactly as over a compacted table. One O(n)
// compaction drops the holes once they are a quarter of the rows, and
// before every cold path (so run_cold is the offline analysis over the
// slot-ordered build).
//
// Per-request seeding:
//
//  * admit (single or batch): demand only grows, so every old entry
//    under-approximates the new fixpoint. Survivors keep their values
//    and warm seeds; exactly the entries whose demand equation changed
//    are force-flagged -- the candidates' own, and the residents each
//    InterferenceMap::AdmitDelta lists as having gained interferers
//    (`appended`) or a higher blocking term (`old_blocking`). A
//    resident's equation reads only its interference set, its blocking
//    term, the cap and its table inputs, so no other resident's equation
//    moved; the dependency tracking propagates any growth of the inputs
//    transitively. The sweeps journal pre-trial values first-touch
//    (IeertSweepUndo, allocation-free once warm), so a rejected trial
//    rolls back byte-for-byte.
//
//  * remove: demand shrinks, so old values OVER-approximate and must
//    not seed the affected entries. The dirty cone is the closure, under
//    reverse IEERT dependencies, of the entries whose equation changed --
//    those InterferenceMap::RemoveDelta lists as having lost an
//    interferer or blocking term; entries outside it provably keep their
//    exact old fixpoint values (no input of theirs changes). Inside it
//    the engine splits the cone into strongly connected components and
//    solves them inputs first (Bekic): a component none of whose members
//    is forced and none of whose inputs changed keeps its old values;
//    any other restarts from the optimistic init and is iterated alone,
//    against inputs that are already final (docs/admission.md).
//
//  * a divergence-cap change (2 x 300 x the max live period, so it
//    moves only when the maximum period changes) invalidates even
//    infinite entries in both directions; the engine falls back to a
//    cold analyze_sa_ds run over the SAME persistent structures,
//    compacted first, which is byte-identical to the offline analysis
//    the full engine runs --
//    including the trajectory-dependent table of a pass-budget blowout.
//    A non-converged committed state also forces the next request cold
//    (its mid-iteration bytes are not a valid monotone seed).
//
// Commit semantics: an accepted admit and every remove commit the
// table; a rejected admit restores the sweep journal, pops the
// candidate rows, and reverts the interference/dependency deltas,
// leaving the engine bit-identical to before the request. A warm trial
// re-reads the per-task EERs only of the candidates and of the tasks
// whose last entry the journal lists, and keeps a count of failing
// tasks, so its bookkeeping is proportional to what it recomputed.
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

/// Drops every retired task's rows from one set of persistent
/// structures, renumbering the survivors in order: afterwards each equals
/// its fresh construction over the live tasks.
void compact_structures(TaskSystem& system, InterferenceMap& imap, SubtaskTable& table,
                        IeertIncrementalState& index) {
  const std::vector<std::uint32_t> new_flat = imap.compact(system);
  table.compact(system);
  system.compact();
  ieert_compact_index(index, new_flat);
}

class IncrementalDsEngine final : public Engine {
 public:
  explicit IncrementalDsEngine(bool refine)
      : options_{.refine_jitter_with_best_case = refine} {}

  TrialVerdict admit_batch(const SystemState& state, std::uint32_t first_slot,
                           std::span<const TaskSpec> specs) override {
    E2E_ASSERT(!specs.empty(), "admit_batch: empty batch");
    if (!system_.has_value()) return bootstrap(state, first_slot, specs);
    state_.evaluations = 0;

    Growth growth = grow(first_slot, specs);

    // -- One analysis trajectory over the grown structures. --
    const IeertOptions pass_options = sa_ds_pass_options(*system_, options_);
    PathRecord path{.path = cold_path(pass_options.cap)};
    bool cold = path.path != EnginePath::kWarm;
    bool trial_converged = false;
    if (!cold) {
      const std::size_t count = imap_.subtask_count();
      arm_sweep(growth.imap_deltas, growth.old_count, count);
      undo_.arm(count);
      trial_converged =
          sa_ds_iterate(*system_, imap_, table_, pass_options, state_, &undo_).converged;
      if (!trial_converged) {
        // Pass-budget blowout: back to the pre-trial table, then the cold
        // trajectory (the only one whose mid-iteration bytes match the
        // offline analyze_sa_ds).
        path.path = EnginePath::kColdBudget;
        undo_.replay(table_, state_.warm);
        cold = true;
      }
    }
    SubtaskTable pre_table;  // wholesale snapshot, cold trials only
    std::vector<IeertWarmEntry> pre_warm;
    if (cold) {
      if (retired_rows_ > 0) {
        // The cold trajectory runs over compacted structures: take the
        // candidates out, compact, and grow them back at the new end.
        shrink(growth);
        compact(path);
        growth = grow(first_slot, specs);
      }
      pre_table = table_;
      pre_warm = state_.warm;
      trial_converged = run_cold();
    }
    const std::size_t old_tasks = growth.old_tasks;

    path.evaluations = state_.evaluations;
    if (cold) {
      refresh_outcomes(trial_converged);
    } else {
      // A warm trial converged from a converged committed table: only
      // the candidates and the tasks whose last entry it recomputed can
      // have moved.
      refresh_journaled_outcomes(old_tasks);
      for (std::size_t i = old_tasks; i < system_->task_count(); ++i) {
        eers_.push_back(table_.at(system_->tasks()[i].last_subtask().ref));
        if (!schedulable(i)) ++failing_count_;
      }
    }
    if (failing_count_ == 0) {
      cap_ = pass_options.cap;
      converged_ = trial_converged;
      return {true, std::nullopt, path};
    }

    // -- Reject: restore everything byte-for-byte. --
    TrialFailure failure = failure_of(first_slot);
    if (cold) {
      table_ = std::move(pre_table);
      state_.warm = std::move(pre_warm);
    } else {
      undo_.replay(table_, state_.warm);
      refresh_journaled_outcomes(old_tasks);
      for (std::size_t i = old_tasks; i < system_->task_count(); ++i) {
        if (!schedulable(i)) --failing_count_;
      }
      eers_.resize(old_tasks);
    }
    shrink(growth);
    if (cold) refresh_outcomes(converged_);
    return {false, std::move(failure), path};
  }

  TrialVerdict remove(const SystemState& state, std::uint32_t slot) override {
    if (state.task_count() <= 1) {  // removing the last task: empty system
      reset_empty();
      return {true, std::nullopt};
    }
    const auto it = std::lower_bound(slots_.begin(), slots_.end(), slot);
    E2E_ASSERT(it != slots_.end() && *it == slot, "remove: slot not tracked");
    const auto idx = static_cast<std::size_t>(it - slots_.begin());
    const TaskId id{static_cast<std::int32_t>(idx)};
    E2E_ASSERT(!system_->retired(id), "remove: slot already removed");
    const auto base = static_cast<std::uint32_t>(imap_.flat_index(SubtaskRef{id, 0}));
    const auto len = static_cast<std::uint32_t>(system_->task(id).subtasks.size());
    state_.evaluations = 0;

    // -- Retire the task in every persistent structure (removal always
    // commits); nothing else is renumbered. --
    if (!schedulable(idx)) --failing_count_;
    system_->retire_task(idx);
    const InterferenceMap::RemoveDelta delta = imap_.retire(*system_, idx);
    ieert_retire_entries(state_, base, base + len);
    retired_rows_ += len;

    const IeertOptions pass_options = sa_ds_pass_options(*system_, options_);
    PathRecord path{.path = cold_path(pass_options.cap)};
    bool cold = path.path != EnginePath::kWarm;
    if (!cold) {
      path.path = EnginePath::kComponents;
      converged_ = resolve_components(delta, pass_options, path);
      if (!converged_) {
        path.path = EnginePath::kColdBudget;
        cold = true;
      }
    }
    if (cold) {
      compact(path);
      converged_ = run_cold();
      refresh_outcomes(converged_);
    } else if (retired_rows_ * kCompactionDivisor >= imap_.subtask_count()) {
      compact(path);
    }
    cap_ = pass_options.cap;
    path.evaluations = state_.evaluations;
    if (failing_count_ == 0) return {true, std::nullopt, path};
    return {false, failure_of(std::nullopt), path};
  }

  std::uint64_t fold_bounds(std::uint64_t acc) const override {
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      if (retired(i)) continue;
      acc = detail::fold_task_bounds(acc, eers_[i], table_.row(i));
    }
    return acc;
  }

  double margin() const override {
    double worst = 0.0;
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      if (retired(i)) continue;
      worst = std::max(
          worst, detail::margin_ratio(eers_[i], system_->tasks()[i].relative_deadline));
    }
    return worst;
  }

  const char* name() const noexcept override { return "incremental"; }

  /// Hashes the live rows in compacted numbering: with holes present, of
  /// compacted copies (a test-only path), so a digest equals the one of
  /// structures built fresh from the live set.
  std::optional<StructureDigest> structure_digest() const override {
    if (!system_.has_value()) return std::nullopt;
    const auto digest = [](const InterferenceMap& imap, const SubtaskTable& table,
                           const IeertIncrementalState& index) {
      return StructureDigest{.interference_hash = imap.content_hash(),
                             .table_hash = table.content_hash(),
                             .dependency_hash = ieert_dependency_hash(index)};
    };
    if (retired_rows_ == 0) return digest(imap_, table_, state_);
    TaskSystem system = *system_;
    InterferenceMap imap = imap_;
    SubtaskTable table = table_;
    IeertIncrementalState index = state_;
    compact_structures(system, imap, table, index);
    return digest(imap, table, index);
  }

 private:
  /// First admit(s) into an empty engine: the state is empty too, so the
  /// trial system is the state's own build of the candidates; analyze it
  /// cold.
  TrialVerdict bootstrap(const SystemState& state, std::uint32_t first_slot,
                         std::span<const TaskSpec> specs) {
    E2E_ASSERT(state.task_count() == 0, "bootstrap: engine empty, state not");
    SystemState::Built built = state.build_with_batch(specs, first_slot, std::nullopt);
    system_.emplace(std::move(built.system));
    slots_ = std::move(built.slots);
    imap_ = InterferenceMap{*system_};
    table_ = SubtaskTable{*system_, 0};
    state_ = IeertIncrementalState{};
    ieert_index_dependencies(*system_, imap_, state_);
    state_.warm.assign(imap_.subtask_count(), {});
    const bool trial_converged = run_cold();
    refresh_outcomes(trial_converged);
    const PathRecord path{.path = EnginePath::kBootstrap,
                          .evaluations = state_.evaluations};
    if (failing_count_ == 0) {
      cap_ = sa_ds_pass_options(*system_, options_).cap;
      converged_ = trial_converged;
      return {true, std::nullopt, path};
    }
    TrialFailure failure = failure_of(first_slot);
    reset_empty();
    return {false, std::move(failure), path};
  }

  /// What grow() added to the persistent structures: enough for shrink()
  /// to take it out again byte-for-byte.
  struct Growth {
    std::size_t old_tasks = 0;
    std::size_t old_count = 0;
    TaskSystem::Aggregates old_aggregates;
    std::vector<InterferenceMap::AdmitDelta> imap_deltas;
    /// (resident flat, dependencies pushed onto its tail), one per resident.
    std::vector<std::pair<std::size_t, std::uint32_t>> dep_pushes;
  };

  /// Grows every persistent structure by the whole batch, with the
  /// candidates' rows at their optimistic init and cold seeds.
  Growth grow(std::uint32_t first_slot, std::span<const TaskSpec> specs) {
    Growth g{.old_tasks = system_->task_count(),
             .old_count = imap_.subtask_count(),
             .old_aggregates = system_->aggregates()};
    g.imap_deltas.reserve(specs.size());
    for (const TaskSpec& spec : specs) {
      system_->append_task(task_from_spec(spec));
      g.imap_deltas.push_back(imap_.apply_admit(*system_));
      // Residents that gained interferers gain their predecessors as
      // dependencies. The new dep flats all index candidate subtasks
      // (>= the resident's old dep entries), so plain push_back keeps
      // the lists deduplicated and in fresh-construction order. Earlier
      // batch members count as residents for later ones (flat >=
      // old_count); skip them -- every candidate row gets a freshly
      // built dep list below, after the whole batch is mapped.
      for (const auto& [flat, appended] : g.imap_deltas.back().appended) {
        if (flat >= g.old_count) continue;
        const std::span<const Interferer> hp = imap_.of(imap_.ref_of(flat));
        std::uint32_t pushed = 0;
        for (std::size_t k = hp.size() - appended; k < hp.size(); ++k) {
          if (hp[k].ref.index <= 0) continue;
          state_.deps[flat].push_back(static_cast<std::uint32_t>(
              imap_.flat_index(SubtaskRef{hp[k].ref.task, hp[k].ref.index - 1})));
          ++pushed;
        }
        if (pushed > 0) g.dep_pushes.emplace_back(flat, pushed);
      }
    }
    const std::size_t count = imap_.subtask_count();
    state_.deps.resize(count);
    state_.rdeps.resize(count);
    state_.warm.resize(count);
    for (std::size_t ti = g.old_tasks; ti < system_->task_count(); ++ti) {
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
      slots_.push_back(first_slot + static_cast<std::uint32_t>(ti - g.old_tasks));
    }
    // A resident that gained interferers from several batch members has
    // one entry per member, all pushed onto the same tail: merge them so
    // the loop below walks each resident's whole tail exactly once.
    std::vector<std::pair<std::size_t, std::uint32_t>>& pushes = g.dep_pushes;
    std::sort(pushes.begin(), pushes.end());
    std::size_t merged = 0;
    for (std::size_t i = 0; i < pushes.size(); ++i) {
      if (merged > 0 && pushes[merged - 1].first == pushes[i].first) {
        pushes[merged - 1].second += pushes[i].second;
      } else {
        pushes[merged++] = pushes[i];
      }
    }
    pushes.resize(merged);
    // Reverse index, kept ascending (what ieert_index_dependencies
    // builds): resident lists gain candidate readers at the tail in flat
    // order; the candidates' own lists are new and sorted once.
    for (const auto& [flat, pushed] : pushes) {
      const std::vector<std::uint32_t>& list = state_.deps[flat];
      for (std::size_t k = list.size() - pushed; k < list.size(); ++k) {
        state_.rdeps[list[k]].push_back(static_cast<std::uint32_t>(flat));
      }
    }
    for (std::size_t f = g.old_count; f < count; ++f) {
      for (const std::uint32_t d : state_.deps[f]) {
        state_.rdeps[d].push_back(static_cast<std::uint32_t>(f));
      }
    }
    for (std::size_t f = g.old_count; f < count; ++f) {
      std::sort(state_.rdeps[f].begin(), state_.rdeps[f].end());
    }
    return g;
  }

  /// Takes a grow() back out of the structures (a rejected trial, or a
  /// compaction before a cold one). The table's and warm seeds'
  /// resident entries must already hold their pre-trial values.
  void shrink(const Growth& g) {
    const std::size_t count = imap_.subtask_count();
    table_.pop_rows(system_->task_count() - g.old_tasks);
    system_->pop_last_tasks(system_->task_count() - g.old_tasks, g.old_aggregates);
    for (std::size_t f = g.old_count; f < count; ++f) {
      for (const std::uint32_t d : state_.deps[f]) {
        if (d >= g.old_count) continue;
        std::vector<std::uint32_t>& readers = state_.rdeps[d];
        while (!readers.empty() && readers.back() >= g.old_count) readers.pop_back();
      }
    }
    state_.warm.resize(g.old_count);
    state_.deps.resize(g.old_count);
    state_.rdeps.resize(g.old_count);
    for (const auto& [flat, pushed] : g.dep_pushes) {
      state_.deps[flat].resize(state_.deps[flat].size() - pushed);
    }
    for (auto it = g.imap_deltas.rbegin(); it != g.imap_deltas.rend(); ++it) {
      imap_.revert_admit(*it);
    }
    slots_.resize(g.old_tasks);
  }

  /// Drops every retired task's rows from the persistent structures
  /// (a no-op without any), renumbering the survivors in order.
  void compact(PathRecord& path) {
    if (retired_rows_ == 0) return;
    std::size_t write = 0;
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      if (retired(i)) continue;
      slots_[write] = slots_[i];
      eers_[write] = eers_[i];
      ++write;
    }
    slots_.resize(write);
    eers_.resize(write);
    compact_structures(*system_, imap_, table_, state_);
    retired_rows_ = 0;
    path.compacted = true;
  }

  [[nodiscard]] bool retired(std::size_t task) const {
    return system_->retired(TaskId{static_cast<std::int32_t>(task)});
  }

  /// The cold path a request must take, or kWarm when the committed
  /// table is a valid seed: a moved divergence cap invalidates even
  /// infinite entries, and a non-converged table is not a fixpoint.
  [[nodiscard]] EnginePath cold_path(Time new_cap) const {
    if (new_cap != cap_) return EnginePath::kColdCap;
    if (!converged_) return EnginePath::kColdNonconverged;
    return EnginePath::kWarm;
  }

  /// Remove re-analysis by dependency components (docs/admission.md,
  /// "Removal by dependency components"). The entries `delta` lists are
  /// forced: they lost an interferer or their blocking term fell, and no
  /// other entry's equation changed. Their closure under reverse IEERT
  /// dependencies is the dirty cone; outside it no input changed, so old
  /// values stay exact. One Tarjan walk along `rdeps` from the forced
  /// entries visits exactly the cone and emits its strongly connected
  /// components readers first, so walking the emission backwards meets
  /// every component after all of its inputs are final. A component
  /// whose members are unforced and whose inputs kept their values keeps
  /// its old values; any other restarts from the optimistic init and is
  /// iterated on its own. Returns false when a component exhausts the
  /// pass budget (the table is then mid-iteration and the caller runs
  /// cold). The walk's work, including resetting its node marks, is
  /// proportional to the cone.
  [[nodiscard]] bool resolve_components(const InterferenceMap::RemoveDelta& delta,
                                        const IeertOptions& options, PathRecord& path) {
    if (nodes_.size() < imap_.subtask_count()) nodes_.resize(imap_.subtask_count());
    members_.clear();
    component_begin_.clear();
    visited_ = 0;
    finished_ = 0;
    for (const std::vector<std::uint32_t>* rows : {&delta.lost, &delta.reblocked}) {
      for (const std::uint32_t flat : *rows) {
        if (nodes_[flat].forced != 0) continue;
        nodes_[flat].forced = 1;
        ++path.forced;
        if (nodes_[flat].index == 0) emit_components(flat);
      }
    }
    component_begin_.push_back(static_cast<std::uint32_t>(members_.size()));
    path.cone = visited_;

    bool solved = true;
    for (std::size_t c = component_begin_.size() - 1; solved && c-- > 0;) {
      const std::span<const std::uint32_t> component{
          members_.data() + component_begin_[c], members_.data() + component_begin_[c + 1]};
      const bool dirty = std::any_of(component.begin(), component.end(),
                                     [this](std::uint32_t flat) {
        if (nodes_[flat].forced != 0) return true;
        return std::any_of(state_.deps[flat].begin(), state_.deps[flat].end(),
                           [this](std::uint32_t d) { return nodes_[d].changed != 0; });
      });
      if (!dirty) {
        ++path.skipped;
        continue;
      }
      ++path.resolved;
      path.largest = std::max(path.largest, static_cast<std::uint32_t>(component.size()));
      solved = solve_component(component, static_cast<std::uint32_t>(c), options);
    }
    // Every entry the walk reached is a member: clearing them leaves
    // nodes_ all default for the next remove.
    for (const std::uint32_t flat : members_) nodes_[flat] = ComponentNode{};
    return solved;
  }

  /// Iterative Tarjan from `root` along reverse dependencies: appends
  /// each finished strongly connected component to `members_`, its start
  /// to `component_begin_`. Members are ordered by reverse postorder of
  /// the walk, so inside a component an entry mostly follows its inputs
  /// and few members are evaluated twice.
  void emit_components(std::uint32_t root) {
    const auto open = [this](std::uint32_t flat) {
      nodes_[flat].index = nodes_[flat].low = ++visited_;
      tarjan_stack_.push_back(flat);
      frames_.push_back({flat, 0});
    };
    open(root);
    while (!frames_.empty()) {
      const std::uint32_t v = frames_.back().node;
      const std::vector<std::uint32_t>& readers = state_.rdeps[v];
      if (frames_.back().edge < readers.size()) {
        const std::uint32_t w = readers[frames_.back().edge++];
        if (nodes_[w].index == 0) {
          open(w);
        } else if (nodes_[w].component == kNoComponent) {  // still on the stack
          nodes_[v].low = std::min(nodes_[v].low, nodes_[w].index);
        }
        continue;
      }
      frames_.pop_back();
      nodes_[v].finish = ++finished_;
      if (!frames_.empty()) {
        ComponentNode& parent = nodes_[frames_.back().node];
        parent.low = std::min(parent.low, nodes_[v].low);
      }
      if (nodes_[v].low != nodes_[v].index) continue;
      const auto id = static_cast<std::uint32_t>(component_begin_.size());
      const auto begin = static_cast<std::uint32_t>(members_.size());
      component_begin_.push_back(begin);
      std::uint32_t w = 0;
      do {
        w = tarjan_stack_.back();
        tarjan_stack_.pop_back();
        nodes_[w].component = id;
        members_.push_back(w);
      } while (w != v);
      std::sort(members_.begin() + begin, members_.end(),
                [this](std::uint32_t a, std::uint32_t b) {
                  return nodes_[a].finish > nodes_[b].finish;
                });
    }
  }

  /// Least fixpoint of one component's equations against final inputs:
  /// Kleene iteration from the optimistic init with cold seeds (the old
  /// values over-approximate), re-evaluating a member only after one of
  /// its in-component inputs moved. Each pass visits the stale members in
  /// member order; needing more than kSaDsMaxPasses passes is a blowout.
  [[nodiscard]] bool solve_component(std::span<const std::uint32_t> component,
                                     std::uint32_t id, const IeertOptions& options) {
    old_values_.clear();
    for (const std::uint32_t flat : component) {
      const SubtaskRef ref = imap_.ref_of(flat);
      old_values_.push_back(table_.at(ref));
      table_.set(ref, optimistic_init(ref));
      state_.warm[flat].busy = 0;  // a cold seed that keeps its capacity
      state_.warm[flat].completions.clear();
      nodes_[flat].stale = 1;
    }
    std::size_t stale = component.size();
    for (int pass = 0; stale > 0; ++pass) {
      if (pass == kSaDsMaxPasses) return false;
      for (const std::uint32_t flat : component) {
        if (nodes_[flat].stale == 0) continue;
        nodes_[flat].stale = 0;
        --stale;
        const SubtaskRef ref = imap_.ref_of(flat);
        const Duration bound = ieert_bound_entry(*system_, imap_, table_, ref, options,
                                                 &state_.warm[flat], state_.hp_jitter);
        ++state_.evaluations;
        if (bound == table_.at(ref)) continue;
        table_.set(ref, bound);
        for (const std::uint32_t reader : state_.rdeps[flat]) {
          if (nodes_[reader].component != id || nodes_[reader].stale != 0) continue;
          nodes_[reader].stale = 1;
          ++stale;
        }
      }
    }
    for (std::size_t k = 0; k < component.size(); ++k) {
      const SubtaskRef ref = imap_.ref_of(component[k]);
      const Duration value = table_.at(ref);
      if (value == old_values_[k]) continue;
      nodes_[component[k]].changed = 1;
      const std::size_t task = ref.task.index();
      if (static_cast<std::size_t>(ref.index) + 1 == system_->tasks()[task].subtasks.size()) {
        set_eer(task, value);  // the task's last entry: its EER moved
      }
    }
    return true;
  }

  /// Figure 11 step 1: the sum of the execution times through `ref`.
  [[nodiscard]] Duration optimistic_init(SubtaskRef ref) const {
    const Task& t = system_->task(ref.task);
    Duration cumulative = 0;
    for (std::int32_t j = 0; j <= ref.index; ++j) {
      cumulative += t.subtasks[static_cast<std::size_t>(j)].execution_time;
    }
    return cumulative;
  }

  void reset_empty() {
    system_.reset();
    imap_ = InterferenceMap{};
    table_ = SubtaskTable{};
    state_ = IeertIncrementalState{};
    slots_.clear();
    eers_.clear();
    retired_rows_ = 0;
    failing_count_ = 0;
    cap_ = -1;
    converged_ = true;
  }

  /// The cold-trajectory fallback: the exact offline analysis over the
  /// persistent system and interference map -- byte-identical to what
  /// the full-recompute engine runs (including the mid-iteration table
  /// of a non-converged run). Warm seeds and dirty flags no longer
  /// describe the table afterwards, so they reset cold.
  [[nodiscard]] bool run_cold() {
    SaDsResult result = analyze_sa_ds(*system_, imap_, options_);
    table_ = std::move(result.analysis.subtask_bounds);
    state_.warm.assign(imap_.subtask_count(), {});
    state_.evaluations += result.evaluations;
    return result.converged;
  }

  /// Arms the next sweeps as the delta re-analysis of an admit: nothing
  /// counts as changed yet, and exactly the entries whose equation the
  /// admit changed are forced -- the candidate rows [first, count), and
  /// each resident that `deltas` list as having gained interferers or a
  /// higher blocking term. Every other entry's equation reads the same
  /// interference set, blocking term and cap as before, so only its
  /// table inputs can move, and the sweep's dependency tracking reaches
  /// it when one does.
  void arm_sweep(std::span<const InterferenceMap::AdmitDelta> deltas, std::size_t first,
                 std::size_t count) {
    state_.recompute_all = false;
    state_.changed.clear();
    state_.force.clear();
    for (const InterferenceMap::AdmitDelta& delta : deltas) {
      for (const auto& [flat, appended] : delta.appended) {
        state_.force.push_back(static_cast<std::uint32_t>(flat));
      }
      for (const auto& [flat, blocking] : delta.old_blocking) {
        state_.force.push_back(static_cast<std::uint32_t>(flat));
      }
    }
    for (std::size_t f = first; f < count; ++f) {
      state_.force.push_back(static_cast<std::uint32_t>(f));
    }
  }

  /// Per-task EERs from the table: the last subtask's IEER bound when
  /// converged, infinity otherwise (matching analyze_sa_ds's
  /// non-convergence semantics), and the count of unschedulable tasks.
  /// Runs only after cold analyses, which compact first.
  void refresh_outcomes(bool converged) {
    E2E_ASSERT(retired_rows_ == 0, "refresh_outcomes: holes present");
    const std::size_t n = system_.has_value() ? system_->task_count() : 0;
    eers_.assign(n, kTimeInfinity);
    if (converged) {
      for (const Task& t : system_->tasks()) {
        eers_[t.id.index()] = table_.at(t.last_subtask().ref);
      }
    }
    failing_count_ = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (!schedulable(i)) ++failing_count_;
    }
  }

  /// Re-reads from the table the EER of every task below `task_end`
  /// whose last entry the warm trial journaled -- the only residents a
  /// sweep from a converged table can have moved -- keeping the failing
  /// count in step. After a trial it reads the trial's values, after
  /// the journal's replay the pre-trial ones.
  void refresh_journaled_outcomes(std::size_t task_end) {
    for (const IeertSweepUndo::Entry& e : undo_.entries()) {
      const std::size_t i = e.ref.task.index();
      if (i >= task_end ||
          static_cast<std::size_t>(e.ref.index) + 1 != system_->tasks()[i].subtasks.size()) {
        continue;
      }
      set_eer(i, table_.at(e.ref));
    }
  }

  /// Sets task `i`'s EER, keeping the failing count in step.
  void set_eer(std::size_t i, Duration eer) {
    if (!schedulable(i)) --failing_count_;
    eers_[i] = eer;
    if (!schedulable(i)) ++failing_count_;
  }

  [[nodiscard]] bool schedulable(std::size_t i) const {
    return !is_infinite(eers_[i]) &&
           eers_[i] <= system_->tasks()[i].relative_deadline;
  }

  /// Rejection detail from the first unschedulable task in build
  /// (ascending slot) order. `first_candidate_slot`: slots at or above
  /// it are trial candidates.
  [[nodiscard]] TrialFailure failure_of(
      std::optional<std::uint32_t> first_candidate_slot) {
    TrialFailure failure;
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      if (retired(i) || schedulable(i)) continue;
      failure.slot = slots_[i];
      failure.is_candidate = first_candidate_slot.has_value() &&
                             failure.slot >= *first_candidate_slot;
      failure.eer = eers_[i];
      failure.deadline = system_->tasks()[i].relative_deadline;
      const std::span<const Duration> row = table_.row(i);
      failure_bounds_.assign(row.begin(), row.end());
      failure.subtask_bounds = failure_bounds_;
      break;
    }
    return failure;
  }

  const SaDsOptions options_;
  // Persistent committed structures; all empty iff system_ is empty.
  std::optional<TaskSystem> system_;
  std::vector<std::uint32_t> slots_;  ///< per task index (holes too), ascending
  InterferenceMap imap_;
  SubtaskTable table_;           ///< committed (converged) IEER bounds
  IeertIncrementalState state_;  ///< persistent deps + warm seeds
  std::vector<Duration> eers_;   ///< per task index; a hole's is stale
  std::size_t failing_count_ = 0;  ///< live tasks whose EER misses the deadline
  std::size_t retired_rows_ = 0;   ///< hole rows awaiting compaction
  Time cap_ = -1;        ///< divergence cap of the committed analysis; -1 = none
  bool converged_ = true;  ///< committed table reached a fixpoint
  IeertSweepUndo undo_;    ///< reusable trial journal
  std::vector<Duration> failure_bounds_;  ///< backs the last TrialFailure

  /// Compaction runs once the holes are 1/kCompactionDivisor of the rows.
  static constexpr std::size_t kCompactionDivisor = 4;

  // Remove scratch, reused across requests (resolve_components); every
  // node is default between removes.
  static constexpr std::uint32_t kNoComponent = 0xFFFFFFFFu;
  struct ComponentNode {
    std::uint32_t index = 0;   ///< Tarjan visit order, 1-based; 0 = not in the cone
    std::uint32_t low = 0;
    std::uint32_t finish = 0;  ///< postorder stamp of the walk
    std::uint32_t component = kNoComponent;
    std::uint8_t forced = 0;   ///< equation changed with the removal
    std::uint8_t changed = 0;  ///< re-solved to a value other than the old one
    std::uint8_t stale = 0;    ///< queued for re-evaluation in its component
  };
  struct Frame {
    std::uint32_t node = 0;
    std::size_t edge = 0;  ///< next position in rdeps[node]
  };
  std::vector<ComponentNode> nodes_;            ///< per flat index, grown on demand
  std::vector<std::uint32_t> members_;          ///< components' members, emission order
  std::vector<std::uint32_t> component_begin_;  ///< per component, into members_
  std::vector<std::uint32_t> tarjan_stack_;
  std::vector<Frame> frames_;
  std::uint32_t visited_ = 0;   ///< entries the walk reached: the cone size
  std::uint32_t finished_ = 0;
  std::vector<Duration> old_values_;  ///< per member of the component being solved
};

}  // namespace

namespace detail {
std::unique_ptr<Engine> make_incremental_ds_engine(bool refine) {
  return std::make_unique<IncrementalDsEngine>(refine);
}
}  // namespace detail

}  // namespace e2e::admission
