// Incremental SA/PM verdict engine.
//
// Under SA/PM every subtask bound is a pure function of its own demand
// equation: (period, exec, jitter, blocking, cap) plus the co-located
// higher-or-equal-priority interferer parameters. The engine therefore
// keeps, per processor, the resident subtask entries plus each entry's
// equation signature, converged bound, and SubtaskScratch fixpoints, and
// on every request re-solves exactly the entries whose *fresh* equation
// differs from the stored one:
//
//  * admit touches the candidate's processors only (every other entry's
//    equation -- interferer set, blocking -- is bit-identical, so
//    signature-exact reuse applies with no monotonicity argument). On a
//    touched processor a resident is skipped without even assembling its
//    equation when no candidate there has a level <= its own (none joins
//    its H set) and no non-preemptible candidate there has a level above
//    it (none can raise its blocking term): its equation, hence its
//    stored signature, is unchanged;
//  * admits never shrink demand or the cap, so re-solves warm-start from
//    the stored fixpoints (monotone warm start; entries whose previous
//    bound was infinite restart cold, since a larger cap can turn
//    "unbounded" into a finite bound);
//  * the divergence cap is 300 x the maximum live period, and stored
//    signatures leave it out. An admit that raises the maximum period
//    grows the cap; a finite stored bound stays exact under it (every
//    fixpoint iterate that produced it stayed <= its busy period, which
//    the old cap already admitted), so only entries whose stored bound is
//    infinite are reopened -- and those sit in failing tasks, so a
//    schedulable committed system reopens none;
//  * removes shrink demand, so touched entries restart cold; a remove
//    that moves the cap re-solves every entry.
//
// Storage is flat and reused across requests: tasks live in a pool whose
// slots a later request reuses (with their subtask scratch capacity), a
// plane entry names its task's pool index, and the trial's dirty list,
// candidate levels and snapshot journal are members. A rejected warm
// admit that the engine has seen before therefore allocates nothing.
// A rejected admit rolls back by restoring the journaled entries, so
// trial state never leaks. No TaskSystem or InterferenceMap is ever
// built: per-request cost is proportional to the touched processors'
// residents, not to the system -- which is where the order-of-magnitude
// win over full recompute comes from (bench_admission).
#include <algorithm>
#include <limits>
#include <utility>
#include <vector>

#include "admission/engine_internal.h"
#include "common/math.h"
#include "core/analysis/kernels.h"
#include "core/analysis/sa_pm.h"

namespace e2e::admission {
namespace {

struct PmSub {
  int processor = -1;
  Duration bound = 0;
  std::uint64_t signature = 0;  ///< of the equation without its cap
  SubtaskScratch scratch;
};

struct PmTask {
  std::uint32_t slot = 0;
  Duration period = 0;
  Duration deadline = 0;
  Duration eer = 0;
  std::uint64_t dirty_stamp = 0;  ///< request that last listed it dirty
  std::vector<PmSub> subs;
};

/// One resident subtask of a processor plane, ordered by (slot, sub) so
/// hp signatures are stable for unchanged interference sets. Carries
/// every parameter a co-located subtask's demand equation reads, so
/// assembling an equation is one contiguous scan of the plane, and the
/// pool index of its task, so reaching its bound needs no lookup.
struct PlaneEntry {
  std::uint32_t slot = 0;
  std::uint32_t sub = 0;
  std::uint32_t task = 0;  ///< index into the task pool
  int level = 0;
  bool preemptible = true;
  Duration period = 0;
  Duration jitter = 0;
  Duration exec = 0;
  friend bool operator<(const PlaneEntry& a, const PlaneEntry& b) noexcept {
    return a.slot != b.slot ? a.slot < b.slot : a.sub < b.sub;
  }
};

class IncrementalPmEngine final : public Engine {
 public:
  TrialVerdict admit(const SystemState& state, std::uint32_t slot,
                     const TaskSpec& spec) override {
    return admit_batch(state, slot, std::span<const TaskSpec>{&spec, 1});
  }

  TrialVerdict admit_batch(const SystemState& state, std::uint32_t first_slot,
                           std::span<const TaskSpec> specs) override {
    planes_.resize(state.processor_count());
    const bool was_empty = order_.empty();
    for (std::size_t i = 0; i < specs.size(); ++i) {
      insert_task(first_slot + static_cast<std::uint32_t>(i), specs[i]);
    }
    const Time new_cap = cap_from_periods();
    const bool cap_changed = was_empty || new_cap != cap_;
    PathRecord path{.path = was_empty     ? EnginePath::kBootstrap
                            : cap_changed ? EnginePath::kColdCap
                                          : EnginePath::kWarm};

    // Per plane, the candidates' lowest level and the highest level of a
    // non-preemptible candidate: a plane no candidate occupies keeps every
    // equation (bar the cap).
    levels_.assign(planes_.size(), CandidateLevels{});
    for (const TaskSpec& spec : specs) {
      for (const SubtaskSpec& sub : spec.subtasks) {
        CandidateLevels& l = levels_[static_cast<std::size_t>(sub.processor)];
        l.min_level = std::min(l.min_level, sub.priority_level);
        if (!sub.preemptible) l.max_np_level = std::max(l.max_np_level, sub.priority_level);
      }
    }

    // Journal everything the trial may overwrite; the candidates' own
    // entries need none (a reject erases the whole batch).
    ++stamp_;
    dirty_.clear();
    snap_count_ = 0;
    snap_eers_.clear();
    snap_failing_ = failing_;
    // A grown cap can only bound an entry that was unbounded, and every
    // unbounded entry belongs to a failing task.
    const bool reopen_unbounded = cap_changed && !failing_.empty();

    for (std::size_t p = 0; p < planes_.size(); ++p) {
      const CandidateLevels& l = levels_[p];
      if (l.min_level == std::numeric_limits<int>::max() && !reopen_unbounded) continue;
      const std::vector<PlaneEntry>& plane = planes_[p];
      for (std::size_t k = 0; k < plane.size(); ++k) {
        const PlaneEntry& ref = plane[k];
        PmSub& entry = pool_[ref.task].subs[ref.sub];
        const bool resident = ref.slot < first_slot;
        const bool reopen = cap_changed && is_infinite(entry.bound);
        // A resident that no candidate joins in its H set (none has a
        // level <= its own) and whose blocking term no non-preemptible
        // candidate below it can raise keeps its equation, so its stored
        // signature is current: skip assembling it.
        if (resident && entry.scratch.has && !reopen && l.min_level > ref.level &&
            l.max_np_level <= ref.level) {
          continue;
        }
        ResponseEquation eq = equation_of(plane, k);
        const std::uint64_t sig = response_equation_signature(eq, hp_view());
        if (sig == entry.signature && entry.scratch.has && !reopen) continue;
        if (resident) journal(ref, entry);
        eq.cap = new_cap;
        // Admits only grow demand and the cap, so finite fixpoints
        // warm-start; a previously unbounded entry must restart cold.
        const bool warm = entry.scratch.has && !is_infinite(entry.bound);
        entry.bound = solve_response_bound(eq, hp_view(), &entry.scratch, warm);
        ++path.evaluations;
        entry.signature = sig;
        mark_dirty(ref.task);
      }
    }

    for (const std::uint32_t t : dirty_) {
      if (pool_[t].slot < first_slot) snap_eers_.emplace_back(t, pool_[t].eer);
      refresh_task(t);
    }

    if (failing_.empty()) {
      cap_ = new_cap;
      return {true, std::nullopt, path};
    }

    TrialFailure failure = failure_of(failing_.front(), first_slot);
    // Roll back: the engine must be bit-identical to before the trial.
    for (std::size_t i = 0; i < snap_count_; ++i) {
      const EntrySnap& snap = snaps_[i];
      PmSub& entry = pool_[snap.task].subs[snap.sub];
      entry.bound = snap.bound;
      entry.signature = snap.signature;
      entry.scratch = snap.scratch;
    }
    for (const auto& [t, eer] : snap_eers_) pool_[t].eer = eer;
    failing_ = snap_failing_;
    for (std::size_t i = specs.size(); i-- > 0;) erase_task(order_.size() - 1);
    return {false, std::move(failure), path};
  }

  TrialVerdict remove(const SystemState& /*state*/, std::uint32_t slot) override {
    const auto pos = std::lower_bound(
        order_.begin(), order_.end(), slot,
        [this](std::uint32_t t, std::uint32_t s) { return pool_[t].slot < s; });
    const std::uint32_t departing = *pos;
    const auto failing_pos = std::find(failing_.begin(), failing_.end(), departing);
    if (failing_pos != failing_.end()) failing_.erase(failing_pos);
    touched_.assign(planes_.size(), 0);
    for (const PmSub& sub : pool_[departing].subs) {
      touched_[static_cast<std::size_t>(sub.processor)] = 1;
    }
    erase_task(static_cast<std::size_t>(pos - order_.begin()));
    if (order_.empty()) return {true, std::nullopt};

    const Time new_cap = cap_from_periods();
    const bool cap_changed = new_cap != cap_;
    PathRecord path{.path = cap_changed ? EnginePath::kColdCap : EnginePath::kWarm};
    if (cap_changed) std::fill(touched_.begin(), touched_.end(), 1);

    ++stamp_;
    dirty_.clear();
    for (std::size_t p = 0; p < planes_.size(); ++p) {
      if (touched_[p] == 0) continue;
      const std::vector<PlaneEntry>& plane = planes_[p];
      for (std::size_t k = 0; k < plane.size(); ++k) {
        const PlaneEntry& ref = plane[k];
        PmSub& entry = pool_[ref.task].subs[ref.sub];
        ResponseEquation eq = equation_of(plane, k);
        const std::uint64_t sig = response_equation_signature(eq, hp_view());
        if (!cap_changed && sig == entry.signature && entry.scratch.has) continue;
        // Demand (and perhaps the cap) shrank: the old fixpoint
        // over-approximates, so restart cold (signature-exact reuse
        // above needs no such care).
        eq.cap = new_cap;
        entry.bound = solve_response_bound(eq, hp_view(), &entry.scratch, false);
        ++path.evaluations;
        entry.signature = sig;
        mark_dirty(ref.task);
      }
    }
    for (const std::uint32_t t : dirty_) refresh_task(t);
    cap_ = new_cap;
    if (failing_.empty()) return {true, std::nullopt, path};
    return {false, failure_of(failing_.front(), std::nullopt), path};
  }

  std::uint64_t fold_bounds(std::uint64_t acc) const override {
    for (const std::uint32_t t : order_) {
      const PmTask& task = pool_[t];
      acc = hash_combine(acc, static_cast<std::uint64_t>(task.eer));
      for (const PmSub& sub : task.subs) {
        acc = hash_combine(acc, static_cast<std::uint64_t>(sub.bound));
      }
    }
    return acc;
  }

  double margin() const override {
    double worst = 0.0;
    for (const std::uint32_t t : order_) {
      worst = std::max(worst, detail::margin_ratio(pool_[t].eer, pool_[t].deadline));
    }
    return worst;
  }

  const char* name() const noexcept override { return "incremental"; }

 private:
  struct CandidateLevels {
    int min_level = std::numeric_limits<int>::max();
    int max_np_level = std::numeric_limits<int>::min();
  };

  /// A resident entry's pre-trial state.
  struct EntrySnap {
    std::uint32_t task = 0;
    std::uint32_t sub = 0;
    Duration bound = 0;
    std::uint64_t signature = 0;
    SubtaskScratch scratch;
  };

  /// Same expression as analyze_sa_pm's cap so bounds agree with the
  /// offline analysis of the identical system.
  [[nodiscard]] Time cap_from_periods() const {
    return sat_scale(SaPmOptions{}.cap_period_multiplier, period_counts_.back().first);
  }

  /// Assembles the demand equation of `plane[k]` against the *current*
  /// plane into the reusable hp buffers (valid until the next call). The
  /// cap is left at its default, so the equation's signature leaves it
  /// out; the caller sets it before solving.
  [[nodiscard]] ResponseEquation equation_of(const std::vector<PlaneEntry>& plane,
                                             std::size_t k) {
    hp_periods_.clear();
    hp_execs_.clear();
    hp_jitters_.clear();
    const PlaneEntry& self = plane[k];
    Duration blocking = 0;
    for (std::size_t i = 0; i < plane.size(); ++i) {
      if (i == k) continue;
      const PlaneEntry& other = plane[i];
      if (other.level <= self.level) {  // the paper's H set: >= priority
        hp_periods_.push_back(other.period);
        hp_execs_.push_back(other.exec);
        hp_jitters_.push_back(other.jitter);
      } else if (!other.preemptible) {
        blocking = std::max(blocking, other.exec - 1);
      }
    }
    return ResponseEquation{.period = self.period,
                            .exec = self.exec,
                            .jitter = self.jitter,
                            .blocking = blocking};
  }

  [[nodiscard]] HpView hp_view() const noexcept {
    return HpView{hp_periods_, hp_execs_, hp_jitters_};
  }

  /// Records a resident entry's pre-trial state (copy-assigned into the
  /// journal's retained capacity).
  void journal(const PlaneEntry& ref, const PmSub& entry) {
    if (snap_count_ == snaps_.size()) snaps_.emplace_back();
    EntrySnap& snap = snaps_[snap_count_++];
    snap.task = ref.task;
    snap.sub = ref.sub;
    snap.bound = entry.bound;
    snap.signature = entry.signature;
    snap.scratch = entry.scratch;
  }

  void mark_dirty(std::uint32_t t) {
    if (pool_[t].dirty_stamp == stamp_) return;
    pool_[t].dirty_stamp = stamp_;
    dirty_.push_back(t);
  }

  /// Recomputes a task's EER (SA/PM step 5: the sum of its subtask
  /// bounds) and its membership in the failing list.
  void refresh_task(std::uint32_t t) {
    PmTask& task = pool_[t];
    Duration eer = 0;
    for (const PmSub& sub : task.subs) eer = sat_add(eer, sub.bound);
    task.eer = eer;
    const auto pos = std::lower_bound(
        failing_.begin(), failing_.end(), task.slot,
        [this](std::uint32_t f, std::uint32_t s) { return pool_[f].slot < s; });
    const bool listed = pos != failing_.end() && *pos == t;
    const bool fails = is_infinite(eer) || eer > task.deadline;
    if (fails && !listed) failing_.insert(pos, t);
    if (!fails && listed) failing_.erase(pos);
  }

  /// Adds a task with a slot above every live one: a pool slot (reused
  /// when one is free, keeping its subtasks' scratch capacity), its plane
  /// entries, and its period.
  void insert_task(std::uint32_t slot, const TaskSpec& spec) {
    std::uint32_t t = 0;
    if (free_.empty()) {
      t = static_cast<std::uint32_t>(pool_.size());
      pool_.emplace_back();
    } else {
      t = free_.back();
      free_.pop_back();
    }
    PmTask& task = pool_[t];
    task.slot = slot;
    task.period = spec.period;
    task.deadline = spec.deadline;
    task.eer = 0;
    task.subs.resize(spec.subtasks.size());
    for (std::uint32_t j = 0; j < spec.subtasks.size(); ++j) {
      const SubtaskSpec& sub = spec.subtasks[j];
      PmSub& entry = task.subs[j];
      entry.processor = sub.processor;
      entry.bound = 0;
      entry.signature = 0;
      entry.scratch.has = false;
      auto& plane = planes_[static_cast<std::size_t>(sub.processor)];
      const PlaneEntry ref{.slot = slot,
                           .sub = j,
                           .task = t,
                           .level = sub.priority_level,
                           .preemptible = sub.preemptible,
                           .period = spec.period,
                           .jitter = spec.release_jitter,
                           .exec = sub.execution_time};
      plane.insert(std::lower_bound(plane.begin(), plane.end(), ref), ref);
    }
    order_.push_back(t);
    const auto it = std::lower_bound(
        period_counts_.begin(), period_counts_.end(), spec.period,
        [](const auto& entry, Duration period) { return entry.first < period; });
    if (it != period_counts_.end() && it->first == spec.period) {
      ++it->second;
    } else {
      period_counts_.insert(it, {spec.period, 1});
    }
  }

  /// Erases the task at position `at` of order_, returning its pool slot
  /// to the free list.
  void erase_task(std::size_t at) {
    const std::uint32_t t = order_[at];
    const PmTask& task = pool_[t];
    for (std::uint32_t j = 0; j < task.subs.size(); ++j) {
      auto& plane = planes_[static_cast<std::size_t>(task.subs[j].processor)];
      plane.erase(std::lower_bound(plane.begin(), plane.end(),
                                   PlaneEntry{.slot = task.slot, .sub = j}));
    }
    const auto it = std::lower_bound(
        period_counts_.begin(), period_counts_.end(), task.period,
        [](const auto& entry, Duration p) { return entry.first < p; });
    if (--it->second == 0) period_counts_.erase(it);
    order_.erase(order_.begin() + static_cast<std::ptrdiff_t>(at));
    free_.push_back(t);
  }

  [[nodiscard]] TrialFailure failure_of(
      std::uint32_t t, std::optional<std::uint32_t> first_candidate_slot) {
    const PmTask& task = pool_[t];
    failure_bounds_.clear();
    for (const PmSub& sub : task.subs) failure_bounds_.push_back(sub.bound);
    return TrialFailure{
        .slot = task.slot,
        .is_candidate =
            first_candidate_slot.has_value() && task.slot >= *first_candidate_slot,
        .eer = task.eer,
        .deadline = task.deadline,
        .subtask_bounds = failure_bounds_};
  }

  std::vector<PmTask> pool_;          ///< live tasks plus reusable free slots
  std::vector<std::uint32_t> free_;   ///< pool slots not in use
  std::vector<std::uint32_t> order_;  ///< live pool slots, ascending task slot
  std::vector<std::vector<PlaneEntry>> planes_;  // per processor, sorted
  /// (period, live tasks with it), ascending: the back is the max period.
  std::vector<std::pair<Duration, std::uint32_t>> period_counts_;
  /// Pool slots of the unschedulable tasks, ascending task slot.
  std::vector<std::uint32_t> failing_;
  Time cap_ = 0;  ///< valid only while tasks are live

  // Per-request scratch, reused (never shared across threads).
  std::uint64_t stamp_ = 0;
  std::vector<std::uint32_t> dirty_;  ///< pool slots whose bounds moved
  std::vector<CandidateLevels> levels_;
  std::vector<std::uint8_t> touched_;
  std::vector<EntrySnap> snaps_;  ///< [0, snap_count_) live; the rest keep capacity
  std::size_t snap_count_ = 0;
  std::vector<std::pair<std::uint32_t, Duration>> snap_eers_;
  std::vector<std::uint32_t> snap_failing_;
  std::vector<Duration> failure_bounds_;  ///< backs the last TrialFailure
  std::vector<Duration> hp_periods_;
  std::vector<Duration> hp_execs_;
  std::vector<Duration> hp_jitters_;
};

}  // namespace

namespace detail {
std::unique_ptr<Engine> make_incremental_pm_engine() {
  return std::make_unique<IncrementalPmEngine>();
}
}  // namespace detail

}  // namespace e2e::admission
