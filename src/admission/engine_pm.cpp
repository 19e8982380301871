// Incremental SA/PM verdict engine.
//
// Under SA/PM every subtask bound is a pure function of its own demand
// equation: (period, exec, jitter, blocking, cap) plus the co-located
// higher-or-equal-priority interferer parameters. The engine therefore
// keeps, per processor, the resident subtask entries plus each entry's
// equation signature, converged bound, and SubtaskScratch fixpoints, and
// on every request re-solves exactly the entries whose *fresh* signature
// differs from the stored one:
//
//  * admit touches the candidate's processors only (every other entry's
//    equation -- interferer set, blocking, cap -- is bit-identical, so
//    signature-exact reuse applies with no monotonicity argument). On a
//    touched processor, under an unchanged cap, a resident is skipped
//    without even assembling its equation when no candidate there has a
//    level <= its own (none joins its H set) and no non-preemptible
//    candidate there has a level above it (none can raise its blocking
//    term): its equation, hence its stored signature, is unchanged;
//  * admits never shrink demand or the cap, so re-solves warm-start from
//    the stored fixpoints (monotone warm start; entries whose previous
//    bound was infinite restart cold, since a larger cap can turn
//    "unbounded" into a finite bound);
//  * removes shrink demand, so touched entries restart cold;
//  * the divergence cap is 300 x the maximum live period; when the
//    maximum period changes, every signature in the system changes and
//    the sweep widens to all processors -- rare under steady churn.
//
// A rejected admit rolls back by restoring the snapshotted entries, so
// trial state never leaks. No TaskSystem or InterferenceMap is ever
// built: per-request cost is proportional to the touched processors'
// residents, not to the system -- which is where the order-of-magnitude
// win over full recompute comes from (bench_admission).
#include <algorithm>
#include <limits>
#include <map>
#include <set>
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
  std::uint64_t signature = 0;
  SubtaskScratch scratch;
};

struct PmTask {
  Duration deadline = 0;
  Duration eer = 0;
  std::vector<PmSub> subs;
};

/// One resident subtask of a processor plane, ordered by (slot, sub) so
/// hp signatures are stable for unchanged interference sets. Carries
/// every parameter a co-located subtask's demand equation reads, so
/// assembling an equation is one contiguous scan of the plane.
struct PlaneEntry {
  std::uint32_t slot = 0;
  std::uint32_t sub = 0;
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
    const bool was_empty = live_.empty();
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
    // equation unless the cap moved.
    struct CandidateLevels {
      int min_level = std::numeric_limits<int>::max();
      int max_np_level = std::numeric_limits<int>::min();
    };
    std::vector<CandidateLevels> levels(planes_.size());
    for (const TaskSpec& spec : specs) {
      for (const SubtaskSpec& sub : spec.subtasks) {
        CandidateLevels& l = levels[static_cast<std::size_t>(sub.processor)];
        l.min_level = std::min(l.min_level, sub.priority_level);
        if (!sub.preemptible) l.max_np_level = std::max(l.max_np_level, sub.priority_level);
      }
    }

    // Snapshot everything the trial may overwrite; the candidates' own
    // entries need none (a reject erases the whole batch).
    struct EntrySnap {
      PlaneEntry ref;
      Duration bound;
      std::uint64_t signature;
      SubtaskScratch scratch;
    };
    std::vector<EntrySnap> snap_entries;
    std::vector<std::pair<std::uint32_t, Duration>> snap_eers;
    const std::set<std::uint32_t> snap_failing = failing_;

    std::set<std::uint32_t> dirty;
    for (std::size_t p = 0; p < planes_.size(); ++p) {
      const CandidateLevels& l = levels[p];
      if (!cap_changed && l.min_level == std::numeric_limits<int>::max()) continue;
      for (std::size_t k = 0; k < planes_[p].size(); ++k) {
        const PlaneEntry& ref = planes_[p][k];
        PmSub& entry = sub_of(ref);
        // Under an unchanged cap, a resident that no candidate joins in
        // its H set (none has a level <= its own) and whose blocking term
        // no non-preemptible candidate below it can raise keeps its
        // equation, so its stored signature is current: skip assembling
        // it.
        if (!cap_changed && ref.slot < first_slot && entry.scratch.has &&
            l.min_level > ref.level && l.max_np_level <= ref.level) {
          continue;
        }
        const ResponseEquation eq = equation_of(planes_[p], k, new_cap);
        const std::uint64_t sig = response_equation_signature(eq, hp_view());
        if (sig == entry.signature && entry.scratch.has) continue;
        if (ref.slot < first_slot) {
          snap_entries.push_back({ref, entry.bound, entry.signature, entry.scratch});
        }
        // Admits only grow demand and the cap, so finite fixpoints
        // warm-start; a previously unbounded entry must restart cold.
        const bool warm = entry.scratch.has && !is_infinite(entry.bound);
        entry.bound = solve_response_bound(eq, hp_view(), &entry.scratch, warm);
        ++path.evaluations;
        entry.signature = sig;
        dirty.insert(ref.slot);
      }
    }

    for (const std::uint32_t s : dirty) {
      PmTask& task = live_.at(s);
      if (s < first_slot) snap_eers.emplace_back(s, task.eer);
      refresh_task(s, task);
    }

    if (failing_.empty()) {
      cap_ = new_cap;
      return {true, std::nullopt, path};
    }

    TrialFailure failure = failure_of(*failing_.begin(), first_slot);
    // Roll back: the engine must be bit-identical to before the trial.
    for (const EntrySnap& snap : snap_entries) {
      PmSub& entry = sub_of(snap.ref);
      entry.bound = snap.bound;
      entry.signature = snap.signature;
      entry.scratch = snap.scratch;
    }
    for (const auto& [s, eer] : snap_eers) live_.at(s).eer = eer;
    failing_ = snap_failing;
    for (std::size_t i = specs.size(); i-- > 0;) {
      erase_task(first_slot + static_cast<std::uint32_t>(i), specs[i].period);
    }
    return {false, std::move(failure), path};
  }

  TrialVerdict remove(const SystemState& state, std::uint32_t slot) override {
    const TaskSpec& spec = state.spec(slot);
    erase_task(slot, spec.period);
    failing_.erase(slot);
    if (live_.empty()) return {true, std::nullopt};

    const Time new_cap = cap_from_periods();
    const bool cap_changed = new_cap != cap_;
    PathRecord path{.path = cap_changed ? EnginePath::kColdCap : EnginePath::kWarm};
    std::vector<std::uint8_t> touched(planes_.size(), 0);
    if (cap_changed) {
      std::fill(touched.begin(), touched.end(), 1);
    } else {
      for (const SubtaskSpec& sub : spec.subtasks) {
        touched[static_cast<std::size_t>(sub.processor)] = 1;
      }
    }

    std::set<std::uint32_t> dirty;
    for (std::size_t p = 0; p < planes_.size(); ++p) {
      if (touched[p] == 0) continue;
      for (std::size_t k = 0; k < planes_[p].size(); ++k) {
        const PlaneEntry& ref = planes_[p][k];
        PmSub& entry = sub_of(ref);
        const ResponseEquation eq = equation_of(planes_[p], k, new_cap);
        const std::uint64_t sig = response_equation_signature(eq, hp_view());
        if (sig == entry.signature && entry.scratch.has) continue;
        // Demand shrank: the old fixpoint over-approximates, so restart
        // cold (signature-exact reuse above needs no such care).
        entry.scratch = SubtaskScratch{};
        entry.bound = solve_response_bound(eq, hp_view(), &entry.scratch, false);
        ++path.evaluations;
        entry.signature = sig;
        dirty.insert(ref.slot);
      }
    }
    for (const std::uint32_t s : dirty) refresh_task(s, live_.at(s));
    cap_ = new_cap;
    if (failing_.empty()) return {true, std::nullopt, path};
    return {false, failure_of(*failing_.begin(), std::nullopt), path};
  }

  std::uint64_t fold_bounds(std::uint64_t acc) const override {
    for (const auto& [slot, task] : live_) {
      acc = hash_combine(acc, static_cast<std::uint64_t>(task.eer));
      for (const PmSub& sub : task.subs) {
        acc = hash_combine(acc, static_cast<std::uint64_t>(sub.bound));
      }
    }
    return acc;
  }

  double margin() const override {
    double worst = 0.0;
    for (const auto& [slot, task] : live_) {
      worst = std::max(worst, detail::margin_ratio(task.eer, task.deadline));
    }
    return worst;
  }

  const char* name() const noexcept override { return "incremental"; }

 private:
  [[nodiscard]] PmSub& sub_of(const PlaneEntry& ref) {
    return live_.at(ref.slot).subs[ref.sub];
  }

  /// Same expression as analyze_sa_pm's cap so signatures agree with the
  /// offline analysis of the identical system.
  [[nodiscard]] Time cap_from_periods() const {
    const Duration max_period = period_counts_.rbegin()->first;
    return sat_scale(SaPmOptions{}.cap_period_multiplier, max_period);
  }

  /// Assembles the demand equation of `plane[k]` against the *current*
  /// plane into the reusable hp buffers (valid until the next call).
  [[nodiscard]] ResponseEquation equation_of(const std::vector<PlaneEntry>& plane,
                                             std::size_t k, Time cap) {
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
                            .blocking = blocking,
                            .cap = cap};
  }

  [[nodiscard]] HpView hp_view() const noexcept {
    return HpView{hp_periods_, hp_execs_, hp_jitters_};
  }

  /// Recomputes a task's EER (SA/PM step 5: the sum of its subtask
  /// bounds) and its membership in the failing set.
  void refresh_task(std::uint32_t slot, PmTask& task) {
    Duration eer = 0;
    for (const PmSub& sub : task.subs) eer = sat_add(eer, sub.bound);
    task.eer = eer;
    if (!is_infinite(eer) && eer <= task.deadline) {
      failing_.erase(slot);
    } else {
      failing_.insert(slot);
    }
  }

  void insert_task(std::uint32_t slot, const TaskSpec& spec) {
    PmTask task{.deadline = spec.deadline};
    task.subs.reserve(spec.subtasks.size());
    for (const SubtaskSpec& sub : spec.subtasks) {
      task.subs.push_back({.processor = sub.processor});
    }
    live_.emplace(slot, std::move(task));
    for (std::uint32_t j = 0; j < spec.subtasks.size(); ++j) {
      const SubtaskSpec& sub = spec.subtasks[j];
      auto& plane = planes_[static_cast<std::size_t>(sub.processor)];
      const PlaneEntry ref{.slot = slot,
                           .sub = j,
                           .level = sub.priority_level,
                           .preemptible = sub.preemptible,
                           .period = spec.period,
                           .jitter = spec.release_jitter,
                           .exec = sub.execution_time};
      plane.insert(std::lower_bound(plane.begin(), plane.end(), ref), ref);
    }
    ++period_counts_[spec.period];
  }

  void erase_task(std::uint32_t slot, Duration period) {
    const auto it = live_.find(slot);
    for (std::uint32_t j = 0; j < it->second.subs.size(); ++j) {
      auto& plane =
          planes_[static_cast<std::size_t>(it->second.subs[j].processor)];
      const auto pos =
          std::lower_bound(plane.begin(), plane.end(), PlaneEntry{.slot = slot, .sub = j});
      plane.erase(pos);
    }
    live_.erase(it);
    const auto period_it = period_counts_.find(period);
    if (--period_it->second == 0) period_counts_.erase(period_it);
  }

  [[nodiscard]] TrialFailure failure_of(
      std::uint32_t slot, std::optional<std::uint32_t> first_candidate_slot) const {
    const PmTask& task = live_.at(slot);
    TrialFailure failure{
        .slot = slot,
        .is_candidate =
            first_candidate_slot.has_value() && slot >= *first_candidate_slot,
        .eer = task.eer,
        .deadline = task.deadline};
    for (const PmSub& sub : task.subs) failure.subtask_bounds.push_back(sub.bound);
    return failure;
  }

  std::map<std::uint32_t, PmTask> live_;
  std::vector<std::vector<PlaneEntry>> planes_;  // per processor, sorted
  std::map<Duration, std::size_t> period_counts_;
  std::set<std::uint32_t> failing_;  // slots whose task is unschedulable
  Time cap_ = 0;                     // valid only while live_ is non-empty
  // Reusable hp-assembly buffers (never shared across threads).
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
