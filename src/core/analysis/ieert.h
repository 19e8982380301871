// Algorithm IEERT (paper Figure 10): one refinement pass of the IEER
// (intermediate end-to-end response) bounds under the DS protocol.
//
// Under DS a subtask instance is released the moment its predecessor
// completes, so releases are *not* periodic: the release of T_{u,v}(m)
// can drift by up to R_{u,v-1} -- the predecessor's IEER bound -- after
// the periodic release of T_{u,1}(m). IEERT therefore treats R_{u,v-1}
// as release jitter in every ceiling term (the "clumping effect"):
//
//   Step 1  D_{i,j} = min{ t>0 : t = sum_{H u {self}} ceil((t+R_{u,v-1})/p_u) e_{u,v} }
//   Step 2  M_{i,j} = ceil((D_{i,j}+R_{i,j-1}) / p_i)
//   Step 3  C_{i,j}(m) = min{ t>0 : t = m e_{i,j} + sum_{H} ceil((t+R_{u,v-1})/p_u) e_{u,v} }
//           R_{i,j}(m) = C_{i,j}(m) + R_{i,j-1} - (m-1) p_i
//   Step 4  R'_{i,j} = max_m R_{i,j}(m)
//
// with R_{u,0} := 0 (first subtasks have no jitter).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/analysis/bounds.h"
#include "core/analysis/interference.h"
#include "task/system.h"

namespace e2e {

struct IeertOptions {
  /// Fixpoint divergence cap (absolute ticks).
  Time cap = kTimeInfinity;
  /// Extension (not in the paper): refine each jitter term from
  /// R_{u,v-1} to R_{u,v-1} - B_{u,v-1}, where B is the sum of execution
  /// times up to the predecessor -- the earliest a DS release can occur
  /// relative to the chain's first release. Releases of T_{u,v}(k) fall in
  /// [k p + B, k p + R], so ceil((t + R - B)/p) releases fit a window of
  /// length t: a sound, strictly tighter interference count (standard
  /// release-jitter argument, cf. Tindell & Clark's holistic analysis).
  /// Used by analyze_holistic_ds for the bound-tightness ablation.
  bool refine_jitter_with_best_case = false;
  /// When > 0, a subtask whose IEER bound exceeds this multiple of its
  /// task's period is reported as kTimeInfinity immediately. This is
  /// SA/DS's failure cutoff: no finite bound an entry solve returns
  /// exceeds it, so the SA/DS loop needs no separate capping step. It
  /// prunes the instance loop of divergent subtasks and lets infinity
  /// propagate in one pass rather than letting bounds crawl up by small
  /// increments over thousands of passes. 0 disables the cutoff.
  double failure_period_multiplier = 0.0;
};

/// Per-subtask fixpoint seeds carried across passes. The IEERT iteration
/// is a Kleene sequence -- the table only grows -- so every jitter term
/// only grows pass over pass, and with it each subtask's busy-period and
/// per-instance completion fixpoints. Seeding this pass's fixpoints from
/// last pass's values is therefore a monotone warm start: it converges
/// to exactly the cold-start least fixpoint, usually in one or two
/// iterations instead of re-deriving the whole busy period.
struct IeertWarmEntry {
  Time busy = 0;                  ///< last pass's busy-period duration
  std::vector<Time> completions;  ///< last pass's C(m), 1-indexed by m-1
};

/// Dirty-tracking state for incremental IEERT iteration. A subtask's
/// refined bound is a pure function of the `current` entries of its own
/// predecessor and of each interferer's predecessor (the jitter terms);
/// everything else in its equation is static. When none of those inputs
/// changed since the entry was last computed, recomputing it would
/// reproduce it exactly, so the incremental sweep skips it. Converging
/// iterations stabilize most entries early, making the final passes
/// nearly free; the result table is bit-identical to full passes.
///
/// The sweep never scans the entries' inputs for staleness: it drains a
/// worklist seeded from `force` and from the reverse dependencies of the
/// entries `changed` by the previous sweep, so its cost is the entries
/// it recomputes plus one word test per 64 entries.
struct IeertIncrementalState {
  /// Per flat subtask index: flat indices of its table inputs
  /// (ieert_table_inputs), fixed per system.
  std::vector<std::vector<std::uint32_t>> deps;
  /// Reverse index of `deps`: per flat index, the entries whose inputs
  /// include it, ascending. Must be kept in step with `deps`.
  std::vector<std::vector<std::uint32_t>> rdeps;
  /// When set, the next sweep recomputes every entry (first pass of a
  /// fresh analysis); the sweep clears it.
  bool recompute_all = true;
  /// Flat indices of the entries the last sweep changed, ascending.
  std::vector<std::uint32_t> changed;
  /// One-shot override consumed by the next sweep: flat indices treated
  /// as stale regardless of the dependency check (any order, duplicates
  /// allowed). Callers that seed the table from a previous analysis of a
  /// *different* system (the admission engine's delta re-analysis) use
  /// this to force exactly the entries whose demand equations changed --
  /// new rows, and rows whose interference set or blocking term moved --
  /// while the dependency tracking handles the transitive jitter
  /// propagation from there. Cleared by the sweep that consumes it.
  std::vector<std::uint32_t> force;
  /// Per flat subtask index: fixpoint seeds from the last recomputation,
  /// sized to the system by the caller. Non-empty seeds must
  /// under-approximate the fixpoints being solved.
  std::vector<IeertWarmEntry> warm;
  /// Sweep scratch: the worklist bitset over flat indices (all zero
  /// between sweeps) and the per-interferer jitter buffer of
  /// ieert_bound_entry.
  std::vector<std::uint64_t> pending;
  std::vector<Duration> hp_jitter;
  /// Running count of the entry solves (ieert_bound_entry calls) the
  /// sweeps ran; never reset by a sweep. Reporting only.
  std::uint64_t evaluations = 0;
};

/// Builds `state.deps` and `state.rdeps` for every subtask of `system`
/// from scratch; incremental callers delta-maintain them afterwards.
void ieert_index_dependencies(const TaskSystem& system,
                              const InterferenceMap& interference,
                              IeertIncrementalState& state);

/// Drops the entries [begin, end) -- the rows of one task retired by
/// InterferenceMap::retire -- from the dependency index. An entry
/// appears only in the lists its own `deps` and `rdeps` name, so only
/// those lists change; its own lists and warm seed empty out, and no
/// entry is renumbered.
void ieert_retire_entries(IeertIncrementalState& state, std::uint32_t begin,
                          std::uint32_t end);

/// Renumbers the index after InterferenceMap::compact, whose result
/// `new_flat` is: every live entry moves to its new flat index, and the
/// retired ones (emptied by ieert_retire_entries) go. O(n).
void ieert_compact_index(IeertIncrementalState& state,
                         std::span<const std::uint32_t> new_flat);

/// Order-dependent hash of `state.deps` and `state.rdeps`, for proving a
/// delta-maintained index equal to a fresh ieert_index_dependencies one.
[[nodiscard]] std::uint64_t ieert_dependency_hash(const IeertIncrementalState& state);

/// The Algorithm IEERT equation of one subtask (Figure 10 steps 1-4)
/// against `table`, exactly as the passes and sweeps recompute it.
/// `warm` (optional) is read as a seed and overwritten with this solve's
/// fixpoints; `hp_jitter` is a caller-owned scratch buffer.
[[nodiscard]] Duration ieert_bound_entry(const TaskSystem& system,
                                         const InterferenceMap& interference,
                                         const SubtaskTable& table, SubtaskRef ref,
                                         const IeertOptions& options,
                                         IeertWarmEntry* warm,
                                         std::vector<Duration>& hp_jitter);

/// One application R' = IEERT(T, R), the paper-literal Jacobi pass:
/// every entry is recomputed against the immutable `current` table.
/// `current` holds IEER bounds (cumulative along each chain); entries may
/// be kTimeInfinity, in which case dependent bounds become infinite as
/// well. Returns the refined table; never returns less than `current`
/// entry-wise when `current` is a genuine under-approximation (monotone
/// operator). The analyses iterate with ieert_sweep instead; this pass is
/// the reference the tests check the sweeps against.
[[nodiscard]] SubtaskTable ieert_pass(const TaskSystem& system,
                                      const InterferenceMap& interference,
                                      const SubtaskTable& current,
                                      const IeertOptions& options = {});

/// Flat indices of the `current` entries an IEERT recomputation of `ref`
/// reads: its own predecessor plus each interferer's predecessor (the
/// jitter terms). Everything else in the equation is static per system.
/// `hp` must be `interference.of(ref)`. Deduplicated, first occurrence
/// first -- the lists ieert_index_dependencies builds, exposed so the
/// admission engine can delta-maintain IeertIncrementalState::deps
/// across admits/removes instead of rebuilding all lists per request.
[[nodiscard]] std::vector<std::uint32_t> ieert_table_inputs(
    const InterferenceMap& interference, SubtaskRef ref,
    std::span<const Interferer> hp);

/// First-touch journal of one or more in-place ieert_sweep() calls:
/// everything needed to restore the table and warm seeds of a rejected
/// admission trial byte-for-byte. `arm(count)` resets it for a new
/// trial; each recomputed entry's pre-trial value and warm seed are
/// recorded exactly once (at first recomputation), so replaying the
/// journal in any order restores the pre-trial state. The journal keeps
/// its entries, and their warm seeds' capacity, from trial to trial: once
/// it has seen a trial of a given size, journaling another allocates
/// nothing.
class IeertSweepUndo {
 public:
  struct Entry {
    SubtaskRef ref;
    std::uint32_t flat = 0;
    Duration value = 0;
    IeertWarmEntry warm;
  };

  /// Resets the journal for a trial over `count` flat entries.
  void arm(std::size_t count) {
    for (std::size_t k = 0; k < size_; ++k) seen_[entries_[k].flat] = 0;
    seen_.resize(count, 0);
    size_ = 0;
  }

  /// True if armed for a system of `count` flat entries.
  [[nodiscard]] bool armed_for(std::size_t count) const noexcept {
    return seen_.size() == count;
  }

  /// Journals the pre-trial `value` and `warm` seed of entry `flat`,
  /// unless this trial already journaled it.
  void record(SubtaskRef ref, std::uint32_t flat, Duration value,
              const IeertWarmEntry& warm) {
    if (seen_[flat] != 0) return;
    seen_[flat] = 1;
    if (size_ == entries_.size()) entries_.emplace_back();
    Entry& e = entries_[size_++];
    e.ref = ref;
    e.flat = flat;
    e.value = value;
    e.warm = warm;  // copy-assignment reuses the entry's capacity
  }

  /// This trial's journal, in first-touch order.
  [[nodiscard]] std::span<const Entry> entries() const noexcept {
    return {entries_.data(), size_};
  }

  /// Writes every journaled pre-trial value and warm seed back.
  void replay(SubtaskTable& table, std::vector<IeertWarmEntry>& warm) const {
    for (const Entry& e : entries()) {
      table.set(e.ref, e.value);
      warm[e.flat] = e.warm;
    }
  }

 private:
  std::vector<std::uint8_t> seen_;  ///< per flat index: journaled this trial
  std::vector<Entry> entries_;      ///< [0, size_) live; the rest keep capacity
  std::size_t size_ = 0;
};

/// One in-place Gauss-Seidel sweep of `table`: entries updated earlier
/// in the sweep feed later ones immediately, so a chain's growth
/// propagates in one sweep instead of one link per sweep. Chaotic
/// iteration of the monotone IEERT operator from an under-approximation
/// reaches the same least fixpoint as the Jacobi passes (every
/// intermediate table stays between the start and the fixpoint), so the
/// converged table is bit-identical; only the number of sweeps differs.
/// Returns the number of entries whose value changed; 0 means `table` is
/// a fixpoint. `state.deps`, `state.rdeps` and `state.warm` must already
/// be sized to the system (ieert_index_dependencies, or the admission
/// engine's delta maintenance); sa_ds_iterate (sa_ds.h) is the loop
/// around it.
///
/// Recomputes, in ascending flat order, exactly the entries that are
/// forced, read an entry the previous sweep changed, or read an entry
/// this sweep changed earlier (lower flat index) -- the staleness rule
/// of a full scan, found through `state.rdeps` instead of by scanning.
/// Each recomputed fixpoint warm-starts from its previous value. With
/// `undo`, pre-recomputation values and warm seeds are journaled (first
/// touch only) for trial rollback.
std::size_t ieert_sweep(const TaskSystem& system, const InterferenceMap& interference,
                        SubtaskTable& table, const IeertOptions& options,
                        IeertIncrementalState& state, IeertSweepUndo* undo = nullptr);

}  // namespace e2e
