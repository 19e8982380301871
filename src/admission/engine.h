// Verdict engines behind the admission controller.
//
// An Engine owns the analysis-side state for one controller: per-task
// EER bounds, per-subtask bounds, and whatever warm-start material its
// strategy keeps between requests. Two families exist per policy:
//
//  * the full-recompute engine rebuilds the TaskSystem and reruns the
//    offline analysis (analyze_sa_pm / analyze_sa_ds / analyze_holistic_ds)
//    from scratch on every request -- the obviously-correct baseline;
//
//  * the incremental engines answer the same requests by delta analysis:
//    SA/PM re-solves only the subtask equations whose content signature
//    changed (the candidate's processors; everything, if the divergence
//    cap moved), warm-starting the touched fixpoints, and SA/DS seeds the
//    IEERT iteration from the previous converged table, forcing exactly
//    the equation-changed entries and letting the dependency dirty-skip
//    propagate from there.
//
// Both are required to produce bit-identical verdicts, bounds, and fold
// hashes on every request of every stream; bench_admission enforces this
// with cross-folded result hashes and the admission property test
// re-checks it after every single request. The incremental engines'
// soundness rests on the least-fixpoint facts documented in
// core/analysis/scratch.h and ieert.h; where a perturbation breaks the
// monotone-warm-start precondition they restart exactly the affected
// entries cold: SA/PM the touched equations, SA/DS the dependency
// components a removal reaches (docs/admission.md), and both the whole
// system when the divergence cap moves.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "admission/state.h"
#include "admission/types.h"

namespace e2e::admission {

/// The first unschedulable task of a failed trial, in build (ascending
/// slot) order -- enough for a rejection-with-reason report.
struct TrialFailure {
  std::uint32_t slot = 0;
  bool is_candidate = false;
  Duration eer = kTimeInfinity;
  Duration deadline = 0;
  /// Per-subtask bounds of the failing task (response bounds under PM,
  /// cumulative IEER bounds under DS/holistic). Engine-owned: valid until
  /// the engine's next request, so a rejection allocates nothing.
  std::span<const Duration> subtask_bounds;
};

struct TrialVerdict {
  bool schedulable = false;
  std::optional<TrialFailure> failure;  ///< set iff !schedulable
  PathRecord path;                      ///< reporting only
};

class Engine {
 public:
  virtual ~Engine() = default;

  /// Trial-admits `spec` as slot `slot` against `state` (which does not
  /// contain it yet). On a schedulable verdict the engine has committed
  /// its internal tables to the post-admit system (the caller then
  /// commits `state`); on rejection the engine is unchanged.
  virtual TrialVerdict admit(const SystemState& state, std::uint32_t slot,
                             const TaskSpec& spec) = 0;

  /// Trial-admits `specs` as the consecutive slots `first_slot`,
  /// `first_slot + 1`, ... through ONE analysis trajectory, with a single
  /// commit-or-rollback: on a schedulable verdict all of them are
  /// committed (the caller then commits `state` in the same order); on
  /// rejection the engine is unchanged and none are. A failure names the
  /// first unschedulable task; `is_candidate` is true for any batch
  /// member (slot >= first_slot). `specs` must be non-empty.
  virtual TrialVerdict admit_batch(const SystemState& state,
                                   std::uint32_t first_slot,
                                   std::span<const TaskSpec> specs) = 0;

  /// Removes `slot`; called *before* the state commit (the spec is still
  /// readable). Always commits; the verdict reports whether the
  /// remaining system is schedulable (a removal can break SA/PM bounds
  /// by shrinking the divergence cap).
  virtual TrialVerdict remove(const SystemState& state, std::uint32_t slot) = 0;

  /// Folds every committed bound into `acc` in ascending-slot order (per
  /// task: EER bound, then each subtask bound). Equal folds mean equal
  /// tables -- the cross-engine identity check.
  [[nodiscard]] virtual std::uint64_t fold_bounds(std::uint64_t acc) const = 0;

  /// max over live tasks of EER / deadline (1e9 for unbounded, 0 when
  /// empty) -- the `query` metric.
  [[nodiscard]] virtual double margin() const = 0;

  [[nodiscard]] virtual const char* name() const noexcept = 0;

  /// Content hashes of an engine's persistent delta-maintained analysis
  /// structures, for lockstep equivalence tests against fresh
  /// construction. Engines without such structures (the full-recompute
  /// family, SA/PM) return nullopt, as does an engine with no live tasks.
  struct StructureDigest {
    std::uint64_t interference_hash = 0;  ///< InterferenceMap::content_hash()
    std::uint64_t table_hash = 0;         ///< converged SubtaskTable::content_hash()
    std::uint64_t dependency_hash = 0;    ///< ieert_dependency_hash() of the IEERT index
  };
  [[nodiscard]] virtual std::optional<StructureDigest> structure_digest() const {
    return std::nullopt;
  }
};

[[nodiscard]] std::unique_ptr<Engine> make_engine(Policy policy,
                                                  bool full_recompute);

}  // namespace e2e::admission
