// HOPA-style iterative priority optimization (after Garcia & Harbour,
// "Optimized priority assignment for tasks and messages in distributed
// hard real-time systems" -- reference [10] of the paper).
//
// The paper fixes Proportional-Deadline-Monotonic priorities and is "not
// concerned with the problem of how to assign priorities". This module
// closes that loop: starting from the system's current priorities, it
// repeatedly (1) runs Algorithm SA/PM, (2) redistributes each task's
// end-to-end deadline over its subtasks proportionally to their response
// bounds, and (3) re-derives deadline-monotonic priorities from the new
// local deadlines -- keeping the best assignment seen, judged by the
// schedulability margin max_i (EER bound_i / D_i).
#pragma once

#include "core/analysis/bounds.h"
#include "core/analysis/sa_pm.h"
#include "task/system.h"

namespace e2e {

struct HopaOptions {
  /// Redistribution rounds (each costs one SA/PM run).
  int iterations = 8;
  /// Stand-in ratio for tasks whose EER bound is infinite.
  double unbounded_margin = 1e9;
  /// Options forwarded to each SA/PM run.
  SaPmOptions analysis = {};
  /// Carry one AnalysisScratch across rounds, so subtasks whose demand
  /// equation a priority reshuffle did not touch reuse their previous
  /// fixpoints (signature-exact, hence bit-identical results), and skip
  /// the rebuild + re-analysis entirely once the deadline redistribution
  /// stops moving any priority level (the common case after a few
  /// rounds). Off re-analyzes every round from cold: the reference the
  /// tests compare against. The returned HopaResult is identical either
  /// way.
  bool warm_start = true;
};

struct HopaResult {
  /// The input system re-built with the best priority assignment found.
  TaskSystem system;
  /// max_i (SA/PM EER bound_i / D_i) of `system`; <= 1 means schedulable.
  double margin = 0.0;
  /// Margin of the input assignment, for comparison.
  double initial_margin = 0.0;
  /// Rounds actually executed.
  int iterations_run = 0;

  [[nodiscard]] bool improved() const noexcept { return margin < initial_margin; }
  [[nodiscard]] bool schedulable() const noexcept { return margin <= 1.0; }
};

/// Runs the optimization. Deterministic; never returns an assignment
/// worse than the input's.
[[nodiscard]] HopaResult optimize_priorities_hopa(const TaskSystem& system,
                                                  const HopaOptions& options = {});

/// The schedulability margin of `system` under Algorithm SA/PM:
/// max_i (EER bound_i / D_i), or `unbounded_margin` if some bound is
/// infinite.
[[nodiscard]] double schedulability_margin(const TaskSystem& system,
                                           double unbounded_margin = 1e9);

/// As above over an already-computed result (any analysis whose EER
/// bounds the caller wants rated; the admission controller reports this
/// for `query` requests without re-running the analysis).
[[nodiscard]] double schedulability_margin(const TaskSystem& system,
                                           const AnalysisResult& analysis,
                                           double unbounded_margin = 1e9);

}  // namespace e2e
