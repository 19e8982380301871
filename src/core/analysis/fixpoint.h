// Generic monotone fixpoint solver.
//
// Every response-time equation in the paper has the shape
//     t = W(t),   W monotone non-decreasing, right-continuous step function
// and is solved by the iteration S_0 = W(0+), S_k = W(S_{k-1}), which
// converges to the least positive fixpoint when one exists (Lehoczky '90).
// When the underlying utilization exceeds 1 the iteration diverges; we cap
// it and report "unbounded".
//
// The solver is a template over the demand callable W(t) -- the total
// time demanded in [0, t], monotone non-decreasing in t and possibly
// saturating at kTimeInfinity -- so the concrete kernels
// (core/analysis/demand.h, kernels.h) inline into the iteration loop.
#pragma once

#include <algorithm>
#include <concepts>
#include <optional>

#include "common/error.h"
#include "common/time.h"

namespace e2e {

struct FixpointOptions {
  /// Give up once the iterate exceeds this value (divergence cap).
  Time cap = kTimeInfinity;
  /// Hard limit on iteration count (secondary safety net; each iteration
  /// strictly increases the iterate by at least one tick, so `cap`
  /// normally triggers first).
  int max_iterations = 1 << 22;
};

/// As solve_fixpoint below but starts the iteration at `start` (used for
/// the completion-time equations, whose least fixpoint is known to be
/// >= m * e_{i,j}, and by the warm-started re-analyses, which start from
/// the previous run's fixpoint). Requires start <= the least fixpoint for
/// an exact answer; a larger start returns max(least fixpoint, start).
template <typename Demand>
  requires std::invocable<const Demand&, Time>
[[nodiscard]] std::optional<Time> solve_fixpoint_from(Time start, const Demand& demand,
                                                      const FixpointOptions& options = {}) {
  Time t = std::max<Time>(start, 1);
#ifndef NDEBUG
  // Debug builds verify the iterate sequence W(t_0), W(t_1), ... is
  // monotone non-decreasing -- the property every convergence argument in
  // this file rests on. (t only grows between iterations, so a decrease
  // means the demand function itself is not monotone.)
  Duration debug_previous_w = -1;
#endif
  for (int iter = 0; iter < options.max_iterations; ++iter) {
    if (t > options.cap || is_infinite(t)) return std::nullopt;
    const Duration w = demand(t);
    E2E_ASSERT(w >= 0, "demand function must be non-negative");
#ifndef NDEBUG
    E2E_ASSERT(w >= debug_previous_w, "demand iterates must be monotone");
    debug_previous_w = w;
#endif
    if (w <= t) {
      // Monotonicity gives w == demand(w) <= w ... the first t with
      // W(t) <= t starting from below the least fixpoint *is* the least
      // fixpoint (the iterate never overshoots a fixpoint).
      return std::max<Time>(w, start);
    }
    t = w;
  }
  return std::nullopt;
}

/// Solves min{ t > 0 : t = W(t) } by the standard iteration seeded with
/// S_0 = W(1) (~ W(0+)). The seed doubles as the first iterate: when
/// W(1) <= 1 it is already the answer, so the demand function is never
/// evaluated twice at the same point. Returns std::nullopt if the iterate
/// exceeds `options.cap`, saturates, or the iteration budget is exhausted.
template <typename Demand>
  requires std::invocable<const Demand&, Time>
[[nodiscard]] std::optional<Time> solve_fixpoint(const Demand& demand,
                                                 const FixpointOptions& options = {}) {
  const Duration seed = demand(1);
  E2E_ASSERT(seed >= 0, "demand function must be non-negative");
  if (seed <= 1) {
    // W(1) <= 1: t = 1 already satisfies W(t) <= t, and by monotonicity
    // the least positive fixpoint is W(1) itself.
    return options.cap < 1 ? std::nullopt : std::optional<Time>{seed};
  }
  return solve_fixpoint_from(seed, demand, options);
}

}  // namespace e2e
