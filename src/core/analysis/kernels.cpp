#include "core/analysis/kernels.h"

#include <algorithm>
#include <optional>
#include <vector>

#include "common/hash.h"
#include "common/math.h"
#include "core/analysis/demand.h"
#include "core/analysis/fixpoint.h"

namespace e2e {
namespace {

[[nodiscard]] constexpr std::uint64_t mix(std::uint64_t acc, std::int64_t v) noexcept {
  return hash_combine(acc, static_cast<std::uint64_t>(v));
}

}  // namespace

std::uint64_t response_equation_signature(const ResponseEquation& eq,
                                          const HpView& hp) {
  std::uint64_t h = mix(0, eq.period);
  h = mix(h, eq.exec);
  h = mix(h, eq.jitter);
  h = mix(h, eq.blocking);
  h = mix(h, eq.cap);
  for (std::size_t k = 0; k < hp.size(); ++k) {
    h = mix(h, hp.periods[k]);
    h = mix(h, hp.execs[k]);
    h = mix(h, hp.jitters[k]);
  }
  return h;
}

Duration solve_response_bound(const ResponseEquation& eq, const HpView& hp,
                              SubtaskScratch* sc, bool warm) {
  const Duration period = eq.period;
  const Duration exec = eq.exec;
  const Duration jitter = eq.jitter;
  const Duration blocking = eq.blocking;
  const FixpointOptions fp{.cap = eq.cap};

  warm = warm && sc != nullptr && sc->has;
  if (warm && is_infinite(sc->bound)) {
    // The previous (dominated, same-or-larger-cap) equation already
    // diverged; the new one diverges a fortiori.
    return kTimeInfinity;
  }
  const auto record_unbounded = [&]() -> Duration {
    if (sc != nullptr) {
      sc->has = true;
      sc->busy = 0;
      sc->bound = kTimeInfinity;
      sc->completions.clear();
    }
    return kTimeInfinity;
  };

  // Step 1: busy-period duration D_{i,j} (interference set plus self).
  const DemandEvaluator busy_eval{
      .periods = hp.periods,
      .execs = hp.execs,
      .jitters = hp.jitters,
      .constant = blocking,
      .self_period = period,
      .self_exec = exec,
      .self_jitter = jitter,
  };
  std::optional<Time> busy;
  if (warm) {
    busy = solve_fixpoint_from(std::max<Time>(sc->busy, 1), busy_eval, fp);
  } else {
    busy = solve_fixpoint(busy_eval, fp);
  }
  if (!busy) return record_unbounded();

  // Step 2: number of instances in the busy period.
  const std::int64_t instances = ceil_div(sat_add(*busy, jitter), period);

  // Steps 3-4: bound each instance's response time, take the max. C(m)
  // grows by at least `exec` per instance, so each fixpoint warm-starts
  // from the previous completion (and, when warm, from the previous
  // run's C(m) -- also <= the new least fixpoint).
  Duration worst = 0;
  Time previous_completion = 0;
  std::vector<Time> completions;
  if (sc != nullptr) completions.reserve(static_cast<std::size_t>(instances));
  for (std::int64_t m = 1; m <= instances; ++m) {
    Time start = std::max(sat_mul(m, exec), sat_add(previous_completion, exec));
    if (warm && static_cast<std::size_t>(m) <= sc->completions.size()) {
      start = std::max(start, sc->completions[static_cast<std::size_t>(m - 1)]);
    }
    const DemandEvaluator completion_eval{
        .periods = hp.periods,
        .execs = hp.execs,
        .jitters = hp.jitters,
        .constant = sat_add(blocking, sat_mul(m, exec)),
    };
    const std::optional<Time> completion = solve_fixpoint_from(start, completion_eval, fp);
    if (!completion) return record_unbounded();
    previous_completion = *completion;
    if (sc != nullptr) completions.push_back(*completion);
    worst = std::max(worst, sat_add(*completion, jitter) - (m - 1) * period);
    // C(m') <= busy for every later instance, so none can beat `worst`.
    if (sat_add(*busy, jitter) - m * period <= worst) break;
  }
  if (sc != nullptr) {
    sc->has = true;
    sc->busy = *busy;
    sc->bound = worst;
    sc->completions = std::move(completions);
  }
  return worst;
}

Duration solve_ieer_bound(const IeerEquation& eq, const HpView& hp,
                          IeertWarmEntry* warm) {
  const Duration period = eq.period;
  const Duration exec = eq.exec;
  const Duration own_jitter = eq.own_jitter;
  const Duration own_accum = eq.own_accum;
  const Duration blocking = eq.blocking;
  const Duration cutoff = eq.cutoff;
  if (is_infinite(own_accum)) return kTimeInfinity;
  // IEER >= predecessor IEER + own execution: already beyond salvation.
  if (own_accum > cutoff) return kTimeInfinity;
  const FixpointOptions fp{.cap = eq.cap};

  // Step 1: busy-period duration with jittered ceilings (self included).
  const DemandEvaluator busy_eval{
      .periods = hp.periods,
      .execs = hp.execs,
      .jitters = hp.jitters,
      .constant = blocking,
      .self_period = period,
      .self_exec = exec,
      .self_jitter = own_jitter,
  };
  std::optional<Time> busy;
  if (warm != nullptr && warm->busy > 0) {
    // Kleene monotonicity: this pass's jitters dominate last pass's, so
    // last pass's busy period under-approximates this pass's fixpoint.
    busy = solve_fixpoint_from(warm->busy, busy_eval, fp);
  } else {
    busy = solve_fixpoint(busy_eval, fp);
  }
  if (!busy) return kTimeInfinity;
  if (warm != nullptr) warm->busy = *busy;

  // Step 2: instances of T_{i,j} possibly inside the busy period.
  const std::int64_t instances = ceil_div(sat_add(*busy, own_jitter), period);

  // Steps 3-4. C(m) is monotone in m with C(m+1) >= C(m) + exec, so each
  // fixpoint warm-starts from the previous completion (amortizes the
  // iteration cost over the whole busy period).
  Duration worst = 0;
  Time previous_completion = 0;
  if (warm != nullptr) {
    warm->completions.resize(
        static_cast<std::size_t>(std::max<std::int64_t>(instances, 0)), 0);
  }
  for (std::int64_t m = 1; m <= instances; ++m) {
    Time start = std::max(sat_mul(m, exec), sat_add(previous_completion, exec));
    if (warm != nullptr) {
      // Same monotone argument per instance: C(m) only grows with the
      // jitters, so last pass's completion is a valid warm seed.
      start = std::max(start, warm->completions[static_cast<std::size_t>(m - 1)]);
    }
    const DemandEvaluator completion_eval{
        .periods = hp.periods,
        .execs = hp.execs,
        .jitters = hp.jitters,
        .constant = sat_add(blocking, sat_mul(m, exec)),
    };
    const std::optional<Time> completion = solve_fixpoint_from(start, completion_eval, fp);
    if (!completion) return kTimeInfinity;
    previous_completion = *completion;
    if (warm != nullptr) {
      warm->completions[static_cast<std::size_t>(m - 1)] = *completion;
    }
    const Duration r = sat_add(*completion, own_accum) - (m - 1) * period;
    worst = std::max(worst, r);
    // The max over m is what gets compared against the cutoff; once any
    // instance exceeds it the result is infinite regardless of the rest.
    if (worst > cutoff) return kTimeInfinity;
    // C(m') <= busy for every later instance, so none can beat `worst`;
    // their warm seeds stay last pass's, still below the fixpoints.
    if (sat_add(*busy, own_accum) - m * period <= worst) break;
  }
  return worst;
}

}  // namespace e2e
