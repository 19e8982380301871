#include "core/analysis/ieert.h"

#include <algorithm>
#include <bit>
#include <vector>

#include "common/error.h"
#include "common/hash.h"
#include "common/math.h"
#include "core/analysis/kernels.h"

namespace e2e {
namespace {

/// Release jitter of a non-first subtask whose predecessor's current IEER
/// bound is `predecessor_bound`: R_{u,v-1} (minus `best_case`, B_{u,v-1},
/// in the refined mode; pass 0 otherwise) plus the task's bounded
/// first-release jitter J_u (extension; 0 in the paper's model, where
/// first releases are strictly periodic). A first subtask's jitter is J_u
/// alone. kTimeInfinity when the predecessor is unbounded.
Duration chain_jitter(Duration predecessor_bound, Duration best_case,
                      Duration task_jitter) {
  if (is_infinite(predecessor_bound)) return kTimeInfinity;
  return sat_add(std::max<Duration>(0, predecessor_bound - best_case), task_jitter);
}

}  // namespace

Duration ieert_bound_entry(const TaskSystem& system, const InterferenceMap& interference,
                           const SubtaskTable& current, SubtaskRef ref,
                           const IeertOptions& options, IeertWarmEntry* warm,
                           std::vector<Duration>& hp_jitter) {
  const Task& task = system.task(ref.task);
  const std::span<const Interferer> hp_aos = interference.of(ref);
  const InterferenceMap::SoaView hp = interference.soa_of(ref);
  const Duration blocking = interference.blocking(ref);
  const Duration period = task.period;
  const Duration exec = task.subtasks[static_cast<std::size_t>(ref.index)].execution_time;
  const bool refine = options.refine_jitter_with_best_case;
  // Constant offset added to every instance's IEER: the predecessor's
  // IEER bound plus (extension) the task's own first-release jitter.
  const Duration predecessor_bound =
      ref.index > 0 ? current.at(SubtaskRef{ref.task, ref.index - 1}) : 0;
  const Duration own_accum = sat_add(predecessor_bound, task.release_jitter);
  if (is_infinite(own_accum)) return kTimeInfinity;
  Duration own_jitter = task.release_jitter;
  if (ref.index > 0) {
    Duration own_best_case = 0;
    for (std::int32_t j = 0; refine && j < ref.index; ++j) {
      own_best_case += task.subtasks[static_cast<std::size_t>(j)].execution_time;
    }
    own_jitter = chain_jitter(predecessor_bound, own_best_case, task.release_jitter);
  }

  const Duration cutoff = options.failure_period_multiplier > 0.0
                              ? sat_scale(options.failure_period_multiplier, period)
                              : kTimeInfinity;
  // IEER >= predecessor IEER + own execution: already beyond salvation.
  if (own_accum > cutoff) return kTimeInfinity;

  // Each interferer's jitter comes from its own row fields and one table
  // read. On return hp_jitter holds this subtask's per-interferer jitters
  // (the caller reuses the buffer, so a sweep allocates nothing in steady
  // state).
  hp_jitter.resize(hp_aos.size());
  for (std::size_t k = 0; k < hp_aos.size(); ++k) {
    const Interferer& h = hp_aos[k];
    hp_jitter[k] =
        h.predecessor_index < 0
            ? h.task_release_jitter
            : chain_jitter(current.at(SubtaskRef{h.ref.task, h.predecessor_index}),
                           refine ? h.predecessor_best_case : 0, h.task_release_jitter);
    if (is_infinite(hp_jitter[k])) return kTimeInfinity;
  }

  const HpView hp_view{hp.periods, hp.execs, hp_jitter};
  const IeerEquation eq{.period = period,
                        .exec = exec,
                        .own_jitter = own_jitter,
                        .own_accum = own_accum,
                        .blocking = blocking,
                        .cutoff = cutoff,
                        .cap = options.cap};
  return solve_ieer_bound(eq, hp_view, warm);
}

std::vector<std::uint32_t> ieert_table_inputs(const InterferenceMap& interference,
                                              SubtaskRef ref,
                                              std::span<const Interferer> hp) {
  std::vector<std::uint32_t> deps;
  deps.reserve(hp.size() + 1);
  const auto push = [&](SubtaskRef pred) {
    const auto flat = static_cast<std::uint32_t>(interference.flat_index(pred));
    if (std::find(deps.begin(), deps.end(), flat) == deps.end()) deps.push_back(flat);
  };
  if (ref.index > 0) push(SubtaskRef{ref.task, ref.index - 1});
  for (const Interferer& k : hp) {
    if (k.ref.index > 0) push(SubtaskRef{k.ref.task, k.ref.index - 1});
  }
  return deps;
}

void ieert_index_dependencies(const TaskSystem& system,
                              const InterferenceMap& interference,
                              IeertIncrementalState& state) {
  const std::size_t count = interference.subtask_count();
  state.deps.assign(count, {});
  state.rdeps.assign(count, {});
  for (const Task& t : system.tasks()) {
    for (const Subtask& s : t.subtasks) {
      state.deps[interference.flat_index(s.ref)] =
          ieert_table_inputs(interference, s.ref, interference.of(s.ref));
    }
  }
  for (std::size_t f = 0; f < count; ++f) {
    for (const std::uint32_t d : state.deps[f]) {
      state.rdeps[d].push_back(static_cast<std::uint32_t>(f));
    }
  }
}

std::uint64_t ieert_dependency_hash(const IeertIncrementalState& state) {
  std::uint64_t h = 0;
  for (const auto* index : {&state.deps, &state.rdeps}) {
    h = hash_combine(h, index->size());
    for (const std::vector<std::uint32_t>& list : *index) {
      h = hash_combine(h, list.size());
      for (const std::uint32_t f : list) h = hash_combine(h, f);
    }
  }
  return h;
}

std::size_t ieert_sweep(const TaskSystem& system, const InterferenceMap& interference,
                        SubtaskTable& table, const IeertOptions& options,
                        IeertIncrementalState& state, IeertSweepUndo* undo) {
  const std::size_t count = interference.subtask_count();
  E2E_ASSERT(state.deps.size() == count && state.rdeps.size() == count,
             "ieert_sweep: dependency index not maintained");
  E2E_ASSERT(state.warm.size() == count, "ieert_sweep: warm not sized");
  E2E_ASSERT(undo == nullptr || undo->armed_for(count),
             "ieert_sweep: undo journal not armed");

  // The worklist is a bitset over flat indices, drained lowest bit first,
  // so entries are recomputed in the same ascending order a full scan
  // visits them; draining costs one word test per 64 entries plus the
  // entries themselves. `pending` is all zero between sweeps.
  std::vector<std::uint64_t>& pending = state.pending;
  const std::size_t words = (count + 63) / 64;
  pending.resize(words, 0);
  const auto enqueue = [&pending](std::uint32_t flat) {
    pending[flat / 64] |= std::uint64_t{1} << (flat % 64);
  };
  if (state.recompute_all) {
    for (std::size_t f = 0; f < count; ++f) enqueue(static_cast<std::uint32_t>(f));
  } else {
    // Stale at sweep start: forced entries and readers of the entries the
    // previous sweep changed.
    for (const std::uint32_t f : state.force) enqueue(f);
    for (const std::uint32_t d : state.changed) {
      for (const std::uint32_t r : state.rdeps[d]) enqueue(r);
    }
  }
  state.recompute_all = false;
  state.force.clear();  // one-shot: consumed by this sweep
  state.changed.clear();

  // `table` doubles as both `current` and `next` (in-place Gauss-Seidel:
  // entries updated earlier in the sweep feed later ones immediately).
  std::size_t changed_count = 0;
  for (std::size_t w = 0; w < words; ++w) {
    // Re-read the word each time: recomputing an entry may enqueue later
    // entries of the same word.
    while (pending[w] != 0) {
      const auto bit = static_cast<std::uint32_t>(std::countr_zero(pending[w]));
      pending[w] &= pending[w] - 1;
      const auto flat = static_cast<std::uint32_t>(w * 64 + bit);
      const SubtaskRef ref = interference.ref_of(flat);
      if (undo != nullptr) undo->record(ref, flat, table.at(ref), state.warm[flat]);
      const Duration bound = ieert_bound_entry(system, interference, table, ref, options,
                                               &state.warm[flat], state.hp_jitter);
      ++state.evaluations;
      if (bound == table.at(ref)) continue;
      table.set(ref, bound);
      ++changed_count;
      state.changed.push_back(flat);
      // Readers later in this sweep see the new value now; every reader
      // is stale again next sweep (seeded from `changed` above).
      for (const std::uint32_t r : state.rdeps[flat]) {
        if (r > flat) enqueue(r);
      }
    }
  }
  return changed_count;
}

SubtaskTable ieert_pass(const TaskSystem& system, const InterferenceMap& interference,
                        const SubtaskTable& current, const IeertOptions& options) {
  std::vector<Duration> hp_jitter;  // reused by every subtask in the pass
  SubtaskTable next{system, 0};
  for (const Task& t : system.tasks()) {
    for (const Subtask& s : t.subtasks) {
      next.set(s.ref, ieert_bound_entry(system, interference, current, s.ref, options,
                                        nullptr, hp_jitter));
    }
  }
  return next;
}

}  // namespace e2e
