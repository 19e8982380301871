// Direct unit tests of one Algorithm IEERT pass (Figure 10), with
// hand-iterated expectations on the paper's Example 2, plus the
// equivalence of the worklist sweep with a full staleness scan, the
// failure cutoff every sweep enforces, and the trial journal's
// byte-exact, allocation-free replay.
#include "core/analysis/ieert.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "alloc_counter.h"
#include "common/math.h"
#include "common/rng.h"
#include "core/analysis/sa_ds.h"
#include "task/builder.h"
#include "task/paper_examples.h"

namespace e2e {
namespace {

SubtaskTable example2_init(const TaskSystem& sys) {
  // Figure 11 step 1: R_{i,j} = sum of execution times through j.
  SubtaskTable table{sys, 0};
  for (const Task& t : sys.tasks()) {
    Duration cumulative = 0;
    for (const Subtask& s : t.subtasks) {
      cumulative += s.execution_time;
      table.set(s.ref, cumulative);
    }
  }
  return table;
}

TEST(IeertPass, FirstPassOnExample2HandComputed) {
  const TaskSystem sys = paper::example2();
  const InterferenceMap interference{sys};
  const SubtaskTable init = example2_init(sys);
  // Init: T1=2, T2,1=2, T2,2=5, T3=2.
  EXPECT_EQ(init.at(SubtaskRef{TaskId{1}, 1}), 5);

  const SubtaskTable pass1 = ieert_pass(sys, interference, init, {.cap = 100000});
  // Hand-iterated (see sa_ds_test for the recurrences):
  //   T1: alone above everything on P1 -> 2.
  //   T2,1: busy with T1 -> C(1) = 4, IEER = 4.
  //   T2,2: own jitter = init R(T2,1) = 2 -> D = 3, M = 1, C(1) = 3,
  //         IEER = 3 + 2 = 5.
  //   T3: interferer T2,2 with jitter 2 -> C(1) = 8, IEER = 8.
  EXPECT_EQ(pass1.at(SubtaskRef{TaskId{0}, 0}), 2);
  EXPECT_EQ(pass1.at(SubtaskRef{TaskId{1}, 0}), 4);
  EXPECT_EQ(pass1.at(SubtaskRef{TaskId{1}, 1}), 5);
  EXPECT_EQ(pass1.at(SubtaskRef{TaskId{2}, 0}), 8);
}

TEST(IeertPass, SecondPassReachesTheFixpoint) {
  const TaskSystem sys = paper::example2();
  const InterferenceMap interference{sys};
  const SubtaskTable pass1 =
      ieert_pass(sys, interference, example2_init(sys), {.cap = 100000});
  const SubtaskTable pass2 = ieert_pass(sys, interference, pass1, {.cap = 100000});
  // With R(T2,1) = 4 as jitter, T2,2 rises to 7; T3 stays at 8.
  EXPECT_EQ(pass2.at(SubtaskRef{TaskId{1}, 1}), 7);
  EXPECT_EQ(pass2.at(SubtaskRef{TaskId{2}, 0}), 8);
  // One more pass confirms the fixpoint.
  const SubtaskTable pass3 = ieert_pass(sys, interference, pass2, {.cap = 100000});
  EXPECT_EQ(pass3, pass2);
}

TEST(IeertPass, InfiniteInputPropagatesToDependents) {
  const TaskSystem sys = paper::example2();
  const InterferenceMap interference{sys};
  SubtaskTable table = example2_init(sys);
  table.set(SubtaskRef{TaskId{1}, 0}, kTimeInfinity);  // T2,1 unbounded
  const SubtaskTable out = ieert_pass(sys, interference, table, {.cap = 100000});
  // T2,2 (successor) and T3 (interfered by T2,2 via the jitter term) both
  // become infinite; T1 is unaffected.
  EXPECT_TRUE(is_infinite(out.at(SubtaskRef{TaskId{1}, 1})));
  EXPECT_TRUE(is_infinite(out.at(SubtaskRef{TaskId{2}, 0})));
  EXPECT_EQ(out.at(SubtaskRef{TaskId{0}, 0}), 2);
}

TEST(IeertPass, CapTurnsDivergenceIntoInfinity) {
  // Over-utilized processor: the busy-period fixpoint exceeds any cap.
  TaskSystemBuilder b{1};
  b.add_task({.period = 4})
      .subtask(ProcessorId{0}, 3, Priority{0});
  b.add_task({.period = 4}).subtask(ProcessorId{0}, 3, Priority{1});
  const TaskSystem sys = std::move(b).build();
  const InterferenceMap interference{sys};
  SubtaskTable init{sys, 0};
  init.set(SubtaskRef{TaskId{0}, 0}, 3);
  init.set(SubtaskRef{TaskId{1}, 0}, 3);
  const SubtaskTable out = ieert_pass(sys, interference, init, {.cap = 1000});
  EXPECT_TRUE(is_infinite(out.at(SubtaskRef{TaskId{1}, 0})));
}

TEST(IeertPass, FailureMultiplierShortCircuits) {
  const TaskSystem sys = paper::example2();
  const InterferenceMap interference{sys};
  // A multiplier below 8/6 must knock T3 (fixpoint IEER 8, period 6) to
  // infinity while leaving T1 (bound 2) alone.
  SubtaskTable table = example2_init(sys);
  const SubtaskTable p1 = ieert_pass(sys, interference, table,
                                     {.cap = 100000, .failure_period_multiplier = 1.1});
  EXPECT_TRUE(is_infinite(p1.at(SubtaskRef{TaskId{2}, 0})));
  EXPECT_EQ(p1.at(SubtaskRef{TaskId{0}, 0}), 2);
}

// --- Worklist sweep vs. full staleness scan ------------------------------

/// The full-scan form of ieert_sweep's staleness rule, kept as a
/// reference: visit every entry in flat order and recompute it iff it is
/// forced or one of its inputs changed in the previous sweep or earlier
/// in this one. Flags instead of lists; `changed` empty means "first
/// sweep, recompute everything".
struct ScanState {
  std::vector<std::vector<std::uint32_t>> deps;
  std::vector<std::uint8_t> changed;
  std::vector<std::uint8_t> force;
  std::vector<IeertWarmEntry> warm;
};

std::size_t reference_scan_sweep(const TaskSystem& system,
                                 const InterferenceMap& interference,
                                 SubtaskTable& table, const IeertOptions& options,
                                 ScanState& state, IeertSweepUndo* undo) {
  const std::size_t count = interference.subtask_count();
  const bool incremental = !state.changed.empty();
  std::vector<std::uint8_t> sweep_changed(count, 0);
  std::vector<Duration> hp_jitter;
  std::size_t changed_count = 0;
  for (const Task& t : system.tasks()) {
    for (const Subtask& s : t.subtasks) {
      const std::size_t flat = interference.flat_index(s.ref);
      bool stale = true;
      if (incremental) {
        stale = !state.force.empty() && state.force[flat] != 0;
        for (const std::uint32_t d : state.deps[flat]) {
          if (state.changed[d] != 0 || sweep_changed[d] != 0) stale = true;
        }
      }
      if (!stale) continue;
      if (undo != nullptr) {
        undo->record(s.ref, static_cast<std::uint32_t>(flat), table.at(s.ref),
                     state.warm[flat]);
      }
      const Duration bound = ieert_bound_entry(system, interference, table, s.ref, options,
                                               &state.warm[flat], hp_jitter);
      if (bound != table.at(s.ref)) {
        sweep_changed[flat] = 1;
        ++changed_count;
        table.set(s.ref, bound);
      }
    }
  }
  state.changed = std::move(sweep_changed);
  state.force.clear();
  return changed_count;
}

constexpr int kSweepProcessors = 3;

TaskSystem random_ds_system(Rng& rng, int tasks) {
  TaskSystemBuilder b{kSweepProcessors};
  for (int i = 0; i < tasks; ++i) {
    auto handle = b.add_task({.period = rng.uniform_int(40, 160),
                              .release_jitter = rng.uniform_int(0, 2)});
    const auto length = rng.uniform_int(1, 4);
    for (std::int64_t j = 0; j < length; ++j) {
      handle.subtask(
          ProcessorId{static_cast<std::int32_t>(rng.uniform_int(0, kSweepProcessors - 1))},
          rng.uniform_int(1, 6), Priority{static_cast<std::int32_t>(rng.uniform_int(0, 4))});
      if (rng.uniform_int(0, 4) == 0) handle.non_preemptible();
    }
  }
  return std::move(b).build();
}

void expect_same_warm(const IeertWarmEntry& a, const IeertWarmEntry& b, const char* what) {
  EXPECT_EQ(a.busy, b.busy) << what;
  EXPECT_EQ(a.completions, b.completions) << what;
}

/// Runs up to `budget` sweeps of both implementations in lockstep from
/// `start`, comparing everything observable after every sweep. Returns
/// the last sweep's change count (nonzero: the budget ran out first).
std::size_t lockstep_sweeps(const TaskSystem& system, const InterferenceMap& imap,
                            const SubtaskTable& start, const IeertOptions& options,
                            const std::vector<std::uint32_t>* force, int budget) {
  const std::size_t count = imap.subtask_count();
  IeertIncrementalState worklist;
  ieert_index_dependencies(system, imap, worklist);
  worklist.warm.assign(count, {});
  ScanState scan{.deps = worklist.deps, .warm = std::vector<IeertWarmEntry>(count)};
  if (force != nullptr) {
    // A delta re-analysis: only the forced entries (and what they reach)
    // are recomputed.
    worklist.recompute_all = false;
    worklist.force = *force;
    scan.changed.assign(count, 0);
    scan.force.assign(count, 0);
    for (const std::uint32_t f : *force) scan.force[f] = 1;
  }
  SubtaskTable worklist_table = start;
  SubtaskTable scan_table = start;
  IeertSweepUndo worklist_undo;
  IeertSweepUndo scan_undo;
  worklist_undo.arm(count);
  scan_undo.arm(count);

  std::size_t changes = 0;
  for (int sweep = 0; sweep < budget; ++sweep) {
    changes = ieert_sweep(system, imap, worklist_table, options, worklist, &worklist_undo);
    const std::size_t scan_changes =
        reference_scan_sweep(system, imap, scan_table, options, scan, &scan_undo);
    EXPECT_EQ(changes, scan_changes) << "sweep " << sweep;
    EXPECT_EQ(worklist_table, scan_table) << "sweep " << sweep;
    std::vector<std::uint32_t> scan_changed;
    for (std::size_t f = 0; f < count; ++f) {
      if (scan.changed[f] != 0) scan_changed.push_back(static_cast<std::uint32_t>(f));
    }
    EXPECT_EQ(worklist.changed, scan_changed) << "sweep " << sweep;
    for (std::size_t f = 0; f < count; ++f) {
      expect_same_warm(worklist.warm[f], scan.warm[f], "warm seed");
    }
    if (::testing::Test::HasFailure() || changes == 0) break;
  }
  const std::span<const IeertSweepUndo::Entry> worklist_journal = worklist_undo.entries();
  const std::span<const IeertSweepUndo::Entry> scan_journal = scan_undo.entries();
  EXPECT_EQ(worklist_journal.size(), scan_journal.size());
  for (std::size_t k = 0; k < std::min(worklist_journal.size(), scan_journal.size()); ++k) {
    const IeertSweepUndo::Entry& a = worklist_journal[k];
    const IeertSweepUndo::Entry& b = scan_journal[k];
    EXPECT_EQ(a.ref, b.ref) << "journal " << k;
    EXPECT_EQ(a.flat, b.flat) << "journal " << k;
    EXPECT_EQ(a.value, b.value) << "journal " << k;
    expect_same_warm(a.warm, b.warm, "journaled warm seed");
  }
  return changes;
}

/// Figure 11 step 1 on any system.
SubtaskTable optimistic_init(const TaskSystem& sys) { return example2_init(sys); }

IeertOptions sa_ds_like_options(const TaskSystem& sys, double multiplier) {
  return sa_ds_pass_options(sys, {.failure_period_multiplier = multiplier});
}

TEST(IeertSweep, WorklistMatchesFullScanFromScratch) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u, 6u}) {
    Rng rng{seed};
    const TaskSystem sys = random_ds_system(rng, 10);
    const InterferenceMap imap{sys};
    for (const bool refine : {false, true}) {
      IeertOptions options = sa_ds_like_options(sys, 300.0);
      options.refine_jitter_with_best_case = refine;
      EXPECT_EQ(lockstep_sweeps(sys, imap, optimistic_init(sys), options, nullptr, 200), 0u)
          << "seed " << seed;
    }
  }
}

TEST(IeertSweep, WorklistMatchesFullScanUnderRandomForceSets) {
  for (const std::uint64_t seed : {7u, 8u, 9u, 10u, 11u, 12u}) {
    Rng rng{seed};
    const TaskSystem sys = random_ds_system(rng, 10);
    const InterferenceMap imap{sys};
    const std::size_t count = imap.subtask_count();
    for (int trial = 0; trial < 4; ++trial) {
      std::vector<std::uint32_t> force;
      for (std::size_t f = 0; f < count; ++f) {
        if (rng.uniform_int(0, 3) == 0) force.push_back(static_cast<std::uint32_t>(f));
      }
      // Duplicates and arbitrary order are allowed in the force list.
      if (!force.empty()) force.push_back(force.front());
      std::reverse(force.begin(), force.end());
      (void)lockstep_sweeps(sys, imap, optimistic_init(sys),
                            sa_ds_like_options(sys, 300.0), &force, 200);
    }
  }
}

TEST(IeertSweep, WorklistMatchesFullScanAtAPassBudgetBlowout) {
  // Heavily loaded systems iterate for many sweeps; stopping at a small
  // budget compares the mid-iteration tables, seeds and journals too.
  int blowouts = 0;
  for (std::uint64_t seed = 100; seed < 140; ++seed) {
    Rng rng{seed};
    const TaskSystem sys = random_ds_system(rng, 22);
    const InterferenceMap imap{sys};
    if (lockstep_sweeps(sys, imap, optimistic_init(sys), sa_ds_like_options(sys, 300.0),
                        nullptr, 3) != 0) {
      ++blowouts;
    }
  }
  EXPECT_GT(blowouts, 0) << "no system outlived the sweep budget";
}

// --- Failure cutoff ------------------------------------------------------

// The SA/DS loop caps nothing after a sweep: each entry solve declares a
// bound past its task's cutoff infinite, and the first sweep recomputes
// every entry. So after every sweep from the optimistic init, no finite
// entry may exceed sat_scale(multiplier, period) -- including in systems
// whose iteration fails.
TEST(IeertSweep, NoFiniteEntryExceedsItsCutoffAfterAnySweep) {
  int failing = 0;
  for (const double multiplier : {300.0, 2.0}) {
    for (std::uint64_t seed = 200; seed < 230; ++seed) {
      Rng rng{seed};
      const TaskSystem sys = random_ds_system(rng, 8 + static_cast<int>(seed % 16));
      const InterferenceMap imap{sys};
      for (const bool refine : {false, true}) {
        IeertIncrementalState state;
        ieert_index_dependencies(sys, imap, state);
        state.warm.assign(imap.subtask_count(), {});
        const IeertOptions options = sa_ds_pass_options(
            sys, {.failure_period_multiplier = multiplier,
                  .refine_jitter_with_best_case = refine});
        SubtaskTable table = optimistic_init(sys);
        bool any_infinite = false;
        for (int sweep = 0; sweep < kSaDsMaxPasses; ++sweep) {
          const std::size_t changes = ieert_sweep(sys, imap, table, options, state);
          for (const Task& t : sys.tasks()) {
            const Duration cutoff = sat_scale(multiplier, t.period);
            for (const Subtask& s : t.subtasks) {
              const Duration bound = table.at(s.ref);
              any_infinite = any_infinite || is_infinite(bound);
              ASSERT_TRUE(is_infinite(bound) || bound <= cutoff)
                  << "seed " << seed << ", multiplier " << multiplier << ", sweep "
                  << sweep << ": " << t.name << " entry " << s.ref.index << " = "
                  << bound << " > cutoff " << cutoff;
            }
          }
          if (changes == 0) break;
        }
        if (any_infinite) ++failing;
      }
    }
  }
  EXPECT_GT(failing, 0) << "no system crossed its cutoff";
}

// --- Trial journal -----------------------------------------------------

/// A journaled trial on `sys`: the first sweep runs unjournaled, so the
/// trial starts from a mid-iteration table with non-empty warm seeds and
/// a non-empty `changed` list -- the shape of an admission trial.
struct JournalFixture {
  TaskSystem sys;
  InterferenceMap imap;
  IeertOptions options;
  IeertIncrementalState state;
  SubtaskTable table;

  explicit JournalFixture(TaskSystem system)
      : sys(std::move(system)),
        imap(sys),
        options(sa_ds_like_options(sys, 300.0)),
        table(optimistic_init(sys)) {
    ieert_index_dependencies(sys, imap, state);
    state.warm.assign(imap.subtask_count(), {});
    (void)ieert_sweep(sys, imap, table, options, state);
  }

  /// Arms `undo` and sweeps to the fixpoint under it; returns the sweeps.
  int trial(IeertSweepUndo& undo) {
    undo.arm(imap.subtask_count());
    int sweeps = 1;
    while (ieert_sweep(sys, imap, table, options, state, &undo) != 0) ++sweeps;
    return sweeps;
  }
};

TEST(IeertSweepUndo, ReplayRestoresTableAndWarmSeedsByteForByte) {
  for (const std::uint64_t seed : {21u, 22u, 23u, 24u}) {
    Rng rng{seed};
    JournalFixture fx{random_ds_system(rng, 14)};
    const SubtaskTable start_table = fx.table;
    const std::vector<IeertWarmEntry> start_warm = fx.state.warm;
    IeertSweepUndo undo;
    (void)fx.trial(undo);
    ASSERT_NE(fx.table, start_table) << "seed " << seed << ": the trial changed nothing";
    ASSERT_FALSE(undo.entries().empty());
    undo.replay(fx.table, fx.state.warm);
    EXPECT_EQ(fx.table, start_table) << "seed " << seed;
    EXPECT_EQ(fx.table.content_hash(), start_table.content_hash()) << "seed " << seed;
    ASSERT_EQ(fx.state.warm.size(), start_warm.size());
    for (std::size_t f = 0; f < start_warm.size(); ++f) {
      expect_same_warm(fx.state.warm[f], start_warm[f], "replayed warm seed");
    }
  }
}

TEST(IeertSweepUndo, SecondJournaledTrialAllocatesNothing) {
  Rng rng{31};
  JournalFixture fx{random_ds_system(rng, 14)};
  const SubtaskTable start_table = fx.table;
  const std::vector<std::uint32_t> start_changed = fx.state.changed;
  IeertSweepUndo undo;
  const int first_sweeps = fx.trial(undo);
  ASSERT_GT(first_sweeps, 1);
  const SubtaskTable first_result = fx.table;
  const std::size_t first_entries = undo.entries().size();
  undo.replay(fx.table, fx.state.warm);
  fx.state.changed = start_changed;  // the pre-trial sweep state

  const std::uint64_t before = global_allocations();
  const int second_sweeps = fx.trial(undo);
  const std::uint64_t after = global_allocations();
  EXPECT_EQ(after - before, 0u) << "a warm journaled trial touched the global allocator";
  EXPECT_EQ(second_sweeps, first_sweeps);
  EXPECT_EQ(fx.table, first_result);
  EXPECT_EQ(undo.entries().size(), first_entries);
  undo.replay(fx.table, fx.state.warm);
  EXPECT_EQ(fx.table, start_table);
}

}  // namespace
}  // namespace e2e
