// Behavioral tests for AdmissionController: the admit pipeline's reason
// codes in order (validation, duplicate, utilization, bound failure),
// rejection-with-reason detail, slot monotonicity, deadline
// normalization, the decision cache, and query margins. Everything here
// runs on handcrafted specs small enough to verify by hand; randomized
// full-vs-incremental equivalence lives in admission_property_test.
#include "admission/controller.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "admission/engine.h"
#include "alloc_counter.h"
#include "core/analysis/ieert.h"
#include "core/analysis/interference.h"
#include "core/analysis/sa_ds.h"

namespace e2e::admission {
namespace {

TaskSpec make_spec(std::string name, Duration period,
                   std::vector<SubtaskSpec> subtasks, Duration deadline = 0) {
  TaskSpec spec;
  spec.name = std::move(name);
  spec.period = period;
  spec.deadline = deadline;
  spec.subtasks = std::move(subtasks);
  return spec;
}

ControllerOptions pm_options(std::size_t processors = 2) {
  ControllerOptions options;
  options.policy = Policy::kPm;
  options.processors = processors;
  return options;
}

TEST(Controller, AcceptsFeasibleTaskAndAssignsSlots) {
  AdmissionController controller{pm_options()};
  const Outcome first =
      controller.admit(make_spec("T1", 100, {{0, 10, 0}}));
  EXPECT_TRUE(first.accepted);
  EXPECT_EQ(first.reason, ReasonCode::kNone);
  EXPECT_EQ(first.slot, 0u);
  EXPECT_EQ(first.live_tasks, 1u);

  const Outcome second =
      controller.admit(make_spec("T2", 200, {{1, 10, 0}}));
  EXPECT_TRUE(second.accepted);
  EXPECT_EQ(second.slot, 1u);
  EXPECT_EQ(second.live_tasks, 2u);
}

TEST(Controller, SlotsAreNeverReused) {
  AdmissionController controller{pm_options()};
  ASSERT_TRUE(controller.admit(make_spec("T1", 100, {{0, 10, 0}})).accepted);
  ASSERT_TRUE(controller.admit(make_spec("T2", 100, {{0, 10, 1}})).accepted);
  const Outcome removed = controller.remove("T1");
  EXPECT_TRUE(removed.accepted);
  EXPECT_EQ(removed.slot, 0u);
  const Outcome readmitted =
      controller.admit(make_spec("T1", 100, {{0, 10, 0}}));
  ASSERT_TRUE(readmitted.accepted);
  EXPECT_EQ(readmitted.slot, 2u);  // slot 0 is retired, not recycled
}

TEST(Controller, ZeroDeadlineNormalizesToPeriod) {
  AdmissionController controller{pm_options()};
  ASSERT_TRUE(controller.admit(make_spec("T1", 500, {{0, 10, 0}})).accepted);
  const auto slot = controller.state().slot_of("T1");
  ASSERT_TRUE(slot.has_value());
  EXPECT_EQ(controller.state().spec(*slot).deadline, 500);
}

TEST(Controller, ValidationRejects) {
  AdmissionController controller{pm_options()};
  const struct {
    TaskSpec spec;
    const char* what;
  } cases[] = {
      {make_spec("A", 0, {{0, 1, 0}}), "zero period"},
      {make_spec("B", 10, {}), "no subtasks"},
      {make_spec("C", 10, {{7, 1, 0}}), "processor out of range"},
      {make_spec("D", 10, {{0, 0, 0}}), "zero execution time"},
      {make_spec("E", 10, {{0, 1, -2}}), "negative priority"},
  };
  for (const auto& c : cases) {
    const Outcome outcome = controller.admit(c.spec);
    EXPECT_FALSE(outcome.accepted) << c.what;
    EXPECT_EQ(outcome.reason, ReasonCode::kValidation) << c.what;
  }
  EXPECT_EQ(controller.state().task_count(), 0u);
}

TEST(Controller, DuplicateNameRejects) {
  AdmissionController controller{pm_options()};
  ASSERT_TRUE(controller.admit(make_spec("T1", 100, {{0, 10, 0}})).accepted);
  const Outcome duplicate =
      controller.admit(make_spec("T1", 200, {{1, 10, 0}}));
  EXPECT_FALSE(duplicate.accepted);
  EXPECT_EQ(duplicate.reason, ReasonCode::kDuplicateName);
  EXPECT_EQ(controller.state().task_count(), 1u);
}

TEST(Controller, UtilizationPrecheckNamesTheProcessor) {
  AdmissionController controller{pm_options()};
  ASSERT_TRUE(controller.admit(make_spec("T1", 100, {{1, 60, 0}})).accepted);
  // Processor 1 already carries 0.6; another 0.5 overflows it.
  const Outcome outcome =
      controller.admit(make_spec("T2", 100, {{1, 50, 1}}));
  EXPECT_FALSE(outcome.accepted);
  EXPECT_EQ(outcome.reason, ReasonCode::kUtilization);
  EXPECT_EQ(outcome.culprit_processor, 1);
  EXPECT_EQ(controller.state().task_count(), 1u);
}

TEST(Controller, BoundFailureReportsCulpritDetail) {
  AdmissionController controller{pm_options()};
  ASSERT_TRUE(controller.admit(make_spec("T1", 10, {{0, 5, 0}})).accepted);
  // Candidate: utilization fits (0.5 + 5/12), but with T1 preempting, the
  // level-1 subtask's response is 10 > deadline 6.
  const Outcome outcome =
      controller.admit(make_spec("T2", 12, {{0, 5, 1}}, /*deadline=*/6));
  EXPECT_FALSE(outcome.accepted);
  EXPECT_EQ(outcome.reason, ReasonCode::kBoundFailure);
  EXPECT_EQ(outcome.culprit_task, "T2");
  EXPECT_TRUE(outcome.culprit_is_candidate);
  EXPECT_EQ(outcome.culprit_subtask, 0);
  EXPECT_EQ(outcome.culprit_processor, 0);
  EXPECT_EQ(outcome.culprit_deadline, 6);
  EXPECT_GT(outcome.culprit_eer, outcome.culprit_deadline);
  EXPECT_EQ(controller.state().task_count(), 1u);
}

TEST(Controller, RepeatedRejectionIsServedFromCache) {
  AdmissionController controller{pm_options()};
  ASSERT_TRUE(controller.admit(make_spec("T1", 10, {{0, 5, 0}})).accepted);
  const TaskSpec bounced = make_spec("T2", 12, {{0, 5, 1}}, /*deadline=*/6);
  const Outcome miss = controller.admit(bounced);
  ASSERT_EQ(miss.reason, ReasonCode::kBoundFailure);
  EXPECT_FALSE(miss.from_cache);
  const Outcome hit = controller.admit(bounced);
  EXPECT_TRUE(hit.from_cache);
  EXPECT_GE(controller.cache_hits(), 1u);
  // Everything semantic matches the recomputation it stands for.
  EXPECT_EQ(hit.reason, miss.reason);
  EXPECT_EQ(hit.culprit_task, miss.culprit_task);
  EXPECT_EQ(hit.culprit_subtask, miss.culprit_subtask);
  EXPECT_EQ(hit.culprit_bound, miss.culprit_bound);
  EXPECT_EQ(hit.culprit_eer, miss.culprit_eer);
}

TEST(Controller, RemoveUnknownTask) {
  AdmissionController controller{pm_options()};
  const Outcome outcome = controller.remove("ghost");
  EXPECT_FALSE(outcome.accepted);
  EXPECT_EQ(outcome.reason, ReasonCode::kUnknownTask);
}

TEST(Controller, QueryReportsLiveCountAndMargin) {
  AdmissionController controller{pm_options()};
  const Outcome empty = controller.query();
  EXPECT_TRUE(empty.accepted);
  EXPECT_EQ(empty.live_tasks, 0u);
  EXPECT_EQ(empty.margin, 0.0);

  ASSERT_TRUE(controller.admit(make_spec("T1", 100, {{0, 10, 0}})).accepted);
  const Outcome one = controller.query();
  EXPECT_EQ(one.live_tasks, 1u);
  EXPECT_GT(one.margin, 0.0);
  EXPECT_LE(one.margin, 1.0);  // schedulable system: EER <= deadline
}

TEST(Controller, ParseErrorFlowsThroughSubmit) {
  AdmissionController controller{pm_options()};
  Request request;
  request.verb = Verb::kAdmit;
  request.parse_error = "unknown key 'budget'";
  const Outcome outcome = controller.submit(request);
  EXPECT_FALSE(outcome.accepted);
  EXPECT_EQ(outcome.reason, ReasonCode::kParseError);
}

TEST(Controller, BatchCommitAdmitsAllMembersWithConsecutiveSlots) {
  AdmissionController controller{pm_options()};
  const Outcome open = controller.batch_begin();
  EXPECT_TRUE(open.accepted);
  EXPECT_TRUE(controller.in_batch());

  const Outcome q1 = controller.admit(make_spec("B1", 100, {{0, 10, 0}}));
  const Outcome q2 = controller.admit(make_spec("B2", 200, {{1, 10, 0}}));
  EXPECT_FALSE(q1.accepted);
  EXPECT_EQ(q1.reason, ReasonCode::kQueued);
  EXPECT_EQ(q2.reason, ReasonCode::kQueued);
  EXPECT_EQ(controller.state().task_count(), 0u);  // nothing live yet

  const Outcome commit = controller.batch_commit();
  EXPECT_TRUE(commit.accepted);
  EXPECT_EQ(commit.batch_size, 2u);
  EXPECT_EQ(commit.slot, 0u);  // first slot of the batch
  EXPECT_EQ(commit.live_tasks, 2u);
  EXPECT_FALSE(controller.in_batch());
  EXPECT_EQ(controller.state().slot_of("B1"), 0u);
  EXPECT_EQ(controller.state().slot_of("B2"), 1u);
}

TEST(Controller, RejectedBatchCommitsNothing) {
  AdmissionController controller{pm_options()};
  ASSERT_TRUE(controller.admit(make_spec("T1", 10, {{0, 5, 0}})).accepted);
  const std::uint64_t hash_before_batch = controller.result_hash();

  ASSERT_TRUE(controller.batch_begin().accepted);
  ASSERT_EQ(controller.admit(make_spec("OK", 200, {{1, 10, 0}})).reason,
            ReasonCode::kQueued);
  // Same infeasible candidate as BoundFailureReportsCulpritDetail: its
  // presence must sink the whole batch, including the feasible member.
  ASSERT_EQ(controller.admit(make_spec("BAD", 12, {{0, 5, 1}}, 6)).reason,
            ReasonCode::kQueued);
  const Outcome commit = controller.batch_commit();
  EXPECT_FALSE(commit.accepted);
  EXPECT_EQ(commit.reason, ReasonCode::kBoundFailure);
  EXPECT_EQ(commit.batch_size, 2u);
  EXPECT_EQ(commit.culprit_task, "BAD");
  EXPECT_TRUE(commit.culprit_is_candidate);
  EXPECT_EQ(controller.state().task_count(), 1u);  // atomic: neither landed
  EXPECT_FALSE(controller.state().slot_of("OK").has_value());

  // The committed state is untouched, so the feasible member admits
  // cleanly on its own afterwards.
  EXPECT_TRUE(controller.admit(make_spec("OK", 200, {{1, 10, 0}})).accepted);
  EXPECT_NE(controller.result_hash(), hash_before_batch);
}

TEST(Controller, BatchVerbMisuseIsABatchError) {
  AdmissionController controller{pm_options()};
  // Commit with no open batch.
  const Outcome stray = controller.batch_commit();
  EXPECT_FALSE(stray.accepted);
  EXPECT_EQ(stray.reason, ReasonCode::kBatchError);

  ASSERT_TRUE(controller.batch_begin().accepted);
  // Nested begin.
  const Outcome nested = controller.batch_begin();
  EXPECT_FALSE(nested.accepted);
  EXPECT_EQ(nested.reason, ReasonCode::kBatchError);
  // Remove inside an open batch.
  const Outcome removal = controller.remove("anything");
  EXPECT_FALSE(removal.accepted);
  EXPECT_EQ(removal.reason, ReasonCode::kBatchError);
  // An empty batch commits vacuously.
  const Outcome empty = controller.batch_commit();
  EXPECT_TRUE(empty.accepted);
  EXPECT_EQ(empty.batch_size, 0u);
}

TEST(Controller, BatchPrechecksSeePendingMembers) {
  AdmissionController controller{pm_options()};
  ASSERT_TRUE(controller.batch_begin().accepted);
  ASSERT_EQ(controller.admit(make_spec("T1", 100, {{1, 40, 0}})).reason,
            ReasonCode::kQueued);
  // Duplicate of a pending (not yet live) member.
  const Outcome duplicate = controller.admit(make_spec("T1", 200, {{0, 10, 0}}));
  EXPECT_FALSE(duplicate.accepted);
  EXPECT_EQ(duplicate.reason, ReasonCode::kDuplicateName);
  // Utilization precheck counts the pending member's 0.4 on processor 1,
  // so another 0.7 overflows even though the live system is empty.
  const Outcome overflow = controller.admit(make_spec("T2", 100, {{1, 70, 0}}));
  EXPECT_FALSE(overflow.accepted);
  EXPECT_EQ(overflow.reason, ReasonCode::kUtilization);
  EXPECT_EQ(overflow.culprit_processor, 1);
  // Neither rejection poisoned the batch itself.
  const Outcome commit = controller.batch_commit();
  EXPECT_TRUE(commit.accepted);
  EXPECT_EQ(commit.batch_size, 1u);
  EXPECT_EQ(controller.state().task_count(), 1u);
}

// The same handcrafted stream produces the same verdicts and the same
// running result hash under every (policy, engine) pairing -- a quick
// deterministic instance of the identity the property test randomizes.
TEST(Controller, FullAndIncrementalAgreeOnHandcraftedStream) {
  for (const Policy policy : {Policy::kPm, Policy::kDs, Policy::kHolistic}) {
    ControllerOptions full = pm_options();
    full.policy = policy;
    full.full_recompute = true;
    ControllerOptions incremental = full;
    incremental.full_recompute = false;
    AdmissionController a{full};
    AdmissionController b{incremental};

    const auto both = [&](const TaskSpec& spec) {
      const Outcome x = a.admit(spec);
      const Outcome y = b.admit(spec);
      EXPECT_EQ(x.accepted, y.accepted) << spec.name;
      EXPECT_EQ(x.reason, y.reason) << spec.name;
      EXPECT_EQ(a.result_hash(), b.result_hash()) << spec.name;
    };
    both(make_spec("T1", 10, {{0, 5, 0}}));
    both(make_spec("T2", 12, {{0, 5, 1}}, 6));   // bound failure
    both(make_spec("T3", 100, {{1, 20, 0}, {0, 2, 2}}));
    both(make_spec("T4", 50, {{1, 10, 1}}));
    EXPECT_EQ(a.remove("T1").accepted, b.remove("T1").accepted);
    EXPECT_EQ(a.query().margin, b.query().margin);
    both(make_spec("T5", 40, {{0, 8, 0}}));
    // One batched group through each engine's single-trajectory path.
    EXPECT_TRUE(a.batch_begin().accepted);
    EXPECT_TRUE(b.batch_begin().accepted);
    both(make_spec("T6", 80, {{1, 4, 2}}));  // queued on both
    both(make_spec("T7", 120, {{0, 6, 3}}));
    const Outcome ca = a.batch_commit();
    const Outcome cb = b.batch_commit();
    EXPECT_EQ(ca.accepted, cb.accepted);
    EXPECT_EQ(ca.batch_size, cb.batch_size);
    EXPECT_EQ(a.result_hash(), b.result_hash())
        << "policy " << to_string(policy);
  }
}

// Batch members A and B each put a non-first subtask above resident R on
// processor 0, so R gains two IEERT inputs in one batch-commit: A,1 and
// B,1 (through A,2's and B,2's release jitter). The reverse index must
// list R as a reader of both. C then interferes with A,1 alone on
// processor 1; A,1's bound grows, which raises A,2's jitter and R's
// bound past R's deadline -- so C must be rejected, as a full recompute
// rejects it. A reverse index that lost R under A,1 never re-sweeps R.
TEST(Controller, DsBatchCommitIndexesEveryNewInputOfAResident) {
  for (const Policy policy : {Policy::kDs, Policy::kHolistic}) {
    ControllerOptions options = pm_options();
    options.policy = policy;
    options.full_recompute = true;
    AdmissionController full{options};
    options.full_recompute = false;
    AdmissionController incremental{options};
    for (AdmissionController* controller : {&full, &incremental}) {
      ASSERT_TRUE(controller->admit(make_spec("R", 100, {{0, 10, 9}}, 15)).accepted);
      ASSERT_TRUE(controller->batch_begin().accepted);
      (void)controller->admit(make_spec("A", 20, {{1, 2, 5}, {0, 2, 1}}));
      (void)controller->admit(make_spec("B", 50, {{1, 2, 1}, {0, 2, 2}}));
      const Outcome commit = controller->batch_commit();
      ASSERT_TRUE(commit.accepted) << to_string(policy) << ": " << commit.message;
    }
    EXPECT_EQ(full.result_hash(), incremental.result_hash()) << to_string(policy);

    const SystemState::Built built =
        incremental.state().build_with(nullptr, 0, std::nullopt);
    const InterferenceMap fresh_map{built.system};
    IeertIncrementalState fresh_index;
    ieert_index_dependencies(built.system, fresh_map, fresh_index);
    const std::optional<Engine::StructureDigest> digest = incremental.structure_digest();
    ASSERT_TRUE(digest.has_value());
    EXPECT_EQ(digest->dependency_hash, ieert_dependency_hash(fresh_index))
        << to_string(policy);

    const TaskSpec c = make_spec("C", 40, {{1, 5, 3}});
    const Outcome full_c = full.admit(c);
    const Outcome incremental_c = incremental.admit(c);
    EXPECT_FALSE(full_c.accepted) << to_string(policy);
    EXPECT_EQ(full_c.culprit_task, "R") << to_string(policy);
    EXPECT_EQ(incremental_c.accepted, full_c.accepted) << to_string(policy);
    EXPECT_EQ(incremental_c.culprit_bound, full_c.culprit_bound) << to_string(policy);
    EXPECT_EQ(full.result_hash(), incremental.result_hash()) << to_string(policy);
  }
}

// A period whose 300x divergence cap is not representable in int64: every
// cap and failure cutoff must saturate to infinity. A wrapped (negative)
// cap makes every fixpoint look divergent, so the huge-period task -- or,
// under SA/PM, the resident one -- would be reported unbounded.
TEST(Controller, HugePeriodSaturatesTheDivergenceCap) {
  for (const Policy policy : {Policy::kPm, Policy::kDs, Policy::kHolistic}) {
    const auto start = std::chrono::steady_clock::now();
    ControllerOptions options = pm_options();
    options.policy = policy;
    options.full_recompute = true;
    AdmissionController full{options};
    options.full_recompute = false;
    AdmissionController incremental{options};
    for (AdmissionController* controller : {&full, &incremental}) {
      ASSERT_TRUE(
          controller->admit(make_spec("a", 1000, {{0, 10, 1}, {1, 10, 1}})).accepted);
      const Outcome b = controller->admit(
          make_spec("b", 9'000'000'000'000'000'000, {{0, 10, 2}, {1, 10, 2}}));
      EXPECT_TRUE(b.accepted) << to_string(policy) << ": " << b.message;
      // Both tasks bounded: the margin is finite (an unbounded EER is 1e9).
      EXPECT_LT(controller->query().margin, 1.0) << to_string(policy);
      EXPECT_TRUE(controller->remove("b").remaining_schedulable) << to_string(policy);
    }
    EXPECT_EQ(full.result_hash(), incremental.result_hash()) << to_string(policy);
    EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds{1})
        << to_string(policy);
  }
}

// Two 3-chains whose priorities cross on two processors make a 2-cycle
// in the IEERT dependencies: A,2 (processor 1) reads B,2 through B,3's
// jitter, and B,2 (processor 0) reads A,2 through A,3's. Removing C, the
// top-priority task on processor 0, forces B,2, so the SA/DS remove must
// re-solve that cycle as one component -- and still land on exactly the
// table a fresh analysis of the remaining system computes.
TEST(Controller, DsRemoveResolvesADependencyCycle) {
  for (const Policy policy : {Policy::kDs, Policy::kHolistic}) {
    ControllerOptions options = pm_options();
    options.policy = policy;
    options.full_recompute = true;
    AdmissionController full{options};
    options.full_recompute = false;
    AdmissionController incremental{options};
    for (AdmissionController* controller : {&full, &incremental}) {
      ASSERT_TRUE(controller->admit(make_spec("C", 50, {{0, 5, 0}})).accepted);
      ASSERT_TRUE(controller
                      ->admit(make_spec("A", 100, {{0, 5, 1}, {1, 5, 3}, {0, 5, 2}}))
                      .accepted);
      ASSERT_TRUE(controller
                      ->admit(make_spec("B", 100, {{1, 5, 1}, {0, 5, 3}, {1, 5, 2}}))
                      .accepted);
    }
    EXPECT_EQ(full.remove("C").accepted, true);
    const Outcome removed = incremental.remove("C");
    ASSERT_TRUE(removed.accepted);
    EXPECT_EQ(removed.path.path, EnginePath::kComponents) << to_string(policy);
    EXPECT_GE(removed.path.largest, 2u) << to_string(policy);
    EXPECT_EQ(full.result_hash(), incremental.result_hash()) << to_string(policy);

    const SystemState::Built built =
        incremental.state().build_with(nullptr, 0, std::nullopt);
    const SaDsResult fresh = analyze_sa_ds(
        built.system, InterferenceMap{built.system},
        SaDsOptions{.refine_jitter_with_best_case = policy == Policy::kHolistic});
    ASSERT_TRUE(fresh.converged);
    const std::optional<Engine::StructureDigest> digest = incremental.structure_digest();
    ASSERT_TRUE(digest.has_value());
    EXPECT_EQ(digest->table_hash, fresh.analysis.subtask_bounds.content_hash())
        << to_string(policy);
  }
}

// A non-preemptible candidate *below* resident R on processor 0 changes
// only R's blocking term: R's interference set, the cap (S keeps the
// largest period) and every other equation stay as they were. A warm
// admit must still re-solve R. The first candidate's blocking (19) pushes
// R past its deadline, so it is rejected with R as the culprit; the
// second's (9) keeps R schedulable. Both verdicts, every bound and the
// result hash must match the full recompute's.
TEST(Controller, WarmAdmitResolvesABlockingOnlyChange) {
  for (const Policy policy : {Policy::kPm, Policy::kDs, Policy::kHolistic}) {
    ControllerOptions options = pm_options();
    options.policy = policy;
    options.full_recompute = true;
    AdmissionController full{options};
    options.full_recompute = false;
    AdmissionController incremental{options};
    for (AdmissionController* controller : {&full, &incremental}) {
      ASSERT_TRUE(controller->admit(make_spec("R", 100, {{0, 10, 1}}, 25)).accepted);
      ASSERT_TRUE(controller->admit(make_spec("S", 200, {{1, 10, 1}})).accepted);
    }
    const auto np_below_r = [](std::string name, Duration exec) {
      return make_spec(std::move(name), 100,
                       {{.processor = 0, .execution_time = exec, .priority_level = 5,
                         .preemptible = false}});
    };
    const TaskSpec blocks_too_much = np_below_r("C1", 20);
    const Outcome full_c1 = full.admit(blocks_too_much);
    const Outcome incremental_c1 = incremental.admit(blocks_too_much);
    EXPECT_EQ(incremental_c1.path.path, EnginePath::kWarm) << to_string(policy);
    EXPECT_FALSE(full_c1.accepted) << to_string(policy);
    EXPECT_EQ(full_c1.culprit_task, "R") << to_string(policy);
    EXPECT_EQ(incremental_c1.accepted, full_c1.accepted) << to_string(policy);
    EXPECT_EQ(incremental_c1.culprit_task, full_c1.culprit_task) << to_string(policy);
    EXPECT_EQ(incremental_c1.culprit_bound, full_c1.culprit_bound) << to_string(policy);
    EXPECT_EQ(incremental_c1.culprit_eer, full_c1.culprit_eer) << to_string(policy);
    EXPECT_EQ(full.result_hash(), incremental.result_hash()) << to_string(policy);

    const TaskSpec blocks_within_deadline = np_below_r("C2", 10);
    const Outcome full_c2 = full.admit(blocks_within_deadline);
    const Outcome incremental_c2 = incremental.admit(blocks_within_deadline);
    EXPECT_EQ(incremental_c2.path.path, EnginePath::kWarm) << to_string(policy);
    EXPECT_TRUE(full_c2.accepted) << to_string(policy);
    EXPECT_EQ(incremental_c2.accepted, full_c2.accepted) << to_string(policy);
    EXPECT_EQ(full.query().margin, incremental.query().margin) << to_string(policy);
    EXPECT_EQ(full.result_hash(), incremental.result_hash()) << to_string(policy);
    if (policy == Policy::kPm) continue;
    const SystemState::Built built =
        incremental.state().build_with(nullptr, 0, std::nullopt);
    const SaDsResult fresh = analyze_sa_ds(
        built.system, InterferenceMap{built.system},
        SaDsOptions{.refine_jitter_with_best_case = policy == Policy::kHolistic});
    const std::optional<Engine::StructureDigest> digest = incremental.structure_digest();
    ASSERT_TRUE(digest.has_value());
    EXPECT_EQ(digest->table_hash, fresh.analysis.subtask_bounds.content_hash())
        << to_string(policy);
  }
}

// A preemptible candidate below all six residents of processor 0 joins
// no resident's interference set and raises no blocking term, so a warm
// admit solves its own equation and none of theirs: fewer entry solves
// than the processor has residents, and the full recompute's bounds.
TEST(Controller, WarmAdmitBelowEveryResidentSolvesFewerEntriesThanResidents) {
  constexpr int kResidents = 6;
  for (const Policy policy : {Policy::kPm, Policy::kDs, Policy::kHolistic}) {
    ControllerOptions options = pm_options();
    options.policy = policy;
    options.full_recompute = true;
    AdmissionController full{options};
    options.full_recompute = false;
    AdmissionController incremental{options};
    for (AdmissionController* controller : {&full, &incremental}) {
      for (int i = 0; i < kResidents; ++i) {
        ASSERT_TRUE(
            controller->admit(make_spec("R" + std::to_string(i), 100, {{0, 4, i}})).accepted);
      }
    }
    const TaskSpec low = make_spec("L", 100, {{0, 4, kResidents + 3}});
    const Outcome full_low = full.admit(low);
    const Outcome incremental_low = incremental.admit(low);
    ASSERT_TRUE(full_low.accepted) << to_string(policy);
    ASSERT_TRUE(incremental_low.accepted) << to_string(policy);
    EXPECT_EQ(incremental_low.path.path, EnginePath::kWarm) << to_string(policy);
    EXPECT_GT(incremental_low.path.evaluations, 0u) << to_string(policy);
    EXPECT_LT(incremental_low.path.evaluations, static_cast<std::uint64_t>(kResidents))
        << to_string(policy);
    EXPECT_EQ(full.result_hash(), incremental.result_hash()) << to_string(policy);
  }
}

// An admit that raises the maximum period grows the SA/PM divergence
// cap. H and R load processor 0 to 99.98%, so R's busy period (400 800)
// exceeds 300 x R's own period but not 300 x A's: R is bounded while A
// is live, and removing A shrinks the cap and leaves R unbounded (the
// remaining system fails). Admitting B, with A's period on the other processor,
// grows the cap back. R is on no processor B occupies and its equation
// is unchanged bar the cap, yet its stored bound is infinite, so the
// admit must reopen it: accepted, with R bounded, as the full recompute
// finds, on the cold-cap path.
TEST(Controller, PmCapGrowthReopensAnUnboundedResident) {
  constexpr Duration kLongDeadline = 10'000'000;
  ControllerOptions options = pm_options();
  options.full_recompute = true;
  AdmissionController full{options};
  options.full_recompute = false;
  AdmissionController incremental{options};
  for (AdmissionController* controller : {&full, &incremental}) {
    ASSERT_TRUE(controller->admit(make_spec("A", 100'000, {{1, 10, 0}})).accepted);
    ASSERT_TRUE(
        controller->admit(make_spec("H", 1000, {{0, 400, 0}}, kLongDeadline)).accepted);
    ASSERT_TRUE(
        controller->admit(make_spec("R", 1002, {{0, 601, 1}}, kLongDeadline)).accepted);
    const Outcome removed = controller->remove("A");
    ASSERT_TRUE(removed.accepted);
    EXPECT_FALSE(removed.remaining_schedulable);
    EXPECT_EQ(removed.culprit_task, "R");
    EXPECT_GE(controller->query().margin, 1e9);  // R unbounded
  }
  EXPECT_EQ(full.result_hash(), incremental.result_hash());

  const TaskSpec b = make_spec("B", 100'000, {{1, 10, 0}});
  const Outcome full_b = full.admit(b);
  const Outcome incremental_b = incremental.admit(b);
  EXPECT_TRUE(full_b.accepted) << full_b.message;
  EXPECT_EQ(incremental_b.accepted, full_b.accepted) << incremental_b.message;
  EXPECT_EQ(incremental_b.path.path, EnginePath::kColdCap);
  const double margin = incremental.query().margin;
  EXPECT_LT(margin, 1.0);  // R bounded again
  EXPECT_EQ(full.query().margin, margin);
  EXPECT_EQ(full.result_hash(), incremental.result_hash());
}

// The SA/PM engine's trial state is flat and reused: once a warm admit
// has been rejected, rejecting the same candidate again (same pool slot,
// same journal, same scratch sizes) calls the global allocator zero
// times, rejection detail included.
TEST(Controller, RepeatedRejectedPmWarmAdmitAllocatesNothing) {
  const std::unique_ptr<Engine> engine = make_engine(Policy::kPm, false);
  SystemState state{2};
  for (const TaskSpec& resident :
       {make_spec("R", 100, {{0, 10, 1}}, 25), make_spec("S", 200, {{1, 10, 1}}, 200)}) {
    ASSERT_TRUE(engine->admit_batch(state, state.next_slot(), {&resident, 1}).schedulable);
    (void)state.commit_admit(resident);
  }
  // Non-preemptible below R: blocks R past its deadline, cap unchanged.
  const TaskSpec candidate = make_spec(
      "C", 100,
      {{.processor = 0, .execution_time = 20, .priority_level = 5, .preemptible = false}},
      100);
  const TrialVerdict first = engine->admit_batch(state, state.next_slot(), {&candidate, 1});
  ASSERT_FALSE(first.schedulable);
  ASSERT_EQ(first.path.path, EnginePath::kWarm);
  const Duration first_bound = first.failure->subtask_bounds.front();

  const std::uint64_t before = global_allocations();
  const TrialVerdict second = engine->admit_batch(state, state.next_slot(), {&candidate, 1});
  const std::uint64_t after = global_allocations();
  EXPECT_EQ(after - before, 0u) << "a repeated rejected warm admit allocated";
  ASSERT_FALSE(second.schedulable);
  EXPECT_EQ(second.path.path, EnginePath::kWarm);
  EXPECT_EQ(second.path.evaluations, first.path.evaluations);
  EXPECT_EQ(second.failure->slot, first.failure->slot);
  EXPECT_EQ(second.failure->subtask_bounds.front(), first_bound);
  EXPECT_EQ(engine->fold_bounds(0), [&] {
    const std::unique_ptr<Engine> fresh = make_engine(Policy::kPm, false);
    SystemState fresh_state{2};
    for (const auto& [slot, spec] : state.live()) {
      (void)fresh->admit_batch(fresh_state, slot, {&spec, 1});
      (void)fresh_state.commit_admit(spec);
    }
    return fresh->fold_bounds(0);
  }());
}

}  // namespace
}  // namespace e2e::admission
