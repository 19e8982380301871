// Randomized equivalence property: on generated churn streams, the
// incremental engines agree with the full-recompute baseline on every
// verdict, every rejection reason, every culprit bound, and the running
// result hash -- checked after EVERY request, not just at the end, so a
// transient divergence that later self-corrects still fails.
//
// For the delta-maintained SA/DS engines the lockstep additionally
// checks the interference-delta invariant: after every request the
// engine's persistent InterferenceMap (rows, SoA arrays and blocking
// terms), IEERT dependency index (deps and reverse deps) and converged
// SubtaskTable must hash-match structures built FRESH from the
// committed live set. This
// covers the rejected-trial revert paths too -- a rejection leaves the
// committed state unchanged, so a revert that leaks even one patched
// interferer or journal entry diverges from fresh construction on the
// very next request.
//
// A further property replays independent shards across thread counts
// {1, 2, 8} and requires the index-ordered hash fold to be thread-count
// invariant.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "admission/churn.h"
#include "admission/controller.h"
#include "common/hash.h"
#include "common/rng.h"
#include "core/analysis/ieert.h"
#include "core/analysis/interference.h"
#include "core/analysis/sa_ds.h"
#include "exec/thread_pool.h"

namespace e2e::admission {
namespace {

/// Every field fold_outcome hashes, asserted individually so a failure
/// names the diverging field instead of just "hash mismatch".
void expect_equal_outcomes(const Outcome& full, const Outcome& incremental,
                           std::size_t request_index) {
  EXPECT_EQ(full.verb, incremental.verb) << "request " << request_index;
  EXPECT_EQ(full.accepted, incremental.accepted) << "request " << request_index;
  EXPECT_EQ(full.reason, incremental.reason) << "request " << request_index;
  EXPECT_EQ(full.task_name, incremental.task_name) << "request " << request_index;
  EXPECT_EQ(full.slot, incremental.slot) << "request " << request_index;
  EXPECT_EQ(full.culprit_task, incremental.culprit_task)
      << "request " << request_index;
  EXPECT_EQ(full.culprit_is_candidate, incremental.culprit_is_candidate)
      << "request " << request_index;
  EXPECT_EQ(full.culprit_subtask, incremental.culprit_subtask)
      << "request " << request_index;
  EXPECT_EQ(full.culprit_processor, incremental.culprit_processor)
      << "request " << request_index;
  EXPECT_EQ(full.culprit_bound, incremental.culprit_bound)
      << "request " << request_index;
  EXPECT_EQ(full.culprit_eer, incremental.culprit_eer)
      << "request " << request_index;
  EXPECT_EQ(full.culprit_deadline, incremental.culprit_deadline)
      << "request " << request_index;
  EXPECT_EQ(full.margin, incremental.margin) << "request " << request_index;
  EXPECT_EQ(full.live_tasks, incremental.live_tasks)
      << "request " << request_index;
  EXPECT_EQ(full.remaining_schedulable, incremental.remaining_schedulable)
      << "request " << request_index;
  EXPECT_EQ(full.batch_size, incremental.batch_size)
      << "request " << request_index;
}

/// Interference-delta lockstep: the incremental DS engine's persistent
/// structures must hash-match ones built fresh from the committed live
/// set. PM engines (and empty systems) expose no digest.
void expect_digest_matches_fresh(const AdmissionController& incremental,
                                 Policy policy, std::size_t request_index) {
  const std::optional<Engine::StructureDigest> digest =
      incremental.structure_digest();
  if (policy == Policy::kPm || incremental.state().task_count() == 0) {
    EXPECT_FALSE(digest.has_value()) << "request " << request_index;
    return;
  }
  ASSERT_TRUE(digest.has_value()) << "request " << request_index;
  const SystemState::Built built =
      incremental.state().build_with(nullptr, 0, std::nullopt);
  const InterferenceMap fresh_map{built.system};
  EXPECT_EQ(digest->interference_hash, fresh_map.content_hash())
      << "request " << request_index;
  IeertIncrementalState fresh_index;
  ieert_index_dependencies(built.system, fresh_map, fresh_index);
  EXPECT_EQ(digest->dependency_hash, ieert_dependency_hash(fresh_index))
      << "request " << request_index;
  const SaDsOptions options{.refine_jitter_with_best_case =
                                policy == Policy::kHolistic};
  const SaDsResult fresh = analyze_sa_ds(built.system, fresh_map, options);
  EXPECT_EQ(digest->table_hash, fresh.analysis.subtask_bounds.content_hash())
      << "request " << request_index;
}

ChurnShape lockstep_shape(double batch_fraction = 0.0) {
  ChurnShape shape;
  shape.processors = 8;
  shape.initial_admits = 60;
  shape.requests = 220;
  // Oversubscribe slightly so the stream exercises utilization and
  // bound-failure rejections, not just accepts.
  shape.max_sub_utilization = 0.05;
  shape.batch_fraction = batch_fraction;
  shape.max_batch = 3;
  return shape;
}

/// What the incremental engine's removals did over one stream.
struct RemovePaths {
  std::size_t component_removes = 0;
  std::size_t multi_member_resolves = 0;  ///< removes that re-solved a cycle
  std::size_t skipped_components = 0;
  std::size_t compactions = 0;  ///< requests that compacted retired rows away
  std::size_t removes_over_holes = 0;  ///< component removes with holes already present
};

void run_lockstep(Policy policy, std::uint64_t seed, const ChurnShape& shape,
                  RemovePaths* paths = nullptr) {
  Rng rng{seed};
  const std::vector<Request> stream = generate_churn(rng, shape);
  ASSERT_GE(stream.size(), 200u);

  ControllerOptions options;
  options.policy = policy;
  options.processors = shape.processors;
  options.full_recompute = true;
  AdmissionController full{options};
  options.full_recompute = false;
  AdmissionController incremental{options};
  ASSERT_STRNE(full.engine_name(), incremental.engine_name());

  bool saw_reject = false;
  bool saw_remove = false;
  bool saw_batch = false;
  bool holes = false;  // a remove left retired rows no compaction has dropped yet
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const Outcome a = full.submit(stream[i]);
    const Outcome b = incremental.submit(stream[i]);
    expect_equal_outcomes(a, b, i);
    ASSERT_EQ(full.result_hash(), incremental.result_hash())
        << "policy " << to_string(policy) << ", request " << i << " ("
        << to_string(stream[i].verb) << " '" << stream[i].task.name << "')";
    expect_digest_matches_fresh(incremental, policy, i);
    if (paths != nullptr && b.path.path == EnginePath::kComponents) {
      ++paths->component_removes;
      paths->multi_member_resolves += b.path.largest >= 2 ? 1 : 0;
      paths->skipped_components += b.path.skipped;
      paths->removes_over_holes += holes ? 1 : 0;
    }
    if (b.path.compacted) {
      holes = false;
      if (paths != nullptr) ++paths->compactions;
    } else if (b.path.path == EnginePath::kComponents) {
      holes = true;
    }
    saw_reject |= (!a.accepted && a.reason == ReasonCode::kBoundFailure);
    saw_remove |= (a.verb == Verb::kRemove && a.accepted);
    saw_batch |= (a.verb == Verb::kBatchCommit && a.batch_size >= 2);
  }
  // The property is vacuous on an all-accept stream; make sure the
  // generated churn actually exercised both interesting paths (rejected
  // trials drive the engines' revert machinery).
  EXPECT_TRUE(saw_reject);
  EXPECT_TRUE(saw_remove);
  EXPECT_EQ(saw_batch, shape.batch_fraction > 0.0);
}

TEST(AdmissionProperty, IncrementalPmMatchesFullRecompute) {
  run_lockstep(Policy::kPm, 0xA11CE5u, lockstep_shape());
}

TEST(AdmissionProperty, IncrementalDsMatchesFullRecompute) {
  run_lockstep(Policy::kDs, 0xB0B5EEDu, lockstep_shape());
}

TEST(AdmissionProperty, IncrementalHolisticMatchesFullRecompute) {
  run_lockstep(Policy::kHolistic, 0xC0FFEEu, lockstep_shape());
}

// A second seed per policy, so one lucky stream cannot hide a bug.
TEST(AdmissionProperty, SecondSeedSweep) {
  run_lockstep(Policy::kPm, 20260808u, lockstep_shape());
  run_lockstep(Policy::kDs, 20260809u, lockstep_shape());
  run_lockstep(Policy::kHolistic, 20260810u, lockstep_shape());
}

// Batched streams: batch-begin/admits/batch-commit groups answered
// through one engine trajectory each, still in lockstep with the
// full-recompute baseline (including batch rejections, which exercise
// the multi-task revert path of the persistent DS structures).
TEST(AdmissionProperty, BatchedStreamsMatch) {
  run_lockstep(Policy::kPm, 0x5EED0001u, lockstep_shape(0.3));
  run_lockstep(Policy::kDs, 0x5EED0002u, lockstep_shape(0.3));
  run_lockstep(Policy::kHolistic, 0x5EED0003u, lockstep_shape(0.3));
}

// Batch-commits whose members add interferers to one resident from two
// members at once (seed 19 first does so at request 86, seed 4 at 157):
// the delta-maintained reverse index must list the resident under each
// new input exactly once, as a fresh index does.
TEST(AdmissionProperty, BatchMembersSharingAResidentMatch) {
  run_lockstep(Policy::kDs, 19u, lockstep_shape(0.3));
  run_lockstep(Policy::kHolistic, 4u, lockstep_shape(0.3));
}

// Few processors and long chains crowd many chains onto each processor,
// so the IEERT dependencies form cycles: the SA/DS removals must re-solve
// multi-member components (and keep others untouched) while staying in
// lockstep with full recompute.
TEST(AdmissionProperty, CyclicRemovalsMatch) {
  ChurnShape shape = lockstep_shape();
  shape.processors = 4;
  shape.max_chain = 3;
  shape.remove_fraction = 0.4;
  for (const auto& [policy, seed] : {std::pair{Policy::kDs, 0xC7C1E001u},
                                     std::pair{Policy::kHolistic, 0xC7C1E002u}}) {
    RemovePaths paths;
    run_lockstep(policy, seed, shape, &paths);
    EXPECT_GT(paths.component_removes, 0u) << to_string(policy);
    EXPECT_GT(paths.multi_member_resolves, 0u) << to_string(policy);
    EXPECT_GT(paths.skipped_components, 0u) << to_string(policy);
  }
}

// A remove-heavy stream long enough that the SA/DS engines compact their
// retired rows several times, with batch groups arriving between removes:
// warm removes over holes, admits and batches appended behind them, and
// every compaction stay in lockstep with full recompute, and the digest
// matches fresh construction after every request.
TEST(AdmissionProperty, RepeatedCompactionsMatch) {
  ChurnShape shape = lockstep_shape(0.2);
  shape.requests = 420;
  shape.remove_fraction = 0.45;
  for (const auto& [policy, seed] : {std::pair{Policy::kDs, 0xC0A1E5C0u},
                                     std::pair{Policy::kHolistic, 0xC0A1E5C1u}}) {
    RemovePaths paths;
    run_lockstep(policy, seed, shape, &paths);
    EXPECT_GE(paths.compactions, 3u) << to_string(policy);
    EXPECT_GT(paths.removes_over_holes, 0u) << to_string(policy);
  }
}

TEST(AdmissionProperty, ShardedReplayIsThreadCountInvariant) {
  constexpr std::size_t kShards = 6;
  ChurnShape shape;
  shape.processors = 8;
  shape.initial_admits = 25;
  shape.requests = 90;
  shape.max_sub_utilization = 0.05;

  Rng master{0xD15C0u};
  std::vector<std::vector<Request>> streams;
  streams.reserve(kShards);
  for (std::size_t s = 0; s < kShards; ++s) {
    Rng rng = master.fork(s);
    streams.push_back(generate_churn(rng, shape));
  }

  const auto folded_hash = [&](int threads) {
    exec::ThreadPool pool{threads};
    std::vector<std::uint64_t> hashes(kShards, 0);
    pool.parallel_for_indexed(
        static_cast<std::int64_t>(kShards),
        [&](std::int64_t index, int /*worker*/) {
          ControllerOptions options;
          options.policy = Policy::kPm;
          options.processors = shape.processors;
          AdmissionController controller{options};
          for (const Request& request : streams[static_cast<std::size_t>(index)]) {
            (void)controller.submit(request);
          }
          hashes[static_cast<std::size_t>(index)] = controller.result_hash();
        });
    std::uint64_t folded = 0;
    for (const std::uint64_t h : hashes) folded = hash_combine(folded, h);
    return folded;
  };

  const std::uint64_t at1 = folded_hash(1);
  EXPECT_EQ(folded_hash(2), at1);
  EXPECT_EQ(folded_hash(8), at1);
}

}  // namespace
}  // namespace e2e::admission
