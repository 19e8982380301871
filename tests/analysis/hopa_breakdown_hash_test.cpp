// Result pin of the HOPA + breakdown-search workload: 12 generated
// systems (N=6, U=75%, seed 20260706), each optimized by 12 HOPA rounds
// and searched for its SA/PM and SA/DS breakdown utilization, folded in
// system-index order. The hash is the schedule_hash the analysis bench
// recorded at every thread count before it was retired, so any change
// to SA/PM, SA/DS, HOPA, the breakdown search or their warm starts that
// moves a single result fails here. Small enough to run under the
// sanitizers (label bench-smoke).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "common/hash.h"
#include "common/rng.h"
#include "core/analysis/cache.h"
#include "core/analysis/hopa.h"
#include "experiments/breakdown.h"
#include "workload/generator.h"

namespace e2e {
namespace {

constexpr std::uint64_t kWorkloadHash = 0x6b8fc1f120f1df46;

std::uint64_t fold_double(std::uint64_t acc, double v) {
  return hash_combine(acc, std::bit_cast<std::uint64_t>(v));
}

TEST(HopaBreakdownHash, MatchesCommittedHash) {
  Rng master{20260706};
  std::uint64_t h = 0;
  for (int i = 0; i < 12; ++i) {
    Rng rng = master.fork(static_cast<std::uint64_t>(i));
    const TaskSystem system = generate_system(
        rng, options_for({.subtasks_per_task = 6, .utilization_percent = 75}));

    const HopaResult hopa = optimize_priorities_hopa(system, {.iterations = 12});
    std::uint64_t hopa_hash = fold_double(0, hopa.initial_margin);
    hopa_hash = fold_double(hopa_hash, hopa.margin);
    hopa_hash = hash_combine(hopa_hash, system_content_hash(hopa.system));

    std::uint64_t breakdown_hash =
        fold_double(0, breakdown_utilization(system, AnalysisKind::kSaPm));
    breakdown_hash =
        fold_double(breakdown_hash, breakdown_utilization(system, AnalysisKind::kSaDs));

    h = hash_combine(h, hash_combine(hopa_hash, breakdown_hash));
  }
  EXPECT_EQ(h, kWorkloadHash);
}

}  // namespace
}  // namespace e2e
