// Storage-layout regression suite: the SoA/arena/batched-dispatch engine
// must produce byte-identical schedule hashes and event counts to the
// pre-refactor engine (AoS counter tables, nested deque deferred queues,
// per-event heap dispatch) whose results are pinned in
// engine_soa_golden.h. 100 systems x {DS, PM, RG, MPM-R} x 3 fault
// ladder rungs, both on a fresh engine per cell and on one engine reused
// via reset() -- the production executors' idiom. Each cell's end state
// (final clock, per-processor busy time, dispatch/preemption/idle-point
// counts) is pinned too.
#include "engine_soa_cases.h"

#include <gtest/gtest.h>

#include "engine_soa_golden.h"

namespace e2e {
namespace {

using soa_cases::kSoaProtocols;
using soa_cases::kSoaRungs;
using soa_cases::kSoaSkipped;
using soa_cases::kSoaSystems;
using soa_cases::run_soa_case;
using soa_cases::SoaCaseResult;

std::string cell_name(int s, int p, int r) {
  constexpr const char* kNames[kSoaProtocols] = {"DS", "PM", "RG", "MPM-R"};
  return "system " + std::to_string(s) + " / " + kNames[p] + " / rung " +
         std::to_string(r);
}

void expect_golden(const SoaCaseResult& got, int s, int p, int r,
                   const std::string& label) {
  const soa_golden::GoldenCase& want = soa_golden::kGolden[s][p][r];
  ASSERT_EQ(got.hash, want.hash) << label;
  ASSERT_EQ(got.events, want.events) << label;
  const soa_golden::EndState& end = soa_golden::kEndState[s][p][r];
  ASSERT_EQ(got.end_time, end.end_time) << label;
  for (int k = 0; k < soa_cases::kSoaProcessors; ++k) {
    ASSERT_EQ(got.busy[static_cast<std::size_t>(k)], end.busy[k])
        << label << " / P" << k;
  }
  ASSERT_EQ(got.dispatches, end.dispatches) << label;
  ASSERT_EQ(got.preemptions, end.preemptions) << label;
  ASSERT_EQ(got.idle_points, end.idle_points) << label;
}

TEST(EngineSoaTest, GoldenTableIsFullyPopulated) {
  // The golden capture ran every cell; a skip marker would mean the
  // generated systems changed under us.
  int populated = 0;
  for (int s = 0; s < kSoaSystems; ++s)
    for (int p = 0; p < kSoaProtocols; ++p)
      for (int r = 0; r < kSoaRungs; ++r)
        if (soa_golden::kGolden[s][p][r].hash != kSoaSkipped) ++populated;
  EXPECT_EQ(populated, kSoaSystems * kSoaProtocols * kSoaRungs);
}

TEST(EngineSoaTest, FreshEngineMatchesPreRefactorGolden) {
  for (int s = 0; s < kSoaSystems; ++s) {
    for (int p = 0; p < kSoaProtocols; ++p) {
      for (int r = 0; r < kSoaRungs; ++r) {
        ASSERT_NO_FATAL_FAILURE(
            expect_golden(run_soa_case(s, p, r), s, p, r, cell_name(s, p, r)));
      }
    }
  }
}

TEST(EngineSoaTest, ReusedEngineMatchesPreRefactorGolden) {
  // One engine slot across all 1200 cells: reset() must replay each
  // schedule exactly, with the arena rewound instead of reallocated.
  ScenarioExecutor::WorkerSlot slot;
  for (int s = 0; s < kSoaSystems; ++s) {
    for (int p = 0; p < kSoaProtocols; ++p) {
      for (int r = 0; r < kSoaRungs; ++r) {
        ASSERT_NO_FATAL_FAILURE(expect_golden(run_soa_case(s, p, r, &slot), s, p,
                                              r, cell_name(s, p, r) + " (reused)"));
      }
    }
  }
  ASSERT_TRUE(slot.engine.has_value());
  // The arena should have settled into a stable footprint, not grown per run.
  EXPECT_LT(slot.engine->arena_bytes(), std::size_t{1} << 20);
}

}  // namespace
}  // namespace e2e
