#include "report/perf_json.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "common/error.h"

namespace e2e {
namespace {

PerfReport sample_report() {
  PerfReport report;
  report.bench = "faults";
  report.workload = "2 systems, horizon 5 max-periods";
  report.deterministic = true;
  report.hw_threads = 8;
  report.peak_rss_bytes = 64 * 1024 * 1024;
  report.entries = {
      {.threads = 1,
       .wall_seconds = 2.0,
       .events = 1000,
       .events_per_second = 500.0,
       .speedup_vs_1_thread = 1.0,
       .schedule_hash = 0xdeadbeefcafef00dULL},
      {.threads = 2,
       .wall_seconds = 1.0,
       .events = 1000,
       .events_per_second = 1000.0,
       .speedup_vs_1_thread = 2.0,
       .schedule_hash = 0xdeadbeefcafef00dULL},
  };
  return report;
}

TEST(PerfJson, SerializedReportValidates) {
  const std::string json = to_json(sample_report());
  EXPECT_NO_THROW(validate_perf_json(json));
  EXPECT_NE(json.find("\"bench\": \"faults\""), std::string::npos);
  EXPECT_NE(json.find("\"deterministic\": true"), std::string::npos);
  EXPECT_NE(json.find("\"hw_threads\": 8"), std::string::npos);
  EXPECT_NE(json.find("\"peak_rss_bytes\": 67108864"), std::string::npos);
  EXPECT_NE(json.find("\"0xdeadbeefcafef00d\""), std::string::npos);
}

TEST(PerfJson, EntryForLooksUpByThreadCount) {
  const PerfReport report = sample_report();
  ASSERT_NE(report.entry_for(2), nullptr);
  EXPECT_EQ(report.entry_for(2)->events_per_second, 1000.0);
  EXPECT_EQ(report.entry_for(7), nullptr);
}

TEST(PerfJson, ValidateRejectsNonObjects) {
  EXPECT_THROW(validate_perf_json(""), InvalidArgument);
  EXPECT_THROW(validate_perf_json("[]"), InvalidArgument);
  EXPECT_THROW(validate_perf_json("not json"), InvalidArgument);
}

TEST(PerfJson, ValidateRejectsMissingFields) {
  // No entries array.
  EXPECT_THROW(
      validate_perf_json(
          R"({"bench": "x", "workload": "y", "deterministic": true,
              "hw_threads": 4, "peak_rss_bytes": 1024})"),
      InvalidArgument);
  // No hw_threads / peak_rss_bytes (pre-schema-v2 document).
  EXPECT_THROW(validate_perf_json(
                   R"({"bench": "x", "workload": "y", "deterministic": true,
                       "entries": []})"),
               InvalidArgument);
  // Entry without a schedule_hash.
  EXPECT_THROW(
      validate_perf_json(
          R"({"bench": "x", "workload": "y", "deterministic": true,
              "hw_threads": 4, "peak_rss_bytes": 1024,
              "entries": [{"threads": 1, "wall_seconds": 1.0, "events": 2,
                           "events_per_second": 2.0,
                           "speedup_vs_1_thread": 1.0}]})"),
      InvalidArgument);
}

TEST(PerfJson, ValidateRejectsMalformedValues) {
  // Zero threads.
  EXPECT_THROW(
      validate_perf_json(
          R"({"bench": "x", "workload": "y", "deterministic": true,
              "hw_threads": 4, "peak_rss_bytes": 1024,
              "entries": [{"threads": 0, "wall_seconds": 1.0, "events": 2,
                           "events_per_second": 2.0,
                           "speedup_vs_1_thread": 1.0,
                           "schedule_hash": "0x0000000000000001"}]})"),
      InvalidArgument);
  // Zero hw_threads.
  EXPECT_THROW(
      validate_perf_json(
          R"({"bench": "x", "workload": "y", "deterministic": true,
              "hw_threads": 0, "peak_rss_bytes": 1024, "entries": []})"),
      InvalidArgument);
  // Negative peak RSS.
  EXPECT_THROW(
      validate_perf_json(
          R"({"bench": "x", "workload": "y", "deterministic": true,
              "hw_threads": 4, "peak_rss_bytes": -1, "entries": []})"),
      InvalidArgument);
  // Hash that is not an 0x-prefixed 16-digit hex string.
  EXPECT_THROW(
      validate_perf_json(
          R"({"bench": "x", "workload": "y", "deterministic": true,
              "hw_threads": 4, "peak_rss_bytes": 1024,
              "entries": [{"threads": 1, "wall_seconds": 1.0, "events": 2,
                           "events_per_second": 2.0,
                           "speedup_vs_1_thread": 1.0,
                           "schedule_hash": "12345"}]})"),
      InvalidArgument);
}

TEST(PerfJson, BenchThreadCountsDefaultsTo1248) {
  ::unsetenv("E2E_BENCH_THREADS");
  EXPECT_EQ(bench_thread_counts(), (std::vector<int>{1, 2, 4, 8}));
}

TEST(PerfJson, BenchThreadCountsParsesTheEnvOverride) {
  ::setenv("E2E_BENCH_THREADS", "1,3,5", 1);
  EXPECT_EQ(bench_thread_counts(), (std::vector<int>{1, 3, 5}));
  ::setenv("E2E_BENCH_THREADS", "2", 1);
  EXPECT_EQ(bench_thread_counts(), (std::vector<int>{2}));
  ::unsetenv("E2E_BENCH_THREADS");
}

TEST(PerfJson, BenchThreadCountsRejectsGarbageEnv) {
  ::setenv("E2E_BENCH_THREADS", "zero,none", 1);
  EXPECT_THROW(bench_thread_counts(), InvalidArgument);
  ::setenv("E2E_BENCH_THREADS", "1,-2", 1);
  EXPECT_THROW(bench_thread_counts(), InvalidArgument);
  ::unsetenv("E2E_BENCH_THREADS");
}

TEST(PerfJson, HarnessMarksDeterministicWorkloads) {
  const PerfReport report = run_perf_harness(
      "demo", "consistent workload", {1, 2}, [](int) {
        // Enough work for a nonzero wall-clock reading.
        volatile std::int64_t sink = 0;
        for (std::int64_t i = 0; i < 200'000; ++i) sink = sink + i;
        return PerfRunOutcome{.events = 10, .schedule_hash = 42};
      });
  EXPECT_TRUE(report.deterministic);
  ASSERT_EQ(report.entries.size(), 2u);
  EXPECT_EQ(report.entries[0].threads, 1);
  EXPECT_EQ(report.entries[0].speedup_vs_1_thread, 1.0);
  EXPECT_EQ(report.entries[1].schedule_hash, 42u);
  EXPECT_GT(report.entries[1].wall_seconds, 0.0);
  EXPECT_NO_THROW(validate_perf_json(to_json(report)));
}

TEST(PerfJson, HarnessFlagsNonDeterministicWorkloads) {
  const PerfReport report = run_perf_harness(
      "demo", "hash depends on thread count", {1, 2}, [](int threads) {
        return PerfRunOutcome{.events = 10,
                              .schedule_hash =
                                  static_cast<std::uint64_t>(threads)};
      });
  EXPECT_FALSE(report.deterministic);
}

TEST(PerfJson, HarnessRecordsHostFacts) {
  const PerfReport report = run_perf_harness(
      "demo", "w", {1}, [](int) { return PerfRunOutcome{}; });
  EXPECT_GE(report.hw_threads, 1);
  EXPECT_GE(report.peak_rss_bytes, 0);
}

PerfReport gate_report(int hw_threads, double eight_thread_speedup) {
  PerfReport report = sample_report();
  report.hw_threads = hw_threads;
  report.entries.push_back({.threads = 8,
                            .wall_seconds = 2.0 / eight_thread_speedup,
                            .events = 1000,
                            .events_per_second = 500.0 * eight_thread_speedup,
                            .speedup_vs_1_thread = eight_thread_speedup,
                            .schedule_hash = 0xdeadbeefcafef00dULL});
  return report;
}

TEST(PerfJson, ScalingGatePassesAtOrAboveTheFloor) {
  EXPECT_EQ(scaling_gate_failure(gate_report(8, 3.0), 3.0), std::nullopt);
  EXPECT_EQ(scaling_gate_failure(gate_report(8, 5.5), 3.0), std::nullopt);
}

TEST(PerfJson, ScalingGateFailsBelowTheFloor) {
  const std::optional<std::string> failure =
      scaling_gate_failure(gate_report(8, 1.2), 3.0);
  ASSERT_TRUE(failure.has_value());
  EXPECT_NE(failure->find("1.200x"), std::string::npos);
  EXPECT_NE(failure->find("faults"), std::string::npos);
}

TEST(PerfJson, ScalingGateSkipsSmallHosts) {
  // A 1- or 2-core host times oversubscription, not scaling: no verdict.
  EXPECT_EQ(scaling_gate_failure(gate_report(1, 1.0), 3.0), std::nullopt);
  EXPECT_EQ(scaling_gate_failure(gate_report(2, 1.1), 3.0), std::nullopt);
}

TEST(PerfJson, ScalingGateSkipsWithoutAnEightThreadEntry) {
  PerfReport report = sample_report();  // entries for 1 and 2 threads only
  report.hw_threads = 16;
  EXPECT_EQ(scaling_gate_failure(report, 3.0), std::nullopt);
}

}  // namespace
}  // namespace e2e
