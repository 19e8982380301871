// Perf-regression harness: times one experiment workload at several
// thread counts and serializes the measurements as a small JSON document
// (BENCH_<name>.json) that successive commits can diff.
//
// The harness is also a determinism check: each timed run reports its
// combined schedule hash, and the report records whether every run at
// every thread count produced the identical hash. A bench in --json mode exits
// nonzero when they differ, so a parallelism bug fails CI even if the
// timings look fine.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

namespace e2e {

/// The timed runs of the workload at a fixed thread count.
struct PerfEntry {
  int threads = 0;
  double wall_seconds = 0.0;        ///< median over the harness's repeats
  std::int64_t events = 0;          ///< simulation events processed
  double events_per_second = 0.0;
  double speedup_vs_1_thread = 0.0; ///< wall(1 thread) / wall(this)
  std::uint64_t schedule_hash = 0;  ///< workload fingerprint for this run
};

/// One timed single-thread code-path variant of the workload (e.g.
/// bench_admission's incremental engines vs their full-recompute
/// baseline). Variants compare implementations, entries compare thread
/// counts.
struct PerfVariant {
  std::string name;
  double wall_seconds = 0.0;
  /// wall(baseline variant) / wall(this); the baseline variant (a full
  /// recompute in bench_admission) records 1.0. The name predates that
  /// meaning and is kept for the JSON schema.
  double speedup_vs_legacy = 0.0;
  std::uint64_t result_hash = 0;   ///< fingerprint of the computed results
  /// Optional per-request latency percentiles (microseconds) for request-
  /// stream variants; all zero (and omitted from the JSON) when the
  /// variant has no per-request notion of latency.
  double latency_p50_us = 0.0;
  double latency_p95_us = 0.0;
  double latency_p99_us = 0.0;
};

struct PerfReport {
  std::string bench;     ///< e.g. "faults"
  std::string workload;  ///< human-readable workload description
  /// True iff every entry produced the same schedule hash.
  bool deterministic = false;
  /// Hardware threads of the measuring host. Multi-thread speedups from a
  /// host with fewer cores than the thread count measure oversubscription,
  /// not scaling -- consumers (and the scaling gate) must check this
  /// before judging speedup_vs_1_thread.
  int hw_threads = 0;
  /// Peak resident set size of the benchmarking process in bytes
  /// (getrusage ru_maxrss); 0 where the platform cannot report it.
  std::int64_t peak_rss_bytes = 0;
  std::vector<PerfEntry> entries;
  /// Optional code-path comparison (empty for benches without variants).
  std::vector<PerfVariant> variants;

  [[nodiscard]] const PerfEntry* entry_for(int threads) const noexcept;
};

/// What one timed run hands back to the harness.
struct PerfRunOutcome {
  std::int64_t events = 0;
  std::uint64_t schedule_hash = 0;
};

/// Thread counts a bench measures: E2E_BENCH_THREADS (comma-separated
/// positive integers) when set, otherwise {1, 2, 4, 8}.
[[nodiscard]] std::vector<int> bench_thread_counts();

/// Runs `run(threads)` three times per requested thread count, the whole
/// ladder at a time (1,2,4,8,1,2,4,8,...), timing each run with a
/// monotonic clock, and assembles the report: each entry keeps its median
/// wall time, and the report is deterministic only if every run of every
/// count produced the same hash. The first count is the speedup baseline
/// (callers normally put 1 first).
[[nodiscard]] PerfReport run_perf_harness(
    const std::string& bench, const std::string& workload,
    const std::vector<int>& thread_counts,
    const std::function<PerfRunOutcome(int threads)>& run);

/// Serializes the report (schedule hashes as "0x..." strings so 64-bit
/// values survive JSON consumers that parse numbers as doubles).
[[nodiscard]] std::string to_json(const PerfReport& report);

/// Validates that `json` is a well-formed perf report document: a JSON
/// object with bench/workload strings, a deterministic bool, a positive
/// hw_threads, a non-negative peak_rss_bytes, and an entries array whose
/// objects carry the numeric fields above (threads positive,
/// wall_seconds and events non-negative, schedule_hash a "0x..." hex
/// string). Throws InvalidArgument with the first problem.
void validate_perf_json(const std::string& json);

/// Thread-scaling gate: returns a failure description when the report's
/// 8-thread entry fails to reach `floor` x speedup over the 1-thread
/// entry, or nullopt when the gate passes or does not apply. The gate is
/// skipped (nullopt) when the host cannot exhibit the scaling being
/// gated: hw_threads < 4 (e.g. a 1-CPU CI container, where every thread
/// count times the same serialized work), or when the report has no 1-
/// and 8-thread entries to compare.
[[nodiscard]] std::optional<std::string> scaling_gate_failure(
    const PerfReport& report, double floor);

/// Extra knobs for write_perf_report beyond the common defaults.
struct PerfWriteOptions {
  /// Pre-measured code-path variant comparison attached to the report.
  /// The bench exits nonzero when the variants' result hashes disagree
  /// (each variant must be bit-identical to its baseline).
  std::vector<PerfVariant> variants;
};

/// True when `path` can be opened for writing; otherwise prints "cannot
/// write '<path>'" to `out`. Leaves the file system as it found it.
/// Benches that do timed work of their own before write_perf_report
/// call it first, so a bad path fails fast.
[[nodiscard]] bool perf_output_writable(const std::string& path, std::ostream& out);

/// Bench entry point: opens `path`, runs the harness, validates its own JSON,
/// writes it to `path`, prints a one-line summary per variant and thread
/// count to `out`, and returns the process exit code: 2 when `path`
/// cannot be written (checked before any timed run), 4 when the workload
/// was not deterministic across thread counts, 5 when the variants
/// disagree, 6 when the opt-in scaling gate (E2E_BENCH_GATE) fails.
int write_perf_report(const std::string& bench, const std::string& workload,
                      const std::string& path,
                      const std::vector<int>& thread_counts,
                      const std::function<PerfRunOutcome(int threads)>& run,
                      const PerfWriteOptions& options, std::ostream& out);

}  // namespace e2e
