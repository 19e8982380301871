// The benchmark's own arithmetic: percentiles, the per-pass estimators
// (the probe-normalized median it reports, and the fastest decile it
// prints for comparison) and unit conversions. Kept free of the e2esync
// libraries so the self-test links nothing else.
#pragma once

#include <cstdint>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile: the smallest sample such that at least p% of
/// the samples are <= it (rank ceil(p/100 * n), 1-based, at least 1).
/// `p` is in (0, 100]. Throws std::invalid_argument on an empty sample or
/// an out-of-range p.
[[nodiscard]] double nearest_rank(std::vector<double> samples, double p);

/// The fastest-decile estimate over per-chunk values: the nearest-rank
/// 10th percentile of the chunk values when lower is better (times,
/// latencies), the same rank from the top when higher is better
/// (throughput). It removes interference shorter than a run, not a slow
/// phase that covers the whole run (see probe.h).
[[nodiscard]] double fastest_decile(const std::vector<double>& chunk_values,
                                    bool lower_is_better);

/// Median over passes of raw[i] / slowdown[i]: each pass's time with the
/// host slowdown measured around it divided out. Throws
/// std::invalid_argument on empty or mismatched inputs.
[[nodiscard]] double median_normalized(const std::vector<double>& raw,
                                       const std::vector<double>& slowdown);

/// Linux reports peak RSS (getrusage's ru_maxrss, /proc's VmHWM) in KiB;
/// this converts to MiB.
[[nodiscard]] double maxrss_kib_to_mib(long maxrss_kib);

/// Peak resident set size of this process image so far, in MiB.
[[nodiscard]] double peak_rss_mib();

/// Ratio of the nearest-rank 90th to 10th percentile of chunk times: the
/// per-run noise diagnostic (1.0 = every chunk took the same time).
[[nodiscard]] double p90_p10_ratio(const std::vector<double>& chunk_seconds);

}  // namespace perfbench
