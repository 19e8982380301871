// Self-tests for the benchmark's own arithmetic: percentiles, the
// estimators, unit conversion and span self time. Built as
// perfbench_selftest next to perfbench; run it or `ctest` in the
// benchmark's build tree. Exits nonzero if any check fails.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "probe.h"
#include "stats.h"
#include "trace.h"

namespace {

int failures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    std::cerr << "FAIL: " << what << "\n";
    ++failures;
  }
}

void check_near(double got, double want, const std::string& what) {
  check(std::fabs(got - want) <= 1e-9 * std::max(1.0, std::fabs(want)),
        what + " (got " + std::to_string(got) + ", want " + std::to_string(want) + ")");
}

template <typename Fn>
void check_throws(Fn fn, const std::string& what) {
  try {
    fn();
  } catch (const std::invalid_argument&) {
    return;
  }
  check(false, what + " did not throw");
}

using perfbench::Span;

void nearest_rank_percentiles() {
  using perfbench::nearest_rank;
  const std::vector<double> ten{10, 1, 9, 2, 8, 3, 7, 4, 6, 5};
  check_near(nearest_rank(ten, 50.0), 5.0, "p50 of 1..10 is the 5th value");
  check_near(nearest_rank(ten, 10.0), 1.0, "p10 of 1..10 is the 1st value");
  check_near(nearest_rank(ten, 11.0), 2.0, "p11 of 1..10 rounds the rank up");
  check_near(nearest_rank(ten, 100.0), 10.0, "p100 is the maximum");
  check_near(nearest_rank(ten, 0.001), 1.0, "a tiny p still takes rank 1");
  check_near(nearest_rank({42.0}, 99.0), 42.0, "one sample is every percentile");
  // p99 of 1000 samples leaves exactly ten beyond it.
  std::vector<double> thousand;
  for (int i = 1; i <= 1000; ++i) thousand.push_back(i);
  check_near(nearest_rank(thousand, 99.0), 990.0, "p99 of 1..1000 is 990");
  check_throws([] { (void)nearest_rank({}, 50.0); }, "empty sample");
  check_throws([&] { (void)nearest_rank(ten, 0.0); }, "p = 0");
  check_throws([&] { (void)nearest_rank(ten, 101.0); }, "p > 100");
}

void fastest_decile_selection() {
  using perfbench::fastest_decile;
  // Twenty chunks: times 1..20 s. Lower is better, so the fastest decile
  // is the 2nd fastest chunk; for a rate, the 2nd highest.
  std::vector<double> times, rates;
  for (int i = 20; i >= 1; --i) {
    times.push_back(i);
    rates.push_back(100.0 / i);
  }
  check_near(fastest_decile(times, true), 2.0, "fastest decile of times");
  check_near(fastest_decile(rates, false), 50.0, "fastest decile of rates");
  check_near(perfbench::p90_p10_ratio(times), 9.0, "p90/p10 of 1..20 is 18/2");
}

void host_normalization() {
  using perfbench::host_slowdown;
  using perfbench::kProbeReferenceSeconds;
  using perfbench::median_normalized;
  check_near(host_slowdown(kProbeReferenceSeconds, kProbeReferenceSeconds), 1.0,
             "probes at the reference time mean no slowdown");
  check_near(host_slowdown(1.0 * kProbeReferenceSeconds, 2.0 * kProbeReferenceSeconds), 1.5,
             "the slowdown is the mean of the probes around a pass");
  check_throws([] { (void)host_slowdown(0.0, 1.0); }, "zero probe time");
  // A pass that ran twice as slow while the probes also ran twice as slow
  // normalizes to the same time as an undisturbed pass.
  const std::vector<double> raw{1.0, 2.0, 1.0, 3.0, 1.1};
  const std::vector<double> slowdown{1.0, 2.0, 1.0, 1.0, 1.1};
  check_near(median_normalized(raw, slowdown), 1.0, "median of normalized pass times");
  check_throws([&] { (void)median_normalized(raw, {1.0}); }, "one slowdown per pass");
}

void rss_units() {
  check_near(perfbench::maxrss_kib_to_mib(1024), 1.0, "1024 KiB is 1 MiB");
  check_near(perfbench::maxrss_kib_to_mib(1536), 1.5, "1536 KiB is 1.5 MiB");
  const double rss = perfbench::peak_rss_mib();
  check(rss > 0.5 && rss < 4096.0, "peak RSS of this test is plausible");
}

void span_self_time() {
  // root [0, 100) with children [10, 30) and [40, 90); the second child
  // has a grandchild [50, 60). Self times: 100-20-50 = 30, 20, 50-10 = 40, 10.
  const std::vector<Span> spans{
      {"root", 0, 100, -1, 0},
      {"a", 10, 30, 0, 0},
      {"b", 40, 90, 0, 0},
      {"c", 50, 60, 2, 0},
  };
  const std::vector<std::int64_t> self = perfbench::self_times_ns(spans);
  check(self == std::vector<std::int64_t>{30, 20, 40, 10}, "self times of a span tree");
  // A child that outlives its parent only removes the overlapping part.
  const std::vector<Span> overhang{{"p", 0, 10, -1, 0}, {"q", 5, 15, 0, 0}};
  check(perfbench::self_times_ns(overhang) == std::vector<std::int64_t>{5, 10},
        "a child only removes the overlap from its parent");

  // The recorder nests spans by open order and summarises by name.
  perfbench::SpanRecorder recorder;
  {
    perfbench::ScopedSpan outer{&recorder, "outer", 7};
    perfbench::ScopedSpan inner{&recorder, "inner", 7};
  }
  check(recorder.spans().size() == 2 && recorder.spans()[1].parent == 0 &&
            recorder.spans()[0].id == 7,
        "recorder links a child to its open parent");
  const auto summary = perfbench::summarise(recorder.spans());
  check(summary.size() == 2 && summary[0].first == "inner" && summary[1].first == "outer",
        "summary groups by name");
  perfbench::ScopedSpan untraced{nullptr, "ignored", 0};  // a null recorder records nothing
}

}  // namespace

int main() {
  nearest_rank_percentiles();
  fastest_decile_selection();
  host_normalization();
  rss_units();
  span_self_time();
  if (failures > 0) {
    std::cerr << failures << " check(s) failed\n";
    return EXIT_FAILURE;
  }
  std::cout << "perfbench_selftest: all checks passed\n";
  return EXIT_SUCCESS;
}
