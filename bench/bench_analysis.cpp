// Analysis fast path: HOPA priority optimization and breakdown-
// utilization search timed on the legacy code path (type-erased
// std::function demand, cold-started fixpoints -- the shape this repo
// shipped before the inlined kernels) against the fast path (inlined
// structure-of-arrays demand kernels, signature reuse, warm-started
// fixpoints). The two paths must produce bit-identical results; the
// report's `variants` section records wall time, speedup and a result
// hash per (workload, path) pair.
//
// Variant hashes are cross-folded so the generic agreement check in
// write_perf_report (all variant hashes equal) tests exactly "each fast
// path matches its legacy path": every variant's hash combines its own
// workload's results with the *legacy* results of the other workload, so
// all four agree iff hopa-fast == hopa-legacy and breakdown-fast ==
// breakdown-legacy.
//
// `--json[=path]` additionally times the fast path at several thread
// counts (E2E_BENCH_THREADS or 1,2,4,8; systems fan out over the pool)
// and exits nonzero on any cross-thread or cross-variant hash mismatch.
//
// E2E_* overrides: docs/cli_and_formats.md.
#include <bit>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <sstream>
#include <vector>

#include "common/args.h"
#include "common/error.h"
#include "common/hash.h"
#include "common/rng.h"
#include "core/analysis/cache.h"
#include "core/analysis/hopa.h"
#include "exec/thread_pool.h"
#include "experiments/breakdown.h"
#include "report/perf_json.h"
#include "scenario/defaults.h"
#include "report/table.h"
#include "workload/generator.h"

namespace {

using namespace e2e;

std::vector<TaskSystem> make_systems(int count, int subtasks, int utilization,
                                     std::uint64_t seed) {
  std::vector<TaskSystem> systems;
  systems.reserve(static_cast<std::size_t>(count));
  Rng master{seed};
  for (int i = 0; i < count; ++i) {
    Rng rng = master.fork(static_cast<std::uint64_t>(i));
    systems.push_back(generate_system(
        rng, options_for(
                 {.subtasks_per_task = subtasks, .utilization_percent = utilization})));
  }
  return systems;
}

std::uint64_t fold_double(std::uint64_t acc, double v) {
  return hash_combine(acc, std::bit_cast<std::uint64_t>(v));
}

struct SystemOutcome {
  std::uint64_t hash = 0;
  std::int64_t events = 0;  ///< SA/PM rounds + breakdown searches run
};

SystemOutcome run_hopa_one(const TaskSystem& system, const HopaOptions& options) {
  const HopaResult r = optimize_priorities_hopa(system, options);
  SystemOutcome out;
  out.hash = fold_double(out.hash, r.initial_margin);
  out.hash = fold_double(out.hash, r.margin);
  out.hash = hash_combine(out.hash, system_content_hash(r.system));
  out.events = r.iterations_run + 1;
  return out;
}

SystemOutcome run_breakdown_one(const TaskSystem& system,
                                const BreakdownOptions& options) {
  SystemOutcome out;
  out.hash = fold_double(out.hash,
                         breakdown_utilization(system, AnalysisKind::kSaPm, options));
  out.hash = fold_double(out.hash,
                         breakdown_utilization(system, AnalysisKind::kSaDs, options));
  out.events = 2;
  return out;
}

/// Serial sweep over all systems; returns the index-order folded hash.
template <typename RunOne>
std::uint64_t sweep(const std::vector<TaskSystem>& systems, const RunOne& run_one) {
  std::uint64_t h = 0;
  for (const TaskSystem& system : systems) {
    h = hash_combine(h, run_one(system).hash);
  }
  return h;
}

template <typename Fn>
double timed(const Fn& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const ScenarioDefaults defaults = ScenarioDefaults::load();
    const int system_count = defaults.analysis_systems;
    const int subtasks = defaults.analysis_subtasks;
    const int utilization = defaults.analysis_utilization;
    const int hopa_iters = defaults.hopa_iters;
    const int hopa_repeats = defaults.analysis_repeats;
    const std::uint64_t seed = defaults.analysis_seed;

    const ArgParser args{argc, argv};
    args.expect_known({"json"});

    const std::vector<TaskSystem> systems =
        make_systems(system_count, subtasks, utilization, seed);

    const HopaOptions hopa_legacy{.iterations = hopa_iters,
                                  .analysis = {.legacy_demand_path = true},
                                  .warm_start = false};
    const HopaOptions hopa_fast{.iterations = hopa_iters};
    const BreakdownOptions bd_legacy{.warm_start = false, .legacy_demand_path = true};
    const BreakdownOptions bd_fast{};

    // One-thread variant measurements: legacy first (it is the baseline).
    std::uint64_t h_hopa_legacy = 0, h_hopa_fast = 0;
    std::uint64_t h_bd_legacy = 0, h_bd_fast = 0;
    const double w_hopa_legacy = timed([&] {
      for (int rep = 0; rep < hopa_repeats; ++rep) {
        h_hopa_legacy = sweep(systems, [&](const TaskSystem& s) {
          return run_hopa_one(s, hopa_legacy);
        });
      }
    });
    const double w_hopa_fast = timed([&] {
      for (int rep = 0; rep < hopa_repeats; ++rep) {
        h_hopa_fast = sweep(systems, [&](const TaskSystem& s) {
          return run_hopa_one(s, hopa_fast);
        });
      }
    });
    const double w_bd_legacy = timed([&] {
      h_bd_legacy = sweep(systems, [&](const TaskSystem& s) {
        return run_breakdown_one(s, bd_legacy);
      });
    });
    const double w_bd_fast = timed([&] {
      h_bd_fast = sweep(systems, [&](const TaskSystem& s) {
        return run_breakdown_one(s, bd_fast);
      });
    });

    const auto speedup = [](double legacy, double fast) {
      return fast > 0.0 ? legacy / fast : 0.0;
    };
    const std::vector<PerfVariant> variants{
        {.name = "hopa-legacy",
         .wall_seconds = w_hopa_legacy,
         .speedup_vs_legacy = 1.0,
         .result_hash = hash_combine(h_hopa_legacy, h_bd_legacy)},
        {.name = "hopa-fast",
         .wall_seconds = w_hopa_fast,
         .speedup_vs_legacy = speedup(w_hopa_legacy, w_hopa_fast),
         .result_hash = hash_combine(h_hopa_fast, h_bd_legacy)},
        {.name = "breakdown-legacy",
         .wall_seconds = w_bd_legacy,
         .speedup_vs_legacy = 1.0,
         .result_hash = hash_combine(h_hopa_legacy, h_bd_legacy)},
        {.name = "breakdown-fast",
         .wall_seconds = w_bd_fast,
         .speedup_vs_legacy = speedup(w_bd_legacy, w_bd_fast),
         .result_hash = hash_combine(h_hopa_legacy, h_bd_fast)},
    };

    if (!args.has("json")) {
      TextTable table({"workload", "legacy wall", "fast wall", "speedup", "identical"});
      table.add_row({"HOPA (" + std::to_string(hopa_iters) + " rounds)",
                     TextTable::fmt(w_hopa_legacy, 3) + "s",
                     TextTable::fmt(w_hopa_fast, 3) + "s",
                     TextTable::fmt(speedup(w_hopa_legacy, w_hopa_fast), 2) + "x",
                     h_hopa_legacy == h_hopa_fast ? "yes" : "NO"});
      table.add_row({"breakdown search",
                     TextTable::fmt(w_bd_legacy, 3) + "s",
                     TextTable::fmt(w_bd_fast, 3) + "s",
                     TextTable::fmt(speedup(w_bd_legacy, w_bd_fast), 2) + "x",
                     h_bd_legacy == h_bd_fast ? "yes" : "NO"});
      std::cout << "== Analysis fast path vs legacy (" << system_count
                << " systems, N=" << subtasks << ", U=" << utilization << "%) ==\n\n"
                << table.to_string();
      return (h_hopa_legacy == h_hopa_fast && h_bd_legacy == h_bd_fast) ? 0 : 5;
    }

    const std::string path = args.value_string("json", "BENCH_analysis.json");
    std::ostringstream workload;
    workload << system_count << " systems, N=" << subtasks << ", U=" << utilization
             << "%, HOPA " << hopa_iters
             << " rounds + SA/PM and SA/DS breakdown searches";
    return write_perf_report(
        "analysis", workload.str(), path, bench_thread_counts(),
        [&](int threads) {
          // Fast-path workload fanned out over the pool, one system per
          // item; outcomes merge serially in system-index order, so the
          // folded hash is thread-count independent.
          exec::ThreadPool pool{threads};
          std::vector<SystemOutcome> outcomes(systems.size());
          pool.parallel_for_indexed(
              static_cast<std::int64_t>(systems.size()),
              [&](std::int64_t index, int /*worker*/) {
                const TaskSystem& system = systems[static_cast<std::size_t>(index)];
                SystemOutcome merged = run_hopa_one(system, hopa_fast);
                const SystemOutcome bd = run_breakdown_one(system, bd_fast);
                merged.hash = hash_combine(merged.hash, bd.hash);
                merged.events += bd.events;
                outcomes[static_cast<std::size_t>(index)] = merged;
              });
          PerfRunOutcome outcome;
          for (const SystemOutcome& o : outcomes) {
            outcome.events += o.events;
            outcome.schedule_hash = hash_combine(outcome.schedule_hash, o.hash);
          }
          return outcome;
        },
        // The ladder's per-system work is microseconds, far below the
        // pool's dispatch overhead, so its "speedups" are noise; the
        // variants section is this bench's real measurement. Declare
        // that instead of silently passing the scaling gate.
        PerfWriteOptions{.variants = variants, .gate_exempt = true}, std::cout);
  } catch (const InvalidArgument& e) {
    std::cerr << "bench_analysis: " << e.what() << "\n";
    return 1;
  }
}
