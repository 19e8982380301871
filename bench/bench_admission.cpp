// Admission-control churn: deterministic admit/remove/query streams
// replayed through the full-recompute engines (rebuild the system and
// rerun the offline analysis per request -- the obviously-correct
// baseline) and through the incremental engines (delta schedulability
// analysis, see docs/admission.md), for SA/PM, SA/DS, and a batched
// SA/DS stream (batch-begin/admits/batch-commit groups evaluated
// through one trajectory each).
//
// Variant hashes are cross-folded so the generic agreement check in
// write_perf_report (all variant hashes equal) tests exactly "each
// incremental engine matches its full baseline on every request": every
// variant's hash combines its own replay's running result hash --
// verdicts, rejection reasons, bounds -- with the *full* replays of the
// other streams, so all six agree iff each incremental replay is
// bit-identical to its full twin.
//
// `--json[=path]` additionally runs a shard ladder at several thread
// counts (E2E_ADMIT_SHARDS independent controllers, each replaying its
// own forked stream, fanned out over the pool with an index-ordered
// fold) and exits nonzero on any cross-thread or cross-variant hash
// mismatch. E2E_ADMIT_GATE=1 arms the headline perf gates: exit 7 when
// the incremental-pm speedup falls below E2E_ADMIT_GATE_FLOOR (default
// 10) or the incremental-ds speedup falls below
// E2E_ADMIT_GATE_FLOOR_DS (default 5).
//
// E2E_* overrides: docs/cli_and_formats.md.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "admission/churn.h"
#include "admission/controller.h"
#include "common/args.h"
#include "common/error.h"
#include "common/hash.h"
#include "common/rng.h"
#include "exec/thread_pool.h"
#include "report/perf_json.h"
#include "report/table.h"
#include "scenario/defaults.h"

namespace {

using namespace e2e;
using admission::AdmissionController;
using admission::ChurnShape;
using admission::ControllerOptions;
using admission::Policy;
using admission::Request;

struct Replay {
  std::uint64_t hash = 0;
  double wall_seconds = 0.0;
  double p50_us = 0.0;  ///< per-request latency percentiles (nearest rank)
  double p95_us = 0.0;
  double p99_us = 0.0;
};

double percentile(std::vector<double>& sorted_us, double p) {
  if (sorted_us.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(std::max(
      1.0, std::ceil(p / 100.0 * static_cast<double>(sorted_us.size()))));
  return sorted_us[rank - 1];
}

Replay replay(const std::vector<Request>& stream, Policy policy,
              bool full_recompute, std::size_t processors) {
  AdmissionController controller{ControllerOptions{
      .policy = policy, .processors = processors, .full_recompute = full_recompute}};
  Replay result;
  std::vector<double> latency_us;
  latency_us.reserve(stream.size());
  const auto begin = std::chrono::steady_clock::now();
  for (const Request& request : stream) {
    const auto start = std::chrono::steady_clock::now();
    (void)controller.submit(request);
    const auto stop = std::chrono::steady_clock::now();
    latency_us.push_back(
        std::chrono::duration<double, std::micro>(stop - start).count());
  }
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - begin)
          .count();
  result.hash = controller.result_hash();
  std::sort(latency_us.begin(), latency_us.end());
  result.p50_us = percentile(latency_us, 50.0);
  result.p95_us = percentile(latency_us, 95.0);
  result.p99_us = percentile(latency_us, 99.0);
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const ScenarioDefaults defaults = ScenarioDefaults::load();
    const auto processors =
        static_cast<std::size_t>(defaults.admission_processors);
    ChurnShape shape;
    shape.processors = processors;
    shape.initial_admits =
        static_cast<std::size_t>(defaults.admission_initial_tasks);
    shape.requests = static_cast<std::size_t>(defaults.admission_requests);

    const ArgParser args{argc, argv};
    args.expect_known({"json"});
    const std::string path = args.value_string("json", "BENCH_admission.json");
    // The variant replays below are timed work: check the output first.
    if (args.has("json") && !perf_output_writable(path, std::cout)) return 2;

    Rng master{defaults.admission_seed};
    const std::vector<Request> stream = generate_churn(master, shape);
    // Batched flavor of the same shape: a slice of steady-state admits
    // arrives as batch-begin/admits/batch-commit groups. Forked off the
    // master with a fixed key, so it never perturbs the plain stream or
    // the shard ladder (which forks with small integer keys).
    ChurnShape batch_shape = shape;
    batch_shape.batch_fraction = 0.25;
    batch_shape.max_batch = 4;
    Rng batch_rng = master.fork(0xBA7C4ED);
    const std::vector<Request> batch_stream = generate_churn(batch_rng, batch_shape);

    const Replay full_pm = replay(stream, Policy::kPm, true, processors);
    const Replay incr_pm = replay(stream, Policy::kPm, false, processors);
    const Replay full_ds = replay(stream, Policy::kDs, true, processors);
    const Replay incr_ds = replay(stream, Policy::kDs, false, processors);
    const Replay full_dsb = replay(batch_stream, Policy::kDs, true, processors);
    const Replay incr_dsb = replay(batch_stream, Policy::kDs, false, processors);

    const auto speedup = [](const Replay& full, const Replay& incremental) {
      return incremental.wall_seconds > 0.0
                 ? full.wall_seconds / incremental.wall_seconds
                 : 0.0;
    };
    const double pm_speedup = speedup(full_pm, incr_pm);
    const double ds_speedup = speedup(full_ds, incr_ds);
    const double dsb_speedup = speedup(full_dsb, incr_dsb);

    // Cross-fold: every variant's hash folds its own replay with the
    // FULL replays of the other two streams, so the six hashes agree iff
    // each incremental replay matches its full baseline bit-for-bit.
    const auto crossed = [&](std::uint64_t pm, std::uint64_t ds, std::uint64_t dsb) {
      return hash_combine(pm, hash_combine(ds, dsb));
    };
    const std::uint64_t all_full = crossed(full_pm.hash, full_ds.hash, full_dsb.hash);
    const auto variant = [](const char* name, const Replay& r, double speedup_x,
                            std::uint64_t crossed_hash) {
      return PerfVariant{.name = name,
                         .wall_seconds = r.wall_seconds,
                         .speedup_vs_legacy = speedup_x,
                         .result_hash = crossed_hash,
                         .latency_p50_us = r.p50_us,
                         .latency_p95_us = r.p95_us,
                         .latency_p99_us = r.p99_us};
    };
    const std::vector<PerfVariant> variants{
        variant("full-pm", full_pm, 1.0, all_full),
        variant("incremental-pm", incr_pm, pm_speedup,
                crossed(incr_pm.hash, full_ds.hash, full_dsb.hash)),
        variant("full-ds", full_ds, 1.0, all_full),
        variant("incremental-ds", incr_ds, ds_speedup,
                crossed(full_pm.hash, incr_ds.hash, full_dsb.hash)),
        variant("full-ds-batch", full_dsb, 1.0, all_full),
        variant("incremental-ds-batch", incr_dsb, dsb_speedup,
                crossed(full_pm.hash, full_ds.hash, incr_dsb.hash)),
    };
    const bool identical = incr_pm.hash == full_pm.hash &&
                           incr_ds.hash == full_ds.hash &&
                           incr_dsb.hash == full_dsb.hash;

    if (!args.has("json")) {
      TextTable table({"policy", "full wall", "incremental wall", "speedup",
                       "incr p50/p95/p99", "identical"});
      const auto row = [&](const char* name, const Replay& full,
                           const Replay& incr, double speedup_x) {
        table.add_row({name, TextTable::fmt(full.wall_seconds, 3) + "s",
                       TextTable::fmt(incr.wall_seconds, 3) + "s",
                       TextTable::fmt(speedup_x, 2) + "x",
                       TextTable::fmt(incr.p50_us, 0) + "/" +
                           TextTable::fmt(incr.p95_us, 0) + "/" +
                           TextTable::fmt(incr.p99_us, 0) + "us",
                       full.hash == incr.hash ? "yes" : "NO"});
      };
      row("SA/PM", full_pm, incr_pm, pm_speedup);
      row("SA/DS", full_ds, incr_ds, ds_speedup);
      row("SA/DS-batch", full_dsb, incr_dsb, dsb_speedup);
      std::cout << "== Admission churn: incremental vs full recompute ("
                << shape.requests << " requests, " << shape.initial_admits
                << " initial tasks, " << processors << " processors) ==\n\n"
                << table.to_string();
      return identical ? 0 : 5;
    }

    // Shard ladder: independent controllers (one forked stream each)
    // fanned out over the pool; results fold in shard-index order, so
    // the combined hash is thread-count independent.
    const auto shards = static_cast<std::int64_t>(defaults.admission_shards);
    ChurnShape shard_shape = shape;
    shard_shape.requests =
        static_cast<std::size_t>(defaults.admission_shard_requests);
    shard_shape.initial_admits = shard_shape.requests / 3;
    std::vector<std::vector<Request>> shard_streams;
    shard_streams.reserve(static_cast<std::size_t>(shards));
    for (std::int64_t s = 0; s < shards; ++s) {
      Rng rng = master.fork(static_cast<std::uint64_t>(s));
      shard_streams.push_back(generate_churn(rng, shard_shape));
    }

    std::ostringstream workload;
    workload << shape.requests << " churn requests (" << shape.initial_admits
             << " initial tasks, " << processors << " processors), "
             << "incremental vs full SA/PM, SA/DS, and batched SA/DS; ladder: "
             << shards << " shards x " << shard_shape.requests
             << " requests, incremental SA/PM";
    const int rc = write_perf_report(
        "admission", workload.str(), path, bench_thread_counts(),
        [&](int threads) {
          exec::ThreadPool pool{threads};
          std::vector<std::uint64_t> hashes(shard_streams.size(), 0);
          std::vector<std::int64_t> events(shard_streams.size(), 0);
          pool.parallel_for_indexed(
              static_cast<std::int64_t>(shard_streams.size()),
              [&](std::int64_t index, int /*worker*/) {
                const auto i = static_cast<std::size_t>(index);
                hashes[i] =
                    replay(shard_streams[i], Policy::kPm, false, processors).hash;
                events[i] = static_cast<std::int64_t>(shard_streams[i].size());
              });
          PerfRunOutcome outcome;
          for (std::size_t i = 0; i < hashes.size(); ++i) {
            outcome.events += events[i];
            outcome.schedule_hash = hash_combine(outcome.schedule_hash, hashes[i]);
          }
          return outcome;
        },
        PerfWriteOptions{.variants = variants}, std::cout);
    if (rc != 0) return rc;

    // Headline gates (opt-in): the whole point of the incremental
    // engines is query-stream rates, so a collapse of either speedup is
    // a perf regression even when every hash still agrees.
    if (const char* gate = std::getenv("E2E_ADMIT_GATE");
        gate != nullptr && std::string{gate} != "0" && *gate != '\0') {
      const double pm_floor = env_double("E2E_ADMIT_GATE_FLOOR", 10.0);
      if (pm_speedup < pm_floor) {
        std::cerr << "bench_admission: incremental-pm speedup "
                  << TextTable::fmt(pm_speedup, 2) << "x below gate floor "
                  << TextTable::fmt(pm_floor, 2) << "x\n";
        return 7;
      }
      const double ds_floor = env_double("E2E_ADMIT_GATE_FLOOR_DS", 5.0);
      if (ds_speedup < ds_floor) {
        std::cerr << "bench_admission: incremental-ds speedup "
                  << TextTable::fmt(ds_speedup, 2) << "x below gate floor "
                  << TextTable::fmt(ds_floor, 2) << "x\n";
        return 7;
      }
    }
    return 0;
  } catch (const InvalidArgument& e) {
    std::cerr << "bench_admission: " << e.what() << "\n";
    return 1;
  }
}
