#include "layers.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <optional>
#include <vector>

#include "core/protocols/factory.h"
#include "core/protocols/mpm_retransmit.h"
#include "exec/thread_pool.h"
#include "metrics/eer_collector.h"
#include "sim/engine.h"
#include "sim/execution_model.h"
#include "sim/fault/fault_injector.h"
#include "sim/timesvc/time_service.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {
namespace {

using e2e::ProtocolKind;

// Each variant adds one layer to a plain engine run, so differences
// between variants isolate the layer's cost per event.
enum Variant { kPlain, kEerSink, kFaults, kTimesvc, kVariants };

struct RunSample {
  double run_ns = 0.0;
  double reset_ns = -1.0;  ///< -1 when the engine was constructed instead
  double build_ns = 0.0;
  e2e::SimStats stats;
  std::int64_t retransmits = 0;
  std::int64_t sync_failures = 0;
  std::int64_t holdover_ticks = 0;
};

RunSample run_once(std::optional<e2e::Engine>& engine, const SimCase& c,
                   const e2e::FaultPlan& rung_plan, ProtocolKind kind, Variant variant,
                   double exec_min_fraction) {
  RunSample sample;
  std::int64_t t = now_ns();
  const std::unique_ptr<e2e::SyncProtocol> protocol = e2e::make_protocol(kind, c.system, &c.bounds);
  sample.build_ns = static_cast<double>(now_ns() - t);

  e2e::FaultPlan plan = rung_plan;
  plan.seed += c.fault_seed_mix;
  std::optional<e2e::FaultInjector> faults;
  std::optional<e2e::TimeService> timesvc;
  if (variant == kFaults || variant == kTimesvc) faults.emplace(c.system, plan);
  if (variant == kTimesvc) timesvc.emplace(c.system, &*faults, c.timesvc);
  e2e::UniformExecutionVariation variation{e2e::Rng{c.fault_seed_mix}.fork(1),
                                           exec_min_fraction};
  const e2e::EngineOptions options{
      .horizon = c.horizon,
      .execution = exec_min_fraction < 1.0 ? &variation : nullptr,
      .faults = faults ? &*faults : nullptr,
      .timesvc = timesvc ? &*timesvc : nullptr};
  if (engine.has_value()) {
    t = now_ns();
    engine->reset(c.system, *protocol, options);
    sample.reset_ns = static_cast<double>(now_ns() - t);
  } else {
    engine.emplace(c.system, *protocol, options);
  }
  std::optional<e2e::EerCollector> eer;
  if (variant == kEerSink) {
    eer.emplace(c.system);
    engine->add_sink(&*eer);
  }
  t = now_ns();
  engine->run();
  // The fault sweep brings every clock up to the horizon after the run.
  if (timesvc) timesvc->advance_all(c.horizon);
  sample.run_ns = static_cast<double>(now_ns() - t);
  sample.stats = engine->stats();
  if (const auto* mpmr = dynamic_cast<const e2e::MpmRetransmitProtocol*>(protocol.get())) {
    sample.retransmits = mpmr->retransmits();
  }
  if (timesvc) {
    for (std::size_t p = 0; p < timesvc->processor_count(); ++p) {
      const auto& s = timesvc->stats(e2e::ProcessorId{static_cast<std::int32_t>(p)});
      sample.sync_failures += s.failures;
      sample.holdover_ticks += s.holdover_time;
    }
  }
  return sample;
}

double per_event(double ns, const e2e::SimStats& stats) {
  return ns / static_cast<double>(std::max<std::int64_t>(1, stats.events_processed));
}

double p50_or_zero(const std::vector<double>& values) {
  return values.empty() ? 0.0 : nearest_rank(values, 50.0);
}

}  // namespace

MetricMap run_sim_pass(const SimPassInputs& inputs, int reps) {
  std::vector<e2e::FaultPlan> plans;
  for (const e2e::FaultSeverity& rung : inputs.rungs) plans.push_back(rung.plan);
  if (plans.empty()) plans.emplace_back();  // the inert plan

  std::map<std::string, std::vector<double>> ns_per_event;  // per protocol
  std::map<std::string, std::vector<double>> build_us;      // per protocol
  std::vector<double> reset_us, sink_diff, fault_diff, timesvc_diff;
  std::map<std::string, double> counts;
  double plain_total_ns = 0.0, sink_total_ns = 0.0, fault_total_ns = 0.0,
         timesvc_total_ns = 0.0, reset_total_ns = 0.0;
  std::map<std::string, double> build_total_ns, plain_by_kind_ns;
  std::int64_t mirror_runs = 0;
  // The variant that runs the workload's own configuration.
  const Variant mirror = inputs.rungs.empty() ? kEerSink : kTimesvc;

  std::optional<e2e::Engine> engine;
  for (const SimCase& c : inputs.cases) {
    for (const e2e::FaultPlan& plan : plans) {
      for (const ProtocolKind kind : e2e::kSelectableProtocolKinds) {
        const std::string name{e2e::to_string(kind)};
        RunSample best[kVariants];
        for (auto& b : best) b.run_ns = b.build_ns = std::numeric_limits<double>::infinity();
        for (int rep = 0; rep < reps; ++rep) {
          for (int v = 0; v < kVariants; ++v) {
            const RunSample s =
                run_once(engine, c, plan, kind, static_cast<Variant>(v), inputs.exec_min_fraction);
            if (s.reset_ns >= 0.0) {
              reset_us.push_back(s.reset_ns / 1e3);
              if (v == kPlain) reset_total_ns += s.reset_ns / reps;
            }
            RunSample& b = best[v];
            if (rep == 0) {
              b.stats = s.stats;
              b.retransmits = s.retransmits;
              b.sync_failures = s.sync_failures;
              b.holdover_ticks = s.holdover_ticks;
            }
            b.run_ns = std::min(b.run_ns, s.run_ns);
            b.build_ns = std::min(b.build_ns, s.build_ns);
          }
        }
        // A layer's cost is the time it adds per event of the run without
        // it (faults and the time service change the event count).
        const auto added = [&](Variant with, Variant without) {
          return per_event(best[with].run_ns - best[without].run_ns, best[without].stats);
        };
        ns_per_event[name].push_back(per_event(best[kPlain].run_ns, best[kPlain].stats));
        build_us[name].push_back(best[kPlain].build_ns / 1e3);
        build_total_ns[name] += best[kPlain].build_ns;
        sink_diff.push_back(added(kEerSink, kPlain));
        fault_diff.push_back(added(kFaults, kPlain));
        timesvc_diff.push_back(added(kTimesvc, kFaults));
        plain_total_ns += best[kPlain].run_ns;
        plain_by_kind_ns[name] += best[kPlain].run_ns;
        sink_total_ns += best[kEerSink].run_ns;
        fault_total_ns += best[kFaults].run_ns;
        timesvc_total_ns += best[kTimesvc].run_ns;

        const e2e::SimStats& m = best[mirror].stats;
        ++mirror_runs;
        counts["sim.events_per_run"] += static_cast<double>(m.events_processed);
        counts["sim.dispatches_per_run"] += static_cast<double>(m.dispatches);
        counts["sim.preemptions_per_run"] += static_cast<double>(m.preemptions);
        counts["sim.sync_signals_per_run"] += static_cast<double>(m.sync_signals);
        counts["sim.timer_interrupts_per_run"] += static_cast<double>(m.timer_interrupts);
        const e2e::SimStats& f = best[kFaults].stats;
        counts["fault.dropped_signals"] += static_cast<double>(f.dropped_signals);
        counts["fault.late_signals"] += static_cast<double>(f.late_signals);
        counts["fault.duplicated_signals"] += static_cast<double>(f.duplicated_signals);
        counts["fault.stalls"] += static_cast<double>(f.stalls);
        counts["fault.deferred_releases"] += static_cast<double>(f.deferred_releases);
        counts["fault.retransmits"] += static_cast<double>(best[kFaults].retransmits);
        counts["timesvc.sync_failures"] += static_cast<double>(best[kTimesvc].sync_failures);
        counts["timesvc.holdover_ticks"] += static_cast<double>(best[kTimesvc].holdover_ticks);
      }
    }
  }

  MetricMap out;
  for (const auto& [key, total] : counts) {
    const bool per_run = key.ends_with("_per_run");
    out[key] = {per_run ? total / static_cast<double>(std::max<std::int64_t>(1, mirror_runs))
                        : total,
                "count"};
  }
  // Shares are of the pass's plain engine run time.
  const double base = std::max(1.0, plain_total_ns);
  const auto share = [&](double ns) { return std::pair{ns / base, std::string{"ratio"}}; };
  for (const auto& [name, values] : ns_per_event) {
    out["sim.ns_per_event." + name] = {p50_or_zero(values), "ns"};
    out["sim.ns_per_event." + name + ".share"] = share(plain_by_kind_ns[name]);
  }
  for (const auto& [name, values] : build_us) {
    out["protocols.build_us." + name] = {p50_or_zero(values), "us"};
    out["protocols.build_us." + name + ".share"] = share(build_total_ns[name]);
  }
  out["sim.reset_us"] = {p50_or_zero(reset_us), "us"};
  out["sim.reset_us.share"] = share(reset_total_ns);
  out["metrics.eer_sink_ns_per_event"] = {p50_or_zero(sink_diff), "ns"};
  out["metrics.eer_sink_ns_per_event.share"] = share(sink_total_ns - plain_total_ns);
  out["fault.ns_per_event"] = {p50_or_zero(fault_diff), "ns"};
  out["fault.ns_per_event.share"] = share(fault_total_ns - plain_total_ns);
  out["timesvc.ns_per_event"] = {p50_or_zero(timesvc_diff), "ns"};
  out["timesvc.ns_per_event.share"] = share(timesvc_total_ns - fault_total_ns);
  return out;
}

double exec_dispatch_ns_per_item(int reps) {
  constexpr std::int64_t kItems = 200'000;
  e2e::exec::ThreadPool pool{1};
  double best = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < reps; ++rep) {
    const std::int64_t t = now_ns();
    pool.parallel_for_indexed(kItems, [](std::int64_t, int) {});
    best = std::min(best, static_cast<double>(now_ns() - t) / static_cast<double>(kItems));
  }
  return best;
}

}  // namespace perfbench
