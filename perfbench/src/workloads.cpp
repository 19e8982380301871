#include "workloads.h"

#include <algorithm>
#include <bit>
#include <exception>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "admission/churn.h"
#include "admission/controller.h"
#include "admission/request.h"
#include "common/hash.h"
#include "common/rng.h"
#include "core/analysis/cache.h"
#include "core/analysis/holistic.h"
#include "core/analysis/hopa.h"
#include "core/analysis/interference.h"
#include "core/analysis/sa_ds.h"
#include "core/analysis/sa_pm.h"
#include "core/protocols/factory.h"
#include "experiments/breakdown.h"
#include "experiments/faults.h"
#include "scenario/defaults.h"
#include "scenario/driver.h"
#include "scenario/executor.h"
#include "workload/generator.h"

namespace perfbench {
namespace {

using e2e::Rng;

// Paper Section 5: 4 processors, 12 tasks, periods in [100, 10000] time
// units at 1000 ticks per unit.
constexpr int kProcessors = 4;
constexpr int kTasks = 12;
constexpr int kTicksPerUnit = 1000;
// Draws per pool slot before set-up gives up on a grid cell.
constexpr int kMaxDraws = 400;

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t tag) {
  return Rng{seed}.fork(tag).next_u64();
}

double elapsed_us(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) / 1e3;
}

std::uint64_t fold_double(std::uint64_t acc, double value) {
  return e2e::hash_combine(acc, std::bit_cast<std::uint64_t>(value));
}

std::uint64_t fold_bounds(std::uint64_t acc, const std::vector<e2e::Duration>& bounds) {
  for (const e2e::Duration b : bounds) {
    acc = e2e::hash_combine(acc, static_cast<std::uint64_t>(b));
  }
  return acc;
}

/// Values of every `"key":` occurrence in a JSON report, in order, as
/// raw tokens (quotes stripped). The reports are run_scenario's own flat
/// output, so a scan is enough.
std::vector<std::string> json_values(const std::string& json, const std::string& key) {
  std::vector<std::string> values;
  const std::string needle = "\"" + key + "\":";
  for (std::size_t pos = json.find(needle); pos != std::string::npos;
       pos = json.find(needle, pos)) {
    pos += needle.size();
    std::size_t end = pos;
    if (json[pos] == '"') {
      end = json.find('"', pos + 1);
      values.push_back(json.substr(pos + 1, end - pos - 1));
    } else {
      end = json.find_first_of(",}]", pos);
      values.push_back(json.substr(pos, end - pos));
    }
    pos = end;
  }
  return values;
}

std::uint64_t fold_hash_values(std::uint64_t acc, const std::vector<std::string>& hex) {
  for (const std::string& h : hex) acc = e2e::hash_combine(acc, std::stoull(h, nullptr, 16));
  return acc;
}

/// Generates `cell` exactly as a `system generate` scenario line does.
e2e::TaskSystem generate_paper_system(const e2e::Configuration& cell,
                                      std::uint64_t generator_seed) {
  e2e::GeneratorOptions options;
  options.subtasks_per_task = static_cast<std::size_t>(cell.subtasks_per_task);
  options.utilization = static_cast<double>(cell.utilization_percent) / 100.0;
  options.tasks = kTasks;
  options.processors = kProcessors;
  options.ticks_per_unit = kTicksPerUnit;
  Rng rng{generator_seed};
  return e2e::generate_system(rng, options);
}

/// run_fault_sweep's filter: SA/PM bounds every non-last subtask.
bool sweep_keeps(const e2e::TaskSystem& system) {
  const e2e::SubtaskTable& bounds = e2e::AnalysisCache::shared().sa_pm(system)->subtask_bounds;
  for (const e2e::Task& t : system.tasks()) {
    for (const e2e::Subtask& s : t.subtasks) {
      const bool is_last = s.ref.index + 1 == static_cast<std::int32_t>(t.chain_length());
      if (!is_last && e2e::is_infinite(bounds.at(s.ref))) return false;
    }
  }
  return true;
}

/// True when SA/PM bounds every subtask a PM-family protocol needs, i.e.
/// PM and MPM can be built for the system.
bool pm_buildable(const e2e::TaskSystem& system) {
  try {
    (void)e2e::make_protocol(e2e::ProtocolKind::kPhaseModification, system);
    (void)e2e::make_protocol(e2e::ProtocolKind::kModifiedPm, system);
    return true;
  } catch (const std::exception&) {
    return false;
  }
}

struct PoolSystem {
  e2e::Configuration cell;
  std::uint64_t generator_seed = 0;
  e2e::TaskSystem system;
};

/// One system per grid cell, each drawn from the seed; a draw PM/MPM
/// cannot be built for is replaced by the cell's next draw, so the same
/// seed always selects the same pool. `replaced` counts replacements.
std::vector<PoolSystem> select_pool(std::uint64_t seed,
                                    const std::vector<e2e::Configuration>& cells,
                                    int& replaced, SpanRecorder* spans) {
  std::vector<PoolSystem> pool;
  Rng master{seed};
  for (std::size_t i = 0; i < cells.size(); ++i) {
    Rng draws = master.fork(i);
    for (int draw = 0;; ++draw) {
      if (draw == kMaxDraws) {
        throw std::runtime_error("no PM-buildable system in cell N=" +
                                 std::to_string(cells[i].subtasks_per_task) +
                                 " U=" + std::to_string(cells[i].utilization_percent));
      }
      const std::uint64_t generator_seed = draws.next_u64();
      std::optional<e2e::TaskSystem> system;
      {
        ScopedSpan span{spans, "workload.generate", static_cast<std::int64_t>(i)};
        system.emplace(generate_paper_system(cells[i], generator_seed));
      }
      if (pm_buildable(*system)) {
        pool.push_back(PoolSystem{cells[i], generator_seed, std::move(*system)});
        break;
      }
      ++replaced;
    }
  }
  return pool;
}

/// The horizon, in multiples of the system's maximum period, over which
/// the system releases about `jobs` subtask jobs. Sizing runs by released
/// jobs instead of a fixed number of periods makes every run do similar
/// work, so a request's cost does not depend on the periods the seed drew.
double horizon_periods_for_jobs(const e2e::TaskSystem& system, double jobs) {
  double jobs_per_tick = 0.0;
  for (const e2e::Task& t : system.tasks()) {
    jobs_per_tick += static_cast<double>(t.chain_length()) / static_cast<double>(t.period);
  }
  return jobs / jobs_per_tick / static_cast<double>(system.max_period());
}

/// The system run_fault_sweep picks first for `options`, and the draw
/// that produced it (the sweep mixes the draw into the fault seed).
std::pair<e2e::TaskSystem, int> first_swept_system(std::uint64_t seed,
                                                   const e2e::Configuration& config) {
  Rng master{seed};
  for (int attempt = 0; attempt < kMaxDraws; ++attempt) {
    Rng rng = master.fork(static_cast<std::uint64_t>(attempt));
    e2e::TaskSystem system = e2e::generate_system(rng, e2e::options_for(config));
    if (sweep_keeps(system)) return {std::move(system), attempt};
  }
  throw std::runtime_error("no PM-schedulable system for the faults spec");
}

/// Parses spec text against compiled-in defaults (never the E2E_*
/// environment) and renders it back with every key written out.
std::string canonical_spec(const std::string& text) {
  return e2e::write_scenario(e2e::parse_scenario(text, e2e::ScenarioDefaults{}));
}

/// The paper's N x U grid, visited diagonally so a short list still
/// spans every chain length and every utilization.
std::vector<e2e::Configuration> grid_cells(std::size_t count) {
  std::vector<e2e::Configuration> cells;
  for (std::size_t i = 0; i < count; ++i) {
    cells.push_back(e2e::Configuration{
        .subtasks_per_task = 2 + static_cast<int>(i % 7),
        .utilization_percent = 50 + 10 * static_cast<int>(i % 5)});
  }
  return cells;
}

/// Runs one scenario spec as `e2e run` does and returns its JSON report.
std::string run_spec(const std::string& text, SpanRecorder* spans, std::int64_t id) {
  std::optional<e2e::ScenarioSpec> spec;
  {
    ScopedSpan span{spans, "scenario.parse", id};
    spec.emplace(e2e::parse_scenario(text, e2e::ScenarioDefaults{}));
  }
  std::istringstream no_input;
  std::ostringstream report;
  {
    ScopedSpan span{spans, "scenario.run", id};
    if (e2e::run_scenario(*spec, no_input, report) != 0) {
      throw std::runtime_error("run_scenario returned nonzero");
    }
  }
  return report.str();
}

/// Runs `spec` as request `id` of `result`: times it, and adds a unit
/// whose fingerprint folds the report's schedule hashes. Returns the
/// report, or an empty string when the spec threw (the unit says so).
std::string run_spec_request(const std::string& spec, std::int64_t id, SpanRecorder* spans,
                             ChunkResult& result) {
  OutputUnit unit{.operations = 1};
  std::string json;
  const std::int64_t start = now_ns();
  try {
    ScopedSpan span{spans, "request", id};
    json = run_spec(spec, spans, id);
  } catch (const std::exception&) {
    unit.threw = true;
  }
  result.request_us.push_back(elapsed_us(start));
  unit.fingerprint = fold_hash_values(0, json_values(json, "schedule_hash"));
  result.units.push_back(unit);
  return json;
}

// Sync exchanges per processor in a run with a time service. The sync
// interval follows the run's horizon, so every run pays for the same
// number of exchanges whatever periods the seed drew.
constexpr e2e::Time kSyncExchangesPerRun = 100;

SimCase sim_case(const e2e::TaskSystem& system, e2e::Time horizon,
                 std::uint64_t fault_seed_mix) {
  return SimCase{system, e2e::AnalysisCache::shared().sa_pm(system)->subtask_bounds, horizon,
                 fault_seed_mix,
                 e2e::parse_timesvc_config(
                     "interval=" +
                     std::to_string(std::max<e2e::Time>(1, horizon / kSyncExchangesPerRun)))};
}

// --- mc-ideal ---------------------------------------------------------

class McIdeal final : public Workload {
 public:
  std::string name() const override { return "mc-ideal"; }
  std::string work_unit() const override { return "simulated events"; }

  void setup(std::uint64_t seed, SpanRecorder* spans) override {
    replaced_ = 0;
    pool_ = select_pool(derive_seed(seed, 1), grid_cells(kSystems), replaced_, spans);
    specs_.clear();
    for (std::size_t i = 0; i < pool_.size(); ++i) {
      const PoolSystem& p = pool_[i];
      std::ostringstream text;
      text << "e2esync-scenario v1\nscenario montecarlo\nreport json\n"
           << "seed " << derive_seed(seed, 100 + i) << "\nruns " << kRuns
           << "\nhorizon-periods " << horizon_periods_for_jobs(p.system, kJobsPerRun)
           << "\nthreads 1\nexec-var "
           << kExecVar << "\nprotocol DS\nprotocol PM\nprotocol MPM\nprotocol RG\n"
           << "system generate subtasks=" << p.cell.subtasks_per_task
           << ",utilization=" << p.cell.utilization_percent << ",tasks=" << kTasks
           << ",processors=" << kProcessors << ",seed=" << p.generator_seed
           << ",ticks=" << kTicksPerUnit << "\n";
      specs_.push_back(canonical_spec(text.str()));
    }
  }

  ChunkResult run_chunk(std::int64_t, SpanRecorder* spans, LayerSamples*) override {
    ChunkResult result;
    for (std::size_t i = 0; i < specs_.size(); ++i) {
      const std::string json =
          run_spec_request(specs_[i], static_cast<std::int64_t>(i), spans, result);
      for (const std::string& events : json_values(json, "events")) {
        const std::int64_t n = std::stoll(events);
        std::uint64_t& fingerprint = result.units.back().fingerprint;
        fingerprint = e2e::hash_combine(fingerprint, static_cast<std::uint64_t>(n));
        result.work += n;
      }
    }
    return result;
  }

  std::string describe() const override {
    return "pool_systems=" + std::to_string(pool_.size()) +
           " replaced_draws=" + std::to_string(replaced_) +
           " runs_per_spec=" + std::to_string(kRuns);
  }

  SimPassInputs sim_pass_inputs() const override {
    SimPassInputs inputs;
    inputs.exec_min_fraction = kExecVar;
    for (const PoolSystem& p : pool_) {
      // estimate_latency's horizon: the phases plus the spec's periods.
      const double periods = horizon_periods_for_jobs(p.system, kJobsPerRun);
      inputs.cases.push_back(sim_case(
          p.system, p.system.max_phase() + p.system.horizon_ticks(periods), p.generator_seed));
    }
    return inputs;
  }

 private:
  static constexpr std::size_t kSystems = 16;
  static constexpr int kRuns = 2;
  static constexpr double kJobsPerRun = 4000.0;
  static constexpr double kExecVar = 0.8;

  std::vector<PoolSystem> pool_;
  std::vector<std::string> specs_;
  int replaced_ = 0;
};

// --- faults-timesvc ---------------------------------------------------

/// The default five rungs plus a partition / source-outage rung (the
/// shape of examples/scenarios/partition.e2es).
std::vector<e2e::FaultSeverity> fault_rungs() {
  std::vector<e2e::FaultSeverity> rungs = e2e::default_fault_severities();
  rungs.push_back(e2e::FaultSeverity{
      "partition",
      e2e::parse_fault_plan(
          "offset=150000,drift-ppm=15000,loss-prob=0.05,delay=2000,"
          "sync-loss-prob=0.3,partition-at=2000000,partition-for=2000000,"
          "source-down-at=5000000,source-down-for=2000000")});
  return rungs;
}

class FaultsTimesvc final : public Workload {
 public:
  std::string name() const override { return "faults-timesvc"; }
  std::string work_unit() const override { return "simulated events"; }

  void setup(std::uint64_t seed, SpanRecorder*) override {
    specs_.clear();
    cases_.clear();
    expected_events_.clear();
    reference_.clear();
    replaced_ = 0;
    const std::vector<e2e::Configuration> cells = grid_cells(kSpecs);
    for (std::size_t i = 0; i < kSpecs; ++i) {
      const std::uint64_t spec_seed = derive_seed(seed, 200 + i);
      auto [system, draw] = first_swept_system(spec_seed, cells[i]);
      replaced_ += draw;
      std::ostringstream horizon_periods;
      horizon_periods << horizon_periods_for_jobs(system, kJobsPerRun);
      // run_fault_sweep's horizon (cap included) and per-system seed mix.
      cases_.push_back(sim_case(
          system,
          std::min<e2e::Time>(system.horizon_ticks(std::stod(horizon_periods.str())),
                              400'000'000),
          std::uint64_t{0x9E3779B97F4A7C15} * static_cast<std::uint64_t>(draw + 1)));
      std::ostringstream text;
      text << "e2esync-scenario v1\nscenario faults\nreport json\n"
           << "seed " << spec_seed << "\nsystems 1\nhorizon-periods " << horizon_periods.str()
           << "\nthreads 1\nconfig " << cells[i].subtasks_per_task << " "
           << cells[i].utilization_percent << "\n"
           << "protocol DS\nprotocol PM\nprotocol MPM\nprotocol RG\n"
           << "protocol MPM-R\nprotocol PM-E\n"
           << "timesvc " << e2e::write_timesvc_config(cases_.back().timesvc) << "\n";
      for (const e2e::FaultSeverity& rung : fault_rungs()) {
        text << "severity " << rung.label << " " << e2e::write_fault_plan(rung.plan) << "\n";
      }
      specs_.push_back(canonical_spec(text.str()));

      // The report carries no event counts, so set-up counts them by
      // running the same sweep through the experiment API. Its schedule
      // hashes are the reference the reports must reproduce.
      const e2e::ScenarioSpec spec = e2e::parse_scenario(specs_.back(), e2e::ScenarioDefaults{});
      e2e::FaultSweepOptions options;
      options.systems = spec.systems;
      options.seed = spec.seed;
      options.horizon_periods = spec.horizon_periods;
      options.config = spec.grid.front();
      options.severities = spec.severities;
      options.protocols = spec.protocols;
      options.timesvc = spec.timesvc;
      e2e::ScenarioExecutor executor{1};
      const e2e::FaultSweepResult sweep = e2e::run_fault_sweep(options, executor);
      std::int64_t events = 0;
      std::uint64_t fingerprint = 0;
      for (const e2e::FaultCell& cell : sweep.cells) {
        events += cell.events_processed;
        fingerprint = e2e::hash_combine(fingerprint, cell.schedule_hash);
      }
      expected_events_.push_back(events);
      reference_.push_back(fingerprint);
    }
  }

  ChunkResult run_chunk(std::int64_t, SpanRecorder* spans, LayerSamples*) override {
    ChunkResult result;
    for (std::size_t i = 0; i < specs_.size(); ++i) {
      // A fault report carries no event counts; set-up counted them.
      if (!run_spec_request(specs_[i], static_cast<std::int64_t>(i), spans, result).empty()) {
        result.work += expected_events_[i];
      }
    }
    return result;
  }

  std::vector<std::uint64_t> reference_fingerprints() override { return reference_; }

  std::string describe() const override {
    return "specs=" + std::to_string(specs_.size()) + " rungs=" +
           std::to_string(fault_rungs().size()) + " protocols=6 replaced_draws=" +
           std::to_string(replaced_);
  }

  SimPassInputs sim_pass_inputs() const override {
    SimPassInputs inputs;
    inputs.cases = cases_;
    for (const e2e::FaultSeverity& rung : fault_rungs()) {
      if (rung.plan.enabled()) inputs.rungs.push_back(rung);
    }
    return inputs;
  }

 private:
  static constexpr std::size_t kSpecs = 16;
  static constexpr double kJobsPerRun = 500.0;

  std::vector<std::string> specs_;
  std::vector<SimCase> cases_;  ///< the system each spec's sweep runs
  std::vector<std::int64_t> expected_events_;
  std::vector<std::uint64_t> reference_;
  int replaced_ = 0;
};

// --- admission-churn --------------------------------------------------

std::string request_line(const e2e::admission::Request& request) {
  using e2e::admission::Verb;
  std::ostringstream line;
  line << e2e::admission::to_string(request.verb);
  if (request.verb == Verb::kAdmit) {
    const e2e::admission::TaskSpec& t = request.task;
    line << " name=" << t.name << " period=" << t.period << " phase=" << t.phase
         << " deadline=" << t.deadline << " jitter=" << t.release_jitter;
    for (const e2e::admission::SubtaskSpec& s : t.subtasks) {
      line << " sub=" << s.processor << ":" << s.execution_time << ":" << s.priority_level
           << (s.preemptible ? "" : ":np");
    }
  } else if (request.verb == Verb::kRemove) {
    line << " name=" << request.task.name;
  }
  return line.str();
}

bool same_request(const e2e::admission::Request& a, const e2e::admission::Request& b) {
  if (a.verb != b.verb || a.task.name != b.task.name || a.task.period != b.task.period ||
      a.task.phase != b.task.phase || a.task.deadline != b.task.deadline ||
      a.task.release_jitter != b.task.release_jitter ||
      a.task.subtasks.size() != b.task.subtasks.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.task.subtasks.size(); ++i) {
    const auto& x = a.task.subtasks[i];
    const auto& y = b.task.subtasks[i];
    if (x.processor != y.processor || x.execution_time != y.execution_time ||
        x.priority_level != y.priority_level || x.preemptible != y.preemptible) {
      return false;
    }
  }
  return true;
}

const char* verb_kind(e2e::admission::Verb verb) {
  using e2e::admission::Verb;
  switch (verb) {
    case Verb::kAdmit: return "admit";
    case Verb::kRemove: return "remove";
    case Verb::kQuery: return "query";
    case Verb::kBatchBegin:
    case Verb::kBatchCommit: return "batch";
  }
  return "other";
}

class AdmissionChurn final : public Workload {
 public:
  std::string name() const override { return "admission-churn"; }
  std::string work_unit() const override { return "requests"; }

  void setup(std::uint64_t seed, SpanRecorder* spans) override {
    using namespace e2e::admission;
    seed_ = seed;
    streams_.clear();
    for (std::size_t k = 0; k < kStreams; ++k) {
      std::vector<Request> stream;
      {
        ScopedSpan span{spans, "admission.churn_gen", static_cast<std::int64_t>(k)};
        Rng rng{derive_seed(seed, 300 + k)};
        stream = generate_churn(rng, ChurnShape{.processors = kProcessors32,
                                                .initial_admits = 400,
                                                .requests = kRequests,
                                                .remove_fraction = 0.30,
                                                .query_fraction = 0.10,
                                                .min_sub_utilization = 0.005,
                                                .max_sub_utilization = 0.020,
                                                .max_chain = 3,
                                                .batch_fraction = 0.05,
                                                .max_batch = 4});
      }
      std::vector<std::string>& lines = streams_.emplace_back();
      for (const Request& request : stream) {
        lines.push_back(request_line(request));
        const std::optional<Request> back = parse_request(lines.back());
        if (!back || !back->ok() || !same_request(*back, request)) {
          throw std::runtime_error("request line does not parse back: " + lines.back());
        }
      }
    }
  }

  /// Replays every stream through the full-recompute engines; the
  /// incremental engines must be bit-identical to them.
  std::vector<std::uint64_t> reference_fingerprints() override {
    using namespace e2e::admission;
    std::vector<std::uint64_t> reference;
    for (const std::vector<std::string>& lines : streams_) {
      for (const Policy policy : kPolicies) {
        AdmissionController full{ControllerOptions{
            .policy = policy, .processors = kProcessors32, .full_recompute = true}};
        for (const std::string& line : lines) (void)full.submit(*parse_request(line));
        reference.push_back(full.result_hash());
      }
    }
    return reference;
  }

  ChunkResult run_chunk(std::int64_t, SpanRecorder* spans, LayerSamples* samples) override {
    ChunkResult result;
    for (const std::vector<std::string>& lines : streams_) {
      for (const e2e::admission::Policy policy : kPolicies) {
        replay(lines, policy, spans, samples, result);
      }
    }
    return result;
  }

  std::string describe() const override {
    return "streams=" + std::to_string(streams_.size()) +
           " requests_per_stream=" + std::to_string(kRequests) +
           " processors=" + std::to_string(kProcessors32) + " initial_admits=400 policies=pm,ds";
  }

  SimPassInputs sim_pass_inputs() const override {
    // No simulation in this workload; the sim layer pass times the
    // mc-ideal pool for the same seed.
    McIdeal mc;
    mc.setup(seed_, nullptr);
    return mc.sim_pass_inputs();
  }

 private:
  static constexpr std::size_t kStreams = 24;
  static constexpr std::size_t kProcessors32 = 32;
  static constexpr std::size_t kRequests = 600;
  static constexpr e2e::admission::Policy kPolicies[] = {e2e::admission::Policy::kPm,
                                                       e2e::admission::Policy::kDs};

  /// One closed-loop client: each request line is parsed and submitted
  /// only after the previous one was answered, by a fresh controller.
  static void replay(const std::vector<std::string>& lines, e2e::admission::Policy policy,
                     SpanRecorder* spans, LayerSamples* samples, ChunkResult& result) {
    using namespace e2e::admission;
    const std::string policy_metric =
        std::string{"admission.submit_us."} + (policy == Policy::kPm ? "pm" : "ds");
    OutputUnit unit{.operations = static_cast<std::int64_t>(lines.size())};
    try {
      AdmissionController controller{ControllerOptions{
          .policy = policy, .processors = kProcessors32, .full_recompute = false}};
      for (std::size_t i = 0; i < lines.size(); ++i) {
        const auto id = static_cast<std::int64_t>(i);
        const std::int64_t start = now_ns();
        ScopedSpan request_span{spans, "request", id};
        std::optional<Request> request;
        {
          ScopedSpan span{spans, "admission.parse", id};
          request = parse_request(lines[i]);
        }
        const std::int64_t submit_start = now_ns();
        Outcome outcome;
        {
          ScopedSpan span{spans, "admission.submit", id};
          outcome = controller.submit(*request);
        }
        result.request_us.push_back(elapsed_us(start));
        if (samples == nullptr) continue;
        const double submit_us = elapsed_us(submit_start);
        auto& t = samples->timings_us;
        t[std::string{"admission.submit_us."} + verb_kind(request->verb)].push_back(submit_us);
        t[policy_metric].push_back(submit_us);
        // Queued batch members are decided at batch-commit; the decision
        // cache serves rejections only.
        const bool rejected = !outcome.accepted && outcome.reason != ReasonCode::kQueued;
        if (outcome.accepted) t["admission.submit_us.accepted"].push_back(submit_us);
        if (rejected) t["admission.submit_us.rejected"].push_back(submit_us);
        samples->counts["admission.requests"] += 1;
        samples->counts["admission.rejected"] += rejected ? 1 : 0;
        samples->counts["admission.live_tasks_sum"] += static_cast<double>(outcome.live_tasks);
      }
      unit.fingerprint = controller.result_hash();
      if (samples != nullptr) {
        samples->counts["admission.cache_hits"] += static_cast<double>(controller.cache_hits());
        samples->counts["admission.cache_lookups"] +=
            static_cast<double>(controller.cache_hits() + controller.cache_misses());
      }
    } catch (const std::exception&) {
      unit.threw = true;
    }
    result.work += static_cast<std::int64_t>(lines.size());
    result.units.push_back(unit);
  }

  std::vector<std::vector<std::string>> streams_;  ///< request lines per stream
  std::uint64_t seed_ = 0;
};

// --- analysis-offline -------------------------------------------------

class AnalysisOffline final : public Workload {
 public:
  std::string name() const override { return "analysis-offline"; }
  std::string work_unit() const override { return "systems"; }

  void setup(std::uint64_t seed, SpanRecorder* spans) override {
    replaced_ = 0;
    pool_ = select_pool(derive_seed(seed, 4), grid_cells(kSystems), replaced_, spans);
  }

  ChunkResult run_chunk(std::int64_t, SpanRecorder* spans, LayerSamples* samples) override {
    ChunkResult result;
    for (std::size_t i = 0; i < pool_.size(); ++i) {
      const e2e::TaskSystem& system = pool_[i].system;
      const auto id = static_cast<std::int64_t>(i);
      OutputUnit unit{.operations = 1};
      const std::int64_t start = now_ns();
      try {
        ScopedSpan request_span{spans, "request", id};
        std::optional<e2e::InterferenceMap> interference;
        {
          ScopedSpan span{spans, "analysis.interference", id};
          interference.emplace(system);
        }
        std::uint64_t fp = 0;
        {
          ScopedSpan span{spans, "analysis.sa_pm", id};
          fp = fold_bounds(fp, e2e::analyze_sa_pm(system, *interference).eer_bounds);
        }
        {
          ScopedSpan span{spans, "analysis.sa_ds", id};
          const e2e::SaDsResult ds = e2e::analyze_sa_ds(system, *interference);
          fp = e2e::hash_combine(fold_bounds(fp, ds.analysis.eer_bounds),
                                 static_cast<std::uint64_t>(ds.passes));
          if (samples != nullptr) samples->counts["analysis.sa_ds_passes"] += ds.passes;
        }
        {
          ScopedSpan span{spans, "analysis.holistic", id};
          fp = fold_bounds(fp, e2e::analyze_holistic_ds(system, *interference).analysis.eer_bounds);
        }
        {
          ScopedSpan span{spans, "analysis.hopa", id};
          const e2e::HopaResult hopa =
              e2e::optimize_priorities_hopa(system, e2e::HopaOptions{.iterations = 8});
          fp = fold_double(fold_double(fp, hopa.margin), hopa.initial_margin);
          if (samples != nullptr) samples->counts["analysis.hopa_rounds"] += hopa.iterations_run;
        }
        for (const e2e::AnalysisKind kind : {e2e::AnalysisKind::kSaPm, e2e::AnalysisKind::kSaDs}) {
          ScopedSpan span{spans, "analysis.breakdown", id};
          fp = fold_double(fp, e2e::breakdown_utilization(system, kind));
        }
        unit.fingerprint = fp;
        result.work += 1;
      } catch (const std::exception&) {
        unit.threw = true;
      }
      result.request_us.push_back(elapsed_us(start));
      result.units.push_back(unit);
    }
    return result;
  }

  std::string describe() const override {
    return "pool_systems=" + std::to_string(pool_.size()) +
           " replaced_draws=" + std::to_string(replaced_) + " hopa_rounds=8";
  }

  SimPassInputs sim_pass_inputs() const override {
    SimPassInputs inputs;
    for (const PoolSystem& p : pool_) {
      inputs.cases.push_back(sim_case(p.system, p.system.horizon_ticks(20.0), p.generator_seed));
    }
    return inputs;
  }

 private:
  static constexpr std::size_t kSystems = 14;

  std::vector<PoolSystem> pool_;
  int replaced_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "mc-ideal") return std::make_unique<McIdeal>();
  if (name == "faults-timesvc") return std::make_unique<FaultsTimesvc>();
  if (name == "admission-churn") return std::make_unique<AdmissionChurn>();
  if (name == "analysis-offline") return std::make_unique<AnalysisOffline>();
  throw std::invalid_argument("unknown workload '" + name + "'");
}

e2e::TimeServiceConfig bench_timesvc_config() {
  return e2e::parse_timesvc_config("interval=25000");
}

}  // namespace perfbench
