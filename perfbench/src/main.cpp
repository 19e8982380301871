// perfbench: the repository benchmark program.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--spans-out <path>]
//
// Untraced (--trace 0): set up three times from the seed (setup_s is the
// median), check the outputs once against the workload's second route,
// then replay the same inputs in equal passes (chunks) for --seconds.
// Every pass is timed between two host probes (probe.h); each end-to-end
// timing is the median over passes of the pass's value divided by the
// slowdown the probes measured. Peak RSS is read at the end.
// Traced (--trace 1): alternate traced and untraced passes, run the other
// layers' passes on the same seed, and report per-layer metrics.
// Every pass's outputs must equal the warm-up pass's and, for the pinned
// seed, the values in pinned.h. The last stdout line is one JSON object;
// `#` diagnostics lines come before it.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/hash.h"
#include "core/analysis/cache.h"
#include "layers.h"
#include "pinned.h"
#include "probe.h"
#include "stats.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int kSetupRepeats = 3;
// Traced runs: share of --seconds spent on the workload's own chunks;
// the rest goes to the other layers' passes.
constexpr double kTracedChunkShare = 0.7;
constexpr std::size_t kSimPassCases = 6;
constexpr int kSimPassReps = 3;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = 0;
  std::string spans_out;
};

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false, have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string value = argv[++i];
    if (key == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      args.seed = std::stoull(value);
      have_seed = true;
    } else if (key == "--seconds") {
      args.seconds = std::stod(value);
      have_seconds = true;
    } else if (key == "--trace") {
      args.trace = std::stoi(value);
      if (args.trace != 0 && args.trace != 1) throw std::invalid_argument("--trace is 0 or 1");
    } else if (key == "--spans-out") {
      args.spans_out = value;
    } else {
      throw std::invalid_argument("unknown option " + key);
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !(args.seconds > 0.0)) {
    throw std::invalid_argument("need --workload, --seed and --seconds > 0");
  }
  return args;
}

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) / 1e9;
}

std::string hex(std::uint64_t value) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%016llx", static_cast<unsigned long long>(value));
  return buf;
}

std::uint64_t fold_fingerprints(const std::vector<std::uint64_t>& fingerprints) {
  std::uint64_t acc = 0;
  for (const std::uint64_t fp : fingerprints) acc = e2e::hash_combine(acc, fp);
  return acc;
}

/// Attempted and failed operations: a unit that threw or whose
/// fingerprint differs from the reference fails all its operations.
struct Ledger {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  bool all_failed = false;  ///< outputs differ from the pinned values
  std::vector<std::string> problems;

  void check(const ChunkResult& chunk, const std::vector<std::uint64_t>& reference,
             std::int64_t expected_work, const std::string& what) {
    bool bad_work = chunk.work != expected_work;
    for (std::size_t i = 0; i < chunk.units.size(); ++i) {
      const OutputUnit& unit = chunk.units[i];
      attempted += unit.operations;
      const bool mismatch = i >= reference.size() || unit.fingerprint != reference[i];
      if (unit.threw || mismatch || bad_work) {
        failed += unit.operations;
        if (problems.size() < 5) {
          problems.push_back(what + " unit " + std::to_string(i) +
                             (unit.threw ? " threw" : mismatch ? " fingerprint mismatch"
                                                               : " work count mismatch"));
        }
      }
    }
    if (chunk.units.size() != reference.size()) {
      failed += 1;
      attempted += 1;
      problems.push_back(what + " unit count mismatch");
    }
  }
};

std::vector<std::uint64_t> fingerprints(const ChunkResult& chunk) {
  std::vector<std::uint64_t> out;
  for (const OutputUnit& unit : chunk.units) out.push_back(unit.fingerprint);
  return out;
}

/// A workload after set-up and its warm-up chunk, whose outputs every
/// later chunk must reproduce.
struct Prepared {
  std::unique_ptr<Workload> workload;
  std::vector<std::uint64_t> expected;
  std::vector<std::int64_t> unit_operations;
  std::int64_t expected_work = 0;
  std::size_t requests_per_chunk = 0;
  double setup_seconds = 0.0;
  double warm_up_seconds = 0.0;  ///< the warm-up pass's share of set-up
};

Prepared prepare(const std::string& name, std::uint64_t seed, SpanRecorder* setup_spans,
                 Ledger& ledger) {
  Prepared p;
  const std::int64_t start = now_ns();
  {
    ScopedSpan root{setup_spans, "setup", 0};
    p.workload = make_workload(name);
    p.workload->setup(seed, setup_spans);
    const std::int64_t warm_start = now_ns();
    const ChunkResult warm = p.workload->run_chunk(-1, nullptr, nullptr);
    p.warm_up_seconds = seconds_since(warm_start);
    p.expected = fingerprints(warm);
    for (const OutputUnit& unit : warm.units) p.unit_operations.push_back(unit.operations);
    p.expected_work = warm.work;
    p.requests_per_chunk = warm.request_us.size();
    ledger.check(warm, p.expected, warm.work, name + " warm-up");  // units that threw
  }
  p.setup_seconds = seconds_since(start);
  return p;
}

/// Compares the warm-up outputs with the workload's second route. Run
/// once per run, outside the timed set-up: the full-recompute admission
/// engines cost several set-ups.
void check_reference(Prepared& p, Ledger& ledger) {
  const std::vector<std::uint64_t> reference = p.workload->reference_fingerprints();
  if (reference.empty()) return;
  if (reference.size() != p.expected.size()) {
    ledger.problems.push_back("reference route has a different unit count");
    return;
  }
  for (std::size_t i = 0; i < reference.size(); ++i) {
    if (reference[i] != p.expected[i]) {
      ledger.failed += p.unit_operations[i];
      ledger.problems.push_back("unit " + std::to_string(i) + " differs from the reference route");
    }
  }
}

/// Timings of one workload's timed passes (chunks). Each pass is timed
/// between two host probes, and every estimate divides a pass's times by
/// the host slowdown those probes measured, then takes the median over
/// passes (probe.h explains why).
struct PassSeries {
  std::vector<double> seconds;   ///< raw wall time per pass
  std::vector<double> slowdown;  ///< host_slowdown around each pass
  std::vector<double> p50_us, p99_us;  ///< raw request percentiles per pass

  void add(const ChunkResult& chunk, double s, double host) {
    seconds.push_back(s);
    slowdown.push_back(host);
    p50_us.push_back(nearest_rank(chunk.request_us, 50.0));
    p99_us.push_back(nearest_rank(chunk.request_us, 99.0));
  }
  [[nodiscard]] double normalized_median(const std::vector<double>& raw) const {
    return median_normalized(raw, slowdown);
  }
  [[nodiscard]] double work_per_s(std::int64_t work_per_pass) const {
    return static_cast<double>(work_per_pass) / normalized_median(seconds);
  }
};

/// Runs passes of `p` until `seconds` have elapsed (at least
/// `min_passes`), each between two host probes. With `traced`, every
/// second pass records spans and samples and goes into `traced`.
void run_passes(Prepared& p, double seconds, std::int64_t min_passes, Ledger& ledger,
                PassSeries& untraced, PassSeries* traced = nullptr,
                SpanRecorder* spans = nullptr, LayerSamples* samples = nullptr) {
  double probe_before = run_host_probe();
  const std::int64_t start = now_ns();
  for (std::int64_t chunk = 0; chunk < min_passes || seconds_since(start) < seconds; ++chunk) {
    const bool trace = traced != nullptr && chunk % 2 == 1;
    const std::int64_t t = now_ns();
    ChunkResult result;
    {
      ScopedSpan root{trace ? spans : nullptr, "chunk", chunk};
      result = p.workload->run_chunk(chunk, trace ? spans : nullptr, trace ? samples : nullptr);
    }
    const double elapsed = seconds_since(t);
    const double probe_after = run_host_probe();
    (trace ? *traced : untraced).add(result, elapsed, host_slowdown(probe_before, probe_after));
    probe_before = probe_after;
    ledger.check(result, p.expected, p.expected_work, "chunk " + std::to_string(chunk));
  }
}

struct Result {
  Ledger ledger;
  MetricMap metrics;
  std::string diagnostics;
};

void print_result(const Result& r) {
  if (!r.diagnostics.empty()) std::cout << "# " << r.diagnostics << "\n";
  for (const std::string& p : r.ledger.problems) std::cout << "# problem: " << p << "\n";
  bool finite = true;
  std::ostringstream json;
  json.precision(17);
  json << "{\"correct\": ";
  std::ostringstream m;
  m.precision(17);
  bool first = true;
  for (const auto& [name, vu] : r.metrics) {
    finite = finite && std::isfinite(vu.first);
    m << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
      << (std::isfinite(vu.first) ? vu.first : 0.0) << ", \"unit\": \"" << vu.second << "\"}";
    first = false;
  }
  const std::int64_t failed = r.ledger.all_failed ? r.ledger.attempted : r.ledger.failed;
  const bool correct = finite && failed == 0 && r.ledger.problems.empty();
  json << (correct ? "true" : "false") << ", \"attempted\": " << r.ledger.attempted
       << ", \"failed\": " << failed << ", \"metrics\": {" << m.str() << "}}";
  std::cout << json.str() << std::endl;
}

void check_pinned(const std::string& workload, std::uint64_t seed,
                  const std::vector<std::uint64_t>& expected, Ledger& ledger) {
  if (seed != kPinnedSeed) return;
  const std::uint64_t fold = fold_fingerprints(expected);
  for (const PinnedFingerprint& p : kPinned) {
    if (workload == p.workload && fold != p.fingerprint) {
      // Every chunk must reproduce the warm-up, so every operation is wrong.
      ledger.all_failed = true;
      ledger.problems.push_back("seed " + std::to_string(seed) + " fingerprint " + hex(fold) +
                                " differs from pinned " + hex(p.fingerprint));
    }
  }
}

std::string common_diagnostics(const Prepared& p, const PassSeries& series,
                               std::uint64_t seed) {
  std::ostringstream d;
  d.precision(4);
  d << "workload=" << p.workload->name() << " seed=" << seed
    << " chunks=" << series.seconds.size() << " ops_per_chunk=" << p.expected.size()
    << " requests_per_chunk=" << p.requests_per_chunk << " work_per_chunk=" << p.expected_work
    << " work_unit=\"" << p.workload->work_unit() << "\""
    << " p90_p10_chunk_time=" << p90_p10_ratio(series.seconds)
    << " median_slowdown=" << nearest_rank(series.slowdown, 50.0)
    << " raw_decile_work_per_s=" << [&] {
         std::vector<double> rates;
         for (const double s : series.seconds) rates.push_back(static_cast<double>(p.expected_work) / s);
         return fastest_decile(rates, false);
       }()
    << " nproc=" << sysconf(_SC_NPROCESSORS_ONLN) << " " << p.workload->describe();
  return d.str();
}

Result run_untraced(const Args& args) {
  Result r;
  std::vector<double> setup_seconds, setup_slowdown;
  Prepared p;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const std::vector<std::uint64_t> previous = p.expected;
    p = Prepared{};  // release the previous set-up's inputs first
    e2e::AnalysisCache::shared().clear();
    const double probe_before = run_host_probe();
    p = prepare(args.workload, args.seed, nullptr, r.ledger);
    setup_slowdown.push_back(host_slowdown(probe_before, run_host_probe()));
    if (i > 0 && p.expected != previous) r.ledger.problems.push_back("set-up repeats disagree");
    setup_seconds.push_back(p.setup_seconds);
  }
  check_reference(p, r.ledger);
  check_pinned(args.workload, args.seed, p.expected, r.ledger);

  PassSeries series;
  run_passes(p, args.seconds, 1, r.ledger, series);

  r.metrics["setup_s"] = {median_normalized(setup_seconds, setup_slowdown), "s"};
  r.metrics["work_per_s"] = {series.work_per_s(p.expected_work), "1/s"};
  r.metrics["req_p50_us"] = {series.normalized_median(series.p50_us), "us"};
  r.metrics["req_p99_us"] = {series.normalized_median(series.p99_us), "us"};
  r.metrics["peak_rss_mb"] = {peak_rss_mib(), "MiB"};
  r.diagnostics = common_diagnostics(p, series, args.seed) +
                  " last_setup_s=" + std::to_string(p.setup_seconds) +
                  " last_warm_up_s=" + std::to_string(p.warm_up_seconds) +
                  " fingerprint=" + hex(fold_fingerprints(p.expected));
  return r;
}

// --- traced run -------------------------------------------------------

/// Span name -> per-layer metric name for the calls the workloads wrap.
const std::vector<std::pair<std::string, std::string>>& span_metrics() {
  static const std::vector<std::pair<std::string, std::string>> table{
      {"scenario.parse", "scenario.parse_us"},
      {"scenario.run", "scenario.run_us"},
      {"workload.generate", "workload.generate_us"},
      {"admission.parse", "admission.parse_us"},
      {"admission.churn_gen", "admission.churn_gen_us"},
      {"analysis.interference", "analysis.interference_us"},
      {"analysis.sa_pm", "analysis.sa_pm_us"},
      {"analysis.sa_ds", "analysis.sa_ds_us"},
      {"analysis.holistic", "analysis.holistic_us"},
      {"analysis.hopa", "analysis.hopa_us"},
      {"analysis.breakdown", "analysis.breakdown_us"},
  };
  return table;
}

/// Adds p50 and share-of-root metrics for every mapped span name in
/// `spans`, relative to the total duration of spans named `root`.
void add_span_metrics(const SpanRecorder& spans, const std::string& root,
                      MetricMap& metrics) {
  const auto summary = summarise(spans.spans());
  double root_ns = 0.0;
  for (const auto& [name, s] : summary) {
    if (name == root) {
      for (const double us : s.durations_us) root_ns += us * 1e3;
    }
  }
  for (const auto& [name, s] : summary) {
    for (const auto& [span_name, metric] : span_metrics()) {
      if (name != span_name) continue;
      metrics[metric] = {nearest_rank(s.durations_us, 50.0), "us"};
      metrics[metric + ".share"] = {root_ns > 0 ? s.self_ns_total / root_ns : 0.0, "ratio"};
    }
  }
}

/// The traced-sample metrics of one workload's traced chunks.
void add_sample_metrics(const LayerSamples& samples, double traced_chunks,
                        MetricMap& metrics) {
  for (const auto& [name, values] : samples.timings_us) {
    metrics[name + ".p50"] = {nearest_rank(values, 50.0), "us"};
    metrics[name + ".p99"] = {nearest_rank(values, 99.0), "us"};
  }
  const auto count = [&](const std::string& key) {
    const auto it = samples.counts.find(key);
    return it == samples.counts.end() ? 0.0 : it->second;
  };
  if (count("admission.requests") > 0) {
    const double requests = count("admission.requests");
    metrics["admission.reject_share"] = {count("admission.rejected") / requests, "ratio"};
    metrics["admission.live_tasks_mean"] = {count("admission.live_tasks_sum") / requests, "count"};
    const double lookups = count("admission.cache_lookups");
    metrics["admission.cache_hit_ratio"] = {
        lookups > 0 ? count("admission.cache_hits") / lookups : 0.0, "ratio"};
  }
  for (const char* key : {"analysis.sa_ds_passes", "analysis.hopa_rounds"}) {
    if (samples.counts.contains(key)) metrics[key] = {count(key) / traced_chunks, "count"};
  }
}

/// The spans one workload recorded in a traced run.
struct TracedSource {
  std::string workload;
  SpanRecorder setup, chunks;
};

void write_spans(const std::string& path, const std::deque<TracedSource>& sources) {
  std::ofstream out{path};
  if (!out) throw std::runtime_error("cannot write spans to " + path);
  out << "workload\tphase\tname\tstart_ns\tend_ns\tparent\tid\n";
  for (const TracedSource& source : sources) {
    for (const auto* rec : {&source.setup, &source.chunks}) {
      for (const Span& s : rec->spans()) {
        out << source.workload << '\t' << (rec == &source.setup ? "setup" : "chunk") << '\t'
            << s.name << '\t' << s.start_ns << '\t' << s.end_ns << '\t' << s.parent << '\t'
            << s.id << '\n';
      }
    }
  }
  if (!out.flush()) throw std::runtime_error("cannot write spans to " + path);
}

Result run_traced(const Args& args) {
  Result r;
  // Probes come after the workload's own source; span metrics are added
  // in reverse so that a layer the workload drives itself reports the
  // workload's own calls. A deque keeps references valid as probes append.
  std::deque<TracedSource> sources;
  sources.push_back(TracedSource{args.workload, {}, {}});
  SpanRecorder& chunk_spans = sources.front().chunks;
  e2e::AnalysisCache::shared().clear();
  Prepared p = prepare(args.workload, args.seed, &sources.front().setup, r.ledger);
  check_reference(p, r.ledger);
  check_pinned(args.workload, args.seed, p.expected, r.ledger);

  e2e::AnalysisCache& cache = e2e::AnalysisCache::shared();
  const std::uint64_t hits0 = cache.hits(), misses0 = cache.misses(),
                      evictions0 = cache.evictions();
  PassSeries untraced, traced;
  LayerSamples own_samples;
  // Alternate untraced and traced passes so both see the same host.
  run_passes(p, kTracedChunkShare * args.seconds, 2, r.ledger, untraced, &traced, &chunk_spans,
             &own_samples);
  const double own_chunks = static_cast<double>(untraced.seconds.size() + traced.seconds.size());
  const double lookups = static_cast<double>(cache.hits() - hits0 + cache.misses() - misses0);
  r.metrics["analysis.cache_hit_ratio"] = {
      lookups > 0 ? static_cast<double>(cache.hits() - hits0) / lookups : 0.0, "ratio"};
  r.metrics["analysis.cache_evictions"] = {
      static_cast<double>(cache.evictions() - evictions0) / own_chunks, "count"};
  r.metrics["trace.untraced_work_per_s"] = {untraced.work_per_s(p.expected_work), "1/s"};
  r.metrics["trace.work_per_s"] = {traced.work_per_s(p.expected_work), "1/s"};
  r.metrics["trace.overhead_share"] = {
      1.0 - r.metrics["trace.work_per_s"].first / r.metrics["trace.untraced_work_per_s"].first,
      "ratio"};
  add_sample_metrics(own_samples, static_cast<double>(traced.seconds.size()), r.metrics);

  // Layers this workload does not drive: one warm traced chunk of the
  // workload that does, on the same seed. faults-timesvc already drives
  // the scenario layer, and analysis-offline's set-up generates systems.
  std::vector<std::string> probes;
  for (const std::string name : {"mc-ideal", "admission-churn", "analysis-offline"}) {
    if (name == args.workload) continue;
    if (name == "mc-ideal" && args.workload == "faults-timesvc") continue;
    probes.push_back(name);
  }
  for (const std::string& name : probes) {
    TracedSource& source = sources.emplace_back(TracedSource{name, {}, {}});
    Prepared probe = prepare(name, args.seed, &source.setup, r.ledger);
    LayerSamples samples;
    ChunkResult result;
    {
      ScopedSpan root{&source.chunks, "chunk", 0};
      result = probe.workload->run_chunk(0, &source.chunks, &samples);
    }
    r.ledger.check(result, probe.expected, probe.expected_work, name + " probe chunk");
    add_sample_metrics(samples, 1.0, r.metrics);
  }
  for (auto it = sources.rbegin(); it != sources.rend(); ++it) {
    add_span_metrics(it->setup, "setup", r.metrics);
    add_span_metrics(it->chunks, "chunk", r.metrics);
  }

  SimPassInputs sim = p.workload->sim_pass_inputs();
  if (sim.cases.size() > kSimPassCases) {
    sim.cases.erase(sim.cases.begin() + kSimPassCases, sim.cases.end());
  }
  r.metrics.merge(run_sim_pass(sim, kSimPassReps));
  r.metrics["exec.dispatch_ns_per_item"] = {exec_dispatch_ns_per_item(5), "ns"};

  if (!args.spans_out.empty()) write_spans(args.spans_out, sources);
  r.diagnostics = common_diagnostics(p, untraced, args.seed) +
                  " traced_chunks=" + std::to_string(traced.seconds.size()) +
                  " sim_pass_cases=" + std::to_string(sim.cases.size());
  return r;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  try {
    args = perfbench::parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what()
              << "\nusage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--spans-out <path>]\n";
    return 2;
  }
  try {
    const perfbench::Result result =
        args.trace == 1 ? perfbench::run_traced(args) : perfbench::run_untraced(args);
    perfbench::print_result(result);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
