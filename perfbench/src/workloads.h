// The benchmark's four workloads. Each builds fixed inputs from the
// seed in set-up, then runs them in equal chunks: one chunk is one
// complete pass over the inputs, so every chunk does the same work and
// produces the same outputs.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/analysis/bounds.h"
#include "scenario/spec.h"
#include "sim/timesvc/timesvc_config.h"
#include "task/system.h"
#include "trace.h"

namespace perfbench {

/// One checked piece of a chunk's output: a spec's schedule hashes, an
/// admission replay's result hash, or one system's analysis results.
struct OutputUnit {
  std::uint64_t fingerprint = 0;
  std::int64_t operations = 0;  ///< operations whose outputs it covers
  bool threw = false;
};

/// Per-call samples and counts gathered while tracing. Keys are
/// per-layer metric names.
struct LayerSamples {
  std::map<std::string, std::vector<double>> timings_us;
  std::map<std::string, double> counts;
};

struct ChunkResult {
  std::vector<double> request_us;  ///< per-request latency, request order
  std::vector<OutputUnit> units;
  std::int64_t work = 0;           ///< work units processed
};

/// One simulated system as the sim layer pass runs it.
struct SimCase {
  e2e::TaskSystem system;
  e2e::SubtaskTable bounds;  ///< SA/PM subtask bounds (PM-family protocols)
  e2e::Time horizon = 0;
  std::uint64_t fault_seed_mix = 0;
  e2e::TimeServiceConfig timesvc;  ///< for runs with a time service
};

/// What the sim layer pass runs: the workload's systems, its non-inert
/// fault rungs (empty = the inert plan only) and execution variation.
struct SimPassInputs {
  std::vector<SimCase> cases;
  std::vector<e2e::FaultSeverity> rungs;
  double exec_min_fraction = 1.0;
};

class Workload {
 public:
  virtual ~Workload() = default;

  [[nodiscard]] virtual std::string name() const = 0;
  [[nodiscard]] virtual std::string work_unit() const = 0;

  /// Builds every input from `seed`. Spans, when recorded, cover the
  /// public calls set-up makes.
  virtual void setup(std::uint64_t seed, SpanRecorder* spans) = 0;

  /// One pass over the inputs. A null recorder is the untraced path;
  /// with a recorder, `samples` receives per-call timings and counts.
  virtual ChunkResult run_chunk(std::int64_t chunk_id, SpanRecorder* spans,
                                LayerSamples* samples) = 0;

  /// The outputs a chunk must have, computed by a second route (the
  /// full-recompute admission engines, the experiment API behind a
  /// scenario); empty when the workload has no second route. Called once
  /// per run, outside the timed set-up.
  [[nodiscard]] virtual std::vector<std::uint64_t> reference_fingerprints() { return {}; }

  /// Set-up facts worth printing next to the metrics, as `key=value`.
  [[nodiscard]] virtual std::string describe() const = 0;

  /// The systems and rungs the sim layer pass should time.
  [[nodiscard]] virtual SimPassInputs sim_pass_inputs() const = 0;
};

/// Throws std::invalid_argument on an unknown name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name);


}  // namespace perfbench
