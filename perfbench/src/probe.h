// Host-speed probe. Neighbours on a shared host slow this process down
// in phases that last from seconds to minutes, and no statistic over one
// run's passes can remove a phase that covers the whole run. The probe
// is a fixed kernel, owned by the benchmark and never changed by the
// program, whose speed tracks those phases: binary-heap operations,
// malloc/free churn and node-based tree updates, the instruction mix of
// the simulator's event queue and of the analyses' and admission
// engines' tables. (Spin loops and pointer chases do not track them:
// the phases slow throughput-bound, allocation-heavy code, not
// latency-bound code.)
// Dividing each pass's time by the probe times around it removes the
// phase; multiplying by the probe's reference time turns the ratio back
// into seconds on a host where the probe takes that long.
#pragma once

namespace perfbench {

/// The probe's time on the reference host (Intel Xeon, 4 vCPUs, quiet
/// phase). Fixed, so normalized values stay comparable across commits.
inline constexpr double kProbeReferenceSeconds = 0.009;

/// Runs the probe kernel once; returns its wall time in seconds.
[[nodiscard]] double run_host_probe();

/// The factor a time measured between two probes is divided by: the
/// probes' mean time relative to kProbeReferenceSeconds.
[[nodiscard]] double host_slowdown(double probe_before_s, double probe_after_s);

}  // namespace perfbench
