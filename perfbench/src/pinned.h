// Output fingerprints pinned for one seed: the fold, in unit order, of a
// chunk's unit fingerprints (schedule hashes for the scenario workloads,
// the admission result hashes, the analysis-result folds). A run with
// kPinnedSeed fails every operation if its outputs differ, so a change
// that alters what the program computes cannot pass as a speed-up.
#pragma once

#include <cstdint>
#include <vector>

namespace perfbench {

inline constexpr std::uint64_t kPinnedSeed = 1;

struct PinnedFingerprint {
  const char* workload;
  std::uint64_t fingerprint;
};

inline const std::vector<PinnedFingerprint> kPinned{
    {"mc-ideal", 0x5a03ae579121a721ULL},
    {"faults-timesvc", 0x9d6c8028f727cc4cULL},
    {"admission-churn", 0x479cdfcdd9d170aeULL},
    {"analysis-offline", 0x98eaf839ea4364feULL},
};

}  // namespace perfbench
