// Holistic (jitter-refined) analysis for the DS protocol -- an extension
// beyond the paper, in the spirit of Tindell & Clark's holistic
// schedulability analysis [18 in the paper's bibliography].
//
// Algorithm SA/DS charges each successor subtask a release jitter equal to
// the full IEER bound of its predecessor. But a DS release can never occur
// earlier than the chain's best case (the sum of predecessor execution
// times), so the *variation* in release times -- which is what inflates
// the interference ceilings -- is at most R_{u,v-1} - B_{u,v-1}. Running
// the same fixpoint with the refined jitter yields bounds that are sound
// and never worse than SA/DS; ablation A (examples/scenarios/ablation.e2es)
// quantifies the gap.
#pragma once

#include "core/analysis/sa_ds.h"

namespace e2e {

/// SA/DS with best-case-refined jitter terms. Same result contract as
/// analyze_sa_ds.
[[nodiscard]] SaDsResult analyze_holistic_ds(const TaskSystem& system,
                                             const SaDsOptions& options = {});

/// As above with a prebuilt interference map.
[[nodiscard]] SaDsResult analyze_holistic_ds(const TaskSystem& system,
                                             const InterferenceMap& interference,
                                             const SaDsOptions& options = {});

}  // namespace e2e
