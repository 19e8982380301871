// The paper's figures and reports, behind one entry point. `e2e run` on a
// `scenario figure` spec (examples/scenarios/fig12.e2es and its siblings)
// is the way to produce them; tests call run_figure with tiny sample
// counts to keep the harness itself covered.
//
// Every figure prints (a) the same series the paper plots, as an N x U
// table, and (b) the shape expectations from the paper so a reader can
// eyeball the reproduction without the original figures at hand. The
// HOPA, sensitivity and paper-example reports are specs of the same kind.
#pragma once

#include <ostream>

#include "experiments/sweep.h"
#include "scenario/spec.h"

namespace e2e {

/// Prints `figure` to `out`:
///   12/13      SA/DS failure rate; average SA-DS / SA-PM bound ratio;
///   14/15/16   average-EER ratios PM/DS, RG/DS, PM/RG from simulation;
///   overhead   Section 3.3 complexity traits and measured run-time
///              overhead of all four protocols;
///   jitter     output jitter under DS/PM/RG (the Section 6 claims);
///   ablation   DESIGN.md ablations A-F;
///   hopa       HOPA vs PDM priorities, SA/PM schedulability and margin;
///   sensitivity  the Figure 12/13 summary cells under four period
///              distributions;
///   paper-examples  Figures 3-7 as Gantt charts plus the Section 3-4
///              analysis numbers (fixed systems; `options` is unused).
/// Whether the sweep runs the analyses or the simulations is decided
/// here, from simulation_figure(); `options`' own run_* flags are
/// ignored.
void run_figure(std::ostream& out, FigureKind figure, const SweepOptions& options);

}  // namespace e2e
