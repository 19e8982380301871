#!/usr/bin/env bash
# Regenerates every committed results/BENCH_*.json from the current build.
#
# Each bench validates its own JSON against the perf_json schema and
# exits nonzero when thread counts (or code-path variants) disagree on
# the result hash, so this script failing means a schema or determinism
# regression, not just a slow run.
#
# Usage: tools/run_benches.sh [bench ...]
#          bench: faults, montecarlo, timesvc, admission (default: all four)
#        tools/run_benches.sh --figures
#   BUILD_DIR   (default: build)    -- cmake build tree with the benches
#   RESULTS_DIR (default: results)  -- where BENCH_<name>.json land
#
# --figures regenerates the paper's figures and reports through `e2e run`:
# every examples/scenarios/<name>.e2es that owns a report writes
# RESULTS_DIR/FIG_<name>.txt. A spec owns one when its `scenario` line is
# `figure` or `breakdown`, or when results/FIG_<name>.txt is committed
# (tests/scenario/results_check.cmake checks the same rule). Sample sizes
# follow the E2E_* defaults (docs/cli_and_formats.md).
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build}"
RESULTS_DIR="${RESULTS_DIR:-results}"

if [[ "${1:-}" == "--figures" ]]; then
  e2e="${BUILD_DIR}/tools/e2e"
  if [[ ! -x "${e2e}" ]]; then
    echo "run_benches: missing ${e2e} (build the CLI first)" >&2
    exit 1
  fi
  mkdir -p "${RESULTS_DIR}"
  status=0
  for spec in examples/scenarios/*.e2es; do
    name="$(basename "${spec}" .e2es)"
    if ! grep -qE '^scenario +(figure|breakdown)\b' "${spec}" &&
       [[ ! -f "results/FIG_${name}.txt" ]]; then
      continue
    fi
    echo "== e2e run ${spec} =="
    if ! "${e2e}" run "${spec}" > "${RESULTS_DIR}/FIG_${name}.txt"; then
      echo "run_benches: e2e run ${spec} failed" >&2
      status=1
    fi
  done
  exit "${status}"
fi

BENCHES=("$@")
if [[ ${#BENCHES[@]} -eq 0 ]]; then
  BENCHES=(faults montecarlo timesvc admission)
fi

mkdir -p "${RESULTS_DIR}"

status=0
for name in "${BENCHES[@]}"; do
  bin="${BUILD_DIR}/bench/bench_${name}"
  if [[ ! -x "${bin}" ]]; then
    echo "run_benches: missing ${bin} (build the '${name}' bench first)" >&2
    status=1
    continue
  fi
  echo "== bench_${name} =="
  # The admission bench carries its own headline gates (incremental must
  # beat full recompute by E2E_ADMIT_GATE_FLOOR for SA/PM, default 10x,
  # and by E2E_ADMIT_GATE_FLOOR_DS for SA/DS, default 5x); arm them when
  # regenerating the committed JSON so a speedup collapse fails.
  run=("${bin}")
  if [[ "${name}" == "admission" ]]; then
    run=(env "E2E_ADMIT_GATE=${E2E_ADMIT_GATE:-1}" \
         "E2E_ADMIT_GATE_FLOOR_DS=${E2E_ADMIT_GATE_FLOOR_DS:-5}" "${bin}")
  fi
  if ! "${run[@]}" "--json=${RESULTS_DIR}/BENCH_${name}.json"; then
    echo "run_benches: bench_${name} failed (schema, hash divergence, or gate)" >&2
    status=1
  fi
done
exit "${status}"
