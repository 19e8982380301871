#!/usr/bin/env bash
# Regenerates every committed results/BENCH_*.json from the current build.
#
# A results/BENCH_<name>.json with a spec examples/scenarios/<name>.e2es
# is written by `e2e run <spec> --perf-json`, which times the spec once
# per thread count; BENCH_admission.json is written by bench_admission
# (tests/scenario/results_check.cmake checks that every other BENCH file
# has its spec). The harness validates its own JSON against the
# perf_json schema and exits nonzero when thread counts (or code-path
# variants) disagree on the result hash, so this script failing means a
# schema or determinism regression, not just a slow run.
#
# Usage: tools/run_benches.sh [name ...]
#          name: a committed BENCH_<name>.json (default: all of them)
#        tools/run_benches.sh --figures
#   BUILD_DIR   (default: build)    -- cmake build tree with e2e and the bench
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
e2e="${BUILD_DIR}/tools/e2e"
if [[ ! -x "${e2e}" ]]; then
  echo "run_benches: missing ${e2e} (build the CLI first)" >&2
  exit 1
fi
mkdir -p "${RESULTS_DIR}"
status=0

if [[ "${1:-}" == "--figures" ]]; then
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

NAMES=("$@")
if [[ ${#NAMES[@]} -eq 0 ]]; then
  for json in results/BENCH_*.json; do
    name="$(basename "${json}" .json)"
    NAMES+=("${name#BENCH_}")
  done
fi

for name in "${NAMES[@]}"; do
  json="${RESULTS_DIR}/BENCH_${name}.json"
  spec="examples/scenarios/${name}.e2es"
  if [[ "${name}" == "admission" ]]; then
    echo "== bench_admission =="
    # The admission bench carries its own headline gates (incremental must
    # beat full recompute by E2E_ADMIT_GATE_FLOOR for SA/PM, default 10x,
    # and by E2E_ADMIT_GATE_FLOOR_DS for SA/DS, default 5x); arm them when
    # regenerating the committed JSON so a speedup collapse fails.
    run=(env "E2E_ADMIT_GATE=${E2E_ADMIT_GATE:-1}" \
         "E2E_ADMIT_GATE_FLOOR_DS=${E2E_ADMIT_GATE_FLOOR_DS:-5}" \
         "${BUILD_DIR}/bench/bench_admission" "--json=${json}")
  elif [[ -f "${spec}" ]]; then
    echo "== e2e run ${spec} --perf-json =="
    run=("${e2e}" run "${spec}" "--perf-json=${json}")
  else
    echo "run_benches: no ${spec} to time for BENCH_${name}.json" >&2
    status=1
    continue
  fi
  if ! "${run[@]}"; then
    echo "run_benches: BENCH_${name} failed (schema, hash divergence, or gate)" >&2
    status=1
  fi
done
exit "${status}"
