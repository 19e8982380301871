#!/usr/bin/env bash
# Sanitizer gate: configures a build with
# E2E_SANITIZE=address,undefined,float-cast-overflow and warnings as
# errors (E2E_WARNINGS_AS_ERRORS, so a helper left unused by a deletion
# fails here), builds, and runs the
# scenario-, bench-smoke-, timesvc-, admission-, parser-, analysis-,
# engine- and examples-labelled tests under it (analysis and engine cover
# the analysis kernels and the simulator's hot path; examples runs every
# example binary against its golden output; bench-smoke times
# montecarlo_example2.e2es and partition.e2es through `e2e run
# --perf-json`, plus a tiny bench_admission workload; scenario includes
# the bench specs' hash pins in scenario_parity_test).
# Catches the lifetime bugs the executor's engine recycling and
# cross-cell reuse could introduce, and undefined arithmetic. Every
# finding is fatal: GCC's `undefined` group leaves out
# float-cast-overflow, and UBSan reports and carries on by default, so
# without -fno-sanitize-recover a "runtime error" never fails a test.
#
# Usage: tools/check.sh
#   CHECK_BUILD_DIR (default: build-check) -- sanitizer build tree
#   PERF_BUILD_DIR  (default: build)       -- unsanitized tree for the gate
#   JOBS            (default: nproc)       -- build parallelism
#   E2E_TSAN        (default: 1)           -- unless 0, also build with
#                     E2E_SANITIZE=thread (TSAN_BUILD_DIR, default
#                     build-tsan) and run the multi-threaded tests under it.
#   E2E_BENCH_GATE  (default: unset)       -- when set (and not 0), also run
#                     the perf-labelled thread-scaling gates (montecarlo.e2es,
#                     fault_ladder.e2es, bench_admission). The gate
#                     self-skips on hosts with < 4 hardware threads (a
#                     1-CPU CI box times oversubscription, not scaling).
set -euo pipefail

cd "$(dirname "$0")/.."

CHECK_BUILD_DIR="${CHECK_BUILD_DIR:-build-check}"
JOBS="${JOBS:-$(nproc)}"

cmake -B "${CHECK_BUILD_DIR}" -S . \
  -DE2E_SANITIZE=address,undefined,float-cast-overflow \
  -DE2E_WARNINGS_AS_ERRORS=ON \
  -DCMAKE_CXX_FLAGS=-fno-sanitize-recover=all
cmake --build "${CHECK_BUILD_DIR}" -j "${JOBS}"
UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 \
  ctest --test-dir "${CHECK_BUILD_DIR}" --output-on-failure \
  -L "scenario|bench-smoke|timesvc|admission|parser|analysis|engine|examples"

# Data-race gate (E2E_TSAN=0 opts out): the tests that drive the thread
# pool (directly, through the scenario executor, or through sharded
# replays).
if [[ "${E2E_TSAN:-1}" != "0" ]]; then
  TSAN_BUILD_DIR="${TSAN_BUILD_DIR:-build-tsan}"
  TSAN_TESTS=(thread_pool_test analysis_cache_test scenario_executor_test
              determinism_test admission_property_test monte_carlo_test)
  cmake -B "${TSAN_BUILD_DIR}" -S . -DE2E_SANITIZE=thread -DE2E_WARNINGS_AS_ERRORS=ON
  cmake --build "${TSAN_BUILD_DIR}" -j "${JOBS}" --target "${TSAN_TESTS[@]}"
  ctest --test-dir "${TSAN_BUILD_DIR}" --output-on-failure \
    -R "^($(IFS='|'; echo "${TSAN_TESTS[*]}"))\$"
fi

# Opt-in scaling gate, run against an unsanitized tree: wall-clock under
# ASan/UBSan says nothing about real scaling, so the gate deliberately
# uses a plain build.
if [[ -n "${E2E_BENCH_GATE:-}" && "${E2E_BENCH_GATE}" != "0" ]]; then
  PERF_BUILD_DIR="${PERF_BUILD_DIR:-build}"
  cmake -B "${PERF_BUILD_DIR}" -S .
  cmake --build "${PERF_BUILD_DIR}" -j "${JOBS}"
  ctest --test-dir "${PERF_BUILD_DIR}" --output-on-failure -L perf
fi
