#!/usr/bin/env bash
# Tier-1 verification, parameterized for the CI matrix (.github/workflows/ci.yml):
#
#   ./ci.sh [--preset release|sanitize|tsan] [--smoke full|tp|pp|fault|fleet|obs]
#
#   --preset release   Release build with -Werror (default). Runs the full
#                      test suite, smoke-runs every fig* bench, and
#                      schema-checks the machine-readable JSON outputs.
#   --preset sanitize  Debug build under ASan+UBSan (halt on first report).
#                      Tests only — the analytic benches add nothing under a
#                      sanitizer but cost minutes.
#   --preset tsan      Debug build under ThreadSanitizer, running only the
#                      genuinely multi-threaded surface: the two-stream
#                      scheduler (dist_overlap_test), the common/parallel.h
#                      worker pool (gemm_test), and the heartbeat/timeout
#                      watcher thread (fault_tolerance_test). Everything
#                      else is single-threaded and would only slow the lane.
#   --smoke full       Everything the preset covers (default).
#   --smoke tp         Tensor-parallel smoke lane: builds everything, runs
#                      the TP test binary, and (release only) runs fig_tp
#                      and schema-checks its JSON. Fast signal that the
#                      sharded path still holds its parity/capacity claims.
#   --smoke pp         Pipeline-parallel smoke lane: the PP test binary
#                      (1F1B parity/schedule/hybrid claims), and (release
#                      only) fig_3d with its schema check.
#   --smoke fault      Fault-injection smoke lane: the fault-tolerance test
#                      binary (checkpoint/rollback/elastic/degraded-serving
#                      claims), and (release only) fig_fault with its
#                      schema check.
#   --smoke fleet      Serving-fleet smoke lane: the fleet test binary
#                      (router policies, hedged retries, token-exact
#                      re-dispatch, rolling reload), and (release only)
#                      fig_fleet with its schema check.
#   --smoke obs        Observability smoke lane: the telemetry test binaries
#                      (metrics/roofline/SLO/golden-snapshot, Chrome-trace
#                      well-formedness), and (release only) fig_obs with its
#                      schema check (overhead < 1%, roofline coverage).
#   --smoke paged      Paged-KV smoke lane: the serving/infer test binary
#                      (paged-vs-contiguous bitwise parity, COW fork
#                      isolation, block-table graph replay), and (release
#                      only) fig_page with its schema check (>= 4x residents
#                      at fixed KV bytes, prefix-sharing hit rate > 0).
#
# Fails on the first error; a bench that exits nonzero OR writes no/invalid
# JSON fails the run (ci/check_bench_json.py — python3 is required for the
# release preset, so missing validation can never pass silently).
set -euo pipefail
cd "$(dirname "$0")"

PRESET=release
SMOKE=full
while [ $# -gt 0 ]; do
  case "$1" in
    --preset) PRESET="${2:?ci.sh: --preset needs a value (release|sanitize|tsan)}"; shift 2 ;;
    --smoke) SMOKE="${2:?ci.sh: --smoke needs a value (full|tp|pp|fault|fleet|obs|paged)}"; shift 2 ;;
    *) echo "ci.sh: unknown argument '$1'" >&2; exit 2 ;;
  esac
done

case "$PRESET" in
  release)
    BUILD_DIR=build-release
    CMAKE_ARGS=(-DCMAKE_BUILD_TYPE=Release -DLS2_WERROR=ON)
    ;;
  sanitize)
    BUILD_DIR=build-sanitize
    SAN_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all -fno-omit-frame-pointer"
    CMAKE_ARGS=(-DCMAKE_BUILD_TYPE=Debug
                "-DCMAKE_CXX_FLAGS=${SAN_FLAGS}"
                "-DCMAKE_EXE_LINKER_FLAGS=${SAN_FLAGS}")
    ;;
  tsan)
    BUILD_DIR=build-tsan
    SAN_FLAGS="-fsanitize=thread -fno-omit-frame-pointer"
    CMAKE_ARGS=(-DCMAKE_BUILD_TYPE=Debug
                "-DCMAKE_CXX_FLAGS=${SAN_FLAGS}"
                "-DCMAKE_EXE_LINKER_FLAGS=${SAN_FLAGS}")
    ;;
  *) echo "ci.sh: unknown preset '$PRESET'" >&2; exit 2 ;;
esac

# Smoke lanes: lane -> "<ctest regex> <fig bench>", the tests it runs and
# the bench whose JSON it schema-checks. "full" runs every test and bench.
declare -A LANES=(
  [tp]="tensor_parallel_test fig_tp"
  [pp]="pipeline_parallel_test fig_3d"
  [fault]="fault_tolerance_test fig_fault"
  [fleet]="fleet_test fig_fleet"
  [obs]="obs_test|trace_test fig_obs"
  [paged]="infer_test fig_page"
)
LANE_TESTS="" LANE_BENCH=""
if [ "$SMOKE" != full ]; then
  [ -n "${LANES[$SMOKE]+x}" ] || { echo "ci.sh: unknown smoke '$SMOKE'" >&2; exit 2; }
  read -r LANE_TESTS LANE_BENCH <<< "${LANES[$SMOKE]}"
fi

echo "ci.sh: preset=$PRESET smoke=$SMOKE -> $BUILD_DIR"
cmake -B "$BUILD_DIR" -S . "${CMAKE_ARGS[@]}"
cmake --build "$BUILD_DIR" -j "$(nproc)"
cd "$BUILD_DIR"

# A hang is a failure, not a stall: every test binary gets a hard timeout —
# and a filter that matches nothing is a failure too, never a silent pass.
CTEST=(ctest --output-on-failure --no-tests=error)
if [ "$PRESET" = tsan ]; then
  # The TSan lane pins its scope to the threaded surface regardless of the
  # smoke flavour — single-threaded tests under TSan are pure slowdown.
  "${CTEST[@]}" --timeout 600 -R 'dist_overlap_test|gemm_test|fault_tolerance_test'
elif [ "$SMOKE" = full ]; then
  "${CTEST[@]}" --timeout 300 -j "$(nproc)"
else
  "${CTEST[@]}" --timeout 300 -R "$LANE_TESTS"
fi

if [ "$PRESET" != release ]; then
  echo "ci.sh: $PRESET preset done (benches are a release-lane concern)"
  exit 0
fi

command -v python3 >/dev/null 2>&1 || {
  echo "ci.sh: python3 is required to validate bench JSON" >&2; exit 1; }

# Stale outputs from a previous invocation must never pass validation: a
# bench that silently stops writing its JSON has to FAIL the schema check.
rm -f bench/fig*.json

if [ "$SMOKE" = full ]; then
  # Smoke-run EVERY paper-figure bench (all run in kModelOnly, so this is
  # cheap) so bench binaries can't bit-rot silently, then schema-check the
  # machine-readable outputs perf-trajectory tracking relies on — a bench
  # that silently writes nothing (or garbage) fails here (no names: every
  # figure the checker knows).
  for bench in ./fig*; do
    [ -x "$bench" ] || continue
    echo "ci.sh: smoke-running $bench"
    "$bench" >/dev/null
  done
  python3 ../ci/check_bench_json.py
else
  echo "ci.sh: smoke-running ./$LANE_BENCH"
  "./$LANE_BENCH" >/dev/null
  python3 ../ci/check_bench_json.py "$LANE_BENCH"
fi

echo "ci.sh: all checks passed"
