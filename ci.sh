#!/usr/bin/env bash
# Tier-1 verification, parameterized for the CI matrix (.github/workflows/ci.yml):
#
#   ./ci.sh [--preset release|sanitize|tsan]
#           [--smoke full|dist|tp|pp|fault|fleet|obs|paged|serve|kernels]
#
#   --preset release   Release build with -Werror (default). Runs the full
#                      test suite, smoke-runs every fig* bench,
#                      table1_features (Table I's live checks) and every
#                      example_* (the execute-mode end-to-end runs of the
#                      four models), and schema-checks the machine-readable
#                      JSON outputs.
#   --preset sanitize  Debug build under ASan+UBSan (halt on first report).
#                      Tests only — the analytic benches add nothing under a
#                      sanitizer but cost minutes.
#   --preset tsan      Debug build under ThreadSanitizer, running only the
#                      genuinely multi-threaded surface: the two-stream
#                      scheduler (dist_overlap_test), the common/parallel.h
#                      worker pool (gemm_test, and data_test, which holds
#                      parallel_for's own tests, a worker's exception
#                      rethrown on the caller among them), and the
#                      execute-mode training and serving steps of
#                      fault_tolerance_test, whose kernel bodies run on
#                      that pool while faults fire. Everything else would
#                      only slow the lane.
#   --smoke full       Everything the preset covers (default).
#   --smoke dist       Data-parallel sync smoke lane: the bucket planner,
#                      overlap and pipelined-update test binaries, and
#                      (release only) fig22_scaling with its schema check
#                      (every overlapped N x 8 row hides some sync).
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
#                      isolation, block-table graph replay) and the
#                      fault-tolerance binary (the KV-cache churn property
#                      over packed steps, the degraded-serving page-write
#                      cases), and (release only) fig_page with its schema
#                      check (>= 4x residents at fixed KV bytes,
#                      prefix-sharing hit rate > 0, kept prefix pages
#                      reused by every later one-at-a-time arrival).
#   --smoke serve      Serving smoke lane: the serving/infer test binary
#                      (bitwise cached decode, the pinned decode-step cost,
#                      chunked prefill inside the packed step, continuous
#                      batching, graph-pool replay), and (release only)
#                      fig_serve with its schema check (continuous batching
#                      >= 1.5x static tokens/s, replay beats eager, every
#                      step of a replayed run replays).
#   --smoke kernels    Kernel-fusion smoke lane: the fused-kernel and layer/
#                      model parity test binaries (element-wise and transform
#                      kernels, the bias-gradient fold, the bias chains as
#                      GEMM epilogues, LayerNorm's dgamma/dbeta fold and
#                      the criterion gradient from its forward launch, each
#                      bitwise the two launches it replaces, the fused
#                      attention core bitwise against its unfused chain,
#                      on head layout and on
#                      projection rows, every system's layer and model
#                      gradients, eager against graph replay bitwise for all
#                      four LightSeq2 models, TP parity, where the epilogues
#                      run at shard width, and the serving tests, whose
#                      pinned decode-step cost counts them), and (release
#                      only) fig_launch_graph with its schema check (replay
#                      wins >= 1.2x at the launch-bound point).
#
# Fails on the first error: a bench or example that exits nonzero, or a
# bench that writes no/invalid JSON, fails the run (ci/check_bench_json.py —
# python3 is required for the release preset, so missing validation can
# never pass silently). The schema check itself prints a verdict for every
# figure before it fails, so one failing figure hides no other.
set -euo pipefail
cd "$(dirname "$0")"

PRESET=release
SMOKE=full
while [ $# -gt 0 ]; do
  case "$1" in
    --preset) PRESET="${2:?ci.sh: --preset needs a value (release|sanitize|tsan)}"; shift 2 ;;
    --smoke) SMOKE="${2:?ci.sh: --smoke needs a value (full|dist|tp|pp|fault|fleet|obs|paged|serve|kernels)}"; shift 2 ;;
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

# Smoke lanes: lane -> "<ctest regex> <fig bench> [<figure>]", the tests it
# runs, the bench it runs and the figure whose JSON it schema-checks (the
# bench's name unless given). "full" runs every test and bench.
declare -A LANES=(
  [dist]="dist_overlap_test|dist_core_test|pipeline_update_test fig22_scaling fig22"
  [tp]="tensor_parallel_test fig_tp"
  [pp]="pipeline_parallel_test fig_3d"
  [fault]="fault_tolerance_test fig_fault"
  [fleet]="fleet_test fig_fleet"
  [obs]="obs_test|trace_test fig_obs"
  [paged]="infer_test|fault_tolerance_test fig_page"
  [serve]="infer_test fig_serve"
  [kernels]="elementwise_test|transform_test|layernorm_test|embedding_criterion_test|attention_test|layers_test|models_test|graph_replay_test|tensor_parallel_test|infer_test fig_launch_graph"
)
LANE_TESTS="" LANE_BENCH="" LANE_FIGURE=""
if [ "$SMOKE" != full ]; then
  [ -n "${LANES[$SMOKE]+x}" ] || { echo "ci.sh: unknown smoke '$SMOKE'" >&2; exit 2; }
  read -r LANE_TESTS LANE_BENCH LANE_FIGURE <<< "${LANES[$SMOKE]}"
  LANE_FIGURE="${LANE_FIGURE:-$LANE_BENCH}"
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
  "${CTEST[@]}" --timeout 600 -R 'dist_overlap_test|gemm_test|data_test|fault_tolerance_test'
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
  # cheap), Table I's live checks and every example (the execute-mode runs
  # of the public API) so none can bit-rot silently, then schema-check the
  # machine-readable outputs perf-trajectory tracking relies on — a bench
  # that silently writes nothing (or garbage) fails here (no names: every
  # figure the checker knows).
  for bench in ./fig* ./table1_features ./example_*; do
    [ -x "$bench" ] || continue
    echo "ci.sh: smoke-running $bench"
    "$bench" >/dev/null
  done
  python3 ../ci/check_bench_json.py
else
  echo "ci.sh: smoke-running ./$LANE_BENCH"
  "./$LANE_BENCH" >/dev/null
  python3 ../ci/check_bench_json.py "$LANE_FIGURE"
fi

echo "ci.sh: all checks passed"
