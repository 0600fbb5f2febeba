#!/usr/bin/env bash
# Canonical verification entry point: configure + build (warnings as errors)
# + full test suite. CI and pre-merge checks run exactly this.
#
#   scripts/check.sh            # build into ./build and run ctest
#   scripts/check.sh --tsan     # ThreadSanitizer build of the sharded
#                               # engine tests (build-tsan/, race checks on
#                               # the concurrent round path)
#   scripts/check.sh --asan     # ASan+UBSan build of the same suite
#                               # (build-asan/, leak/lifetime checks on the
#                               # arena-backed containers: SmallVec spill,
#                               # sample cohorts, token queues, lanes)
#   scripts/check.sh --release  # Release configure (-O3 -DNDEBUG) with
#                               # warnings as errors + the tier-1 suite in
#                               # build-release/: warnings that only fire
#                               # at full optimization (GCC's -Wrestrict
#                               # false positives) fail here, not in a
#                               # user's Release build
#   scripts/check.sh --smoke    # run EVERY registered scenario once at tiny
#                               # n (<= 2k, trials=1) so a scenario that
#                               # crashes or rejects its own spec fails CI,
#                               # not the next person's experiment sweep
#   scripts/check.sh --lint     # shardcheck determinism linter over
#                               # src/ bench/ tests/, cross-checked against
#                               # compile_commands.json so the lint file list
#                               # can never drift from what CMake compiles
#   BUILD_DIR=out scripts/check.sh
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

TSAN=0
ASAN=0
RELEASE=0
SMOKE=0
LINT=0
if [[ "${1:-}" == "--tsan" ]]; then
  TSAN=1
  shift
elif [[ "${1:-}" == "--asan" ]]; then
  ASAN=1
  shift
elif [[ "${1:-}" == "--release" ]]; then
  RELEASE=1
  shift
elif [[ "${1:-}" == "--smoke" ]]; then
  SMOKE=1
  shift
elif [[ "${1:-}" == "--lint" ]]; then
  LINT=1
  shift
fi

GENERATOR_ARGS=()
if command -v ninja >/dev/null 2>&1; then
  GENERATOR_ARGS+=(-G Ninja)
fi

SANITIZED_FILTER='Sharded*:WcScatter*:PerfCounters*:ThreadPool*:Arena*:ShardPlan*:SampleBuffer*:SampleCohorts*:ShardedArrivals*:SmallVec*:Message*:Mixed*:BitCharge*:ChordNet*:HeapSentinel*:HeapQuiesce*'

if [[ "$SMOKE" == "1" ]]; then
  # Scenario smoke: every registered scenario once, tiny spec (n <= 2k,
  # trials=1). Scenario-level regressions (a crash, a spec-validation
  # failure, a scenario that stopped registering) fail here instead of in
  # someone's experiment sweep. Per-scenario overrides keep the expensive
  # defaults (capacity n=100k, soup_step n=16k, storage 20-tau horizons)
  # down at smoke scale.
  BUILD_DIR="${BUILD_DIR:-build}"
  cmake -B "$BUILD_DIR" -S . "${GENERATOR_ARGS[@]}" \
    -DCHURNSTORE_WARNINGS_AS_ERRORS=ON
  cmake --build "$BUILD_DIR" -j "$JOBS" --target bench_driver
  DRIVER="$BUILD_DIR/bench_driver"
  TINY="n=256 trials=1 items=1 searches=3 batches=1 age-taus=0.5"
  SCENARIOS="$("$DRIVER" --list | awk '/^  /{print $1}')"
  [[ -n "$SCENARIOS" ]] || { echo "smoke: no scenarios registered"; exit 1; }
  for sc in $SCENARIOS; do
    EXTRA=""
    case "$sc" in
      capacity)  EXTRA="shard-sweep=1,2 measure-rounds=8" ;;
      chord)     EXTRA="chord=both" ;;
      committee) EXTRA="periods=2" ;;
      mixing)    EXTRA="probes=2000" ;;
      soup)      EXTRA="probes=4" ;;
      soup_step) EXTRA="steps=8 shard-sweep=1,2 counters=true" ;;
      storage)   EXTRA="horizon-taus=2" ;;
      survival)  EXTRA="probes=4" ;;
      churn_limit) EXTRA="steps=2" ;;
    esac
    echo "== smoke: $sc $TINY $EXTRA"
    # shellcheck disable=SC2086
    "$DRIVER" --scenario="$sc" $TINY $EXTRA >/dev/null
  done
  # Observability smoke: the chord scenario with both exporters. Every
  # emitted file must parse — jsonl line by line, the chrome trace as one
  # JSON document (the Perfetto-loadability floor).
  OBS_DIR="$(mktemp -d)"
  trap 'rm -rf "$OBS_DIR"' EXIT
  echo "== smoke: chord $TINY obs=jsonl (and obs=chrome) -> $OBS_DIR"
  # shellcheck disable=SC2086
  "$DRIVER" --scenario=chord $TINY \
    obs=jsonl obs-file="$OBS_DIR/obs.jsonl" trace-sample=1 >/dev/null
  # shellcheck disable=SC2086
  "$DRIVER" --scenario=chord $TINY \
    obs=chrome obs-file="$OBS_DIR/obs_trace.json" >/dev/null
  python3 - "$OBS_DIR" <<'PYEOF'
import glob, json, sys
obs_dir = sys.argv[1]
jsonl = glob.glob(obs_dir + "/obs.*.jsonl")
chrome = glob.glob(obs_dir + "/obs_trace.*.json")
assert jsonl, "obs=jsonl produced no files"
assert chrome, "obs=chrome produced no files"
for path in jsonl:
    summaries = 0
    with open(path) as f:
        for i, line in enumerate(f):
            obj = json.loads(line)  # every line must be valid JSON
            summaries += 1 if obj.get("summary") else 0
    assert summaries == 1, f"{path}: expected exactly one summary line"
for path in chrome:
    with open(path) as f:
        doc = json.load(f)  # the whole file must be one JSON document
    events = doc["traceEvents"]
    assert events, f"{path}: empty traceEvents"
    assert all("ph" in e for e in events), f"{path}: event without ph"
print(f"obs smoke: {len(jsonl)} jsonl + {len(chrome)} chrome files parse")
PYEOF
  echo
  echo "check.sh --smoke: every registered scenario ran at tiny n"
  exit 0
fi

if [[ "$LINT" == "1" ]]; then
  # shardcheck: static enforcement of the ShardContext determinism contract
  # (rule catalog in tools/shardcheck/shardcheck.h, rationale in README).
  # The scan is cross-checked against compile_commands.json: if the CMake
  # glob and the lint walk ever disagree about which .cpp files exist, the
  # run fails instead of silently skipping the new file.
  BUILD_DIR="${BUILD_DIR:-build}"
  cmake -B "$BUILD_DIR" -S . "${GENERATOR_ARGS[@]}" \
    -DCHURNSTORE_WARNINGS_AS_ERRORS=ON -DCMAKE_EXPORT_COMPILE_COMMANDS=ON
  cmake --build "$BUILD_DIR" -j "$JOBS" --target shardcheck
  "$BUILD_DIR"/shardcheck --root=. \
    --compile-commands="$BUILD_DIR"/compile_commands.json src bench tests
  echo
  echo "check.sh --lint: shardcheck clean (0 unsuppressed diagnostics)"
  exit 0
fi

if [[ "$RELEASE" == "1" ]]; then
  # Release + -Werror: the default build type is RelWithDebInfo (-O2), so
  # diagnostics that need -O3 inlining to fire are only caught here.
  BUILD_DIR="${BUILD_DIR:-build-release}"
  cmake -B "$BUILD_DIR" -S . "${GENERATOR_ARGS[@]}" \
    -DCMAKE_BUILD_TYPE=Release -DCHURNSTORE_WARNINGS_AS_ERRORS=ON
  cmake --build "$BUILD_DIR" -j "$JOBS"
  ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS"
  echo
  echo "check.sh --release: Release build (warnings as errors) + tests green"
  exit 0
fi

if [[ "$ASAN" == "1" ]]; then
  # ASan+UBSan build: every arena-backed container (SmallVec message
  # words/blobs, sample cohort blocks, token queues, outbox lanes) is
  # exercised by the sharded suite; leaks (blocks that never return to
  # their arena) and lifetime/UB bugs fail the run.
  BUILD_DIR="${BUILD_DIR:-build-asan}"
  cmake -B "$BUILD_DIR" -S . "${GENERATOR_ARGS[@]}" \
    -DCHURNSTORE_WARNINGS_AS_ERRORS=ON -DCHURNSTORE_ASAN=ON
  cmake --build "$BUILD_DIR" -j "$JOBS" --target churnstore_tests
  ASAN_OPTIONS="detect_leaks=1:halt_on_error=1" \
  UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
    "$BUILD_DIR"/churnstore_tests --gtest_filter="$SANITIZED_FILTER"
  echo
  echo "check.sh --asan: arena-backed containers leak/UB-free"
  exit 0
fi

if [[ "$TSAN" == "1" ]]; then
  # TSan build: only the concurrency-sensitive tests are worth the ~10x
  # slowdown — the sharded engine suite drives every protocol's round path
  # and the message dispatch across a real ThreadPool.
  BUILD_DIR="${BUILD_DIR:-build-tsan}"
  cmake -B "$BUILD_DIR" -S . "${GENERATOR_ARGS[@]}" \
    -DCHURNSTORE_WARNINGS_AS_ERRORS=ON -DCHURNSTORE_TSAN=ON
  cmake --build "$BUILD_DIR" -j "$JOBS" --target churnstore_tests
  TSAN_OPTIONS="halt_on_error=1" \
    "$BUILD_DIR"/churnstore_tests --gtest_filter="$SANITIZED_FILTER"
  echo
  echo "check.sh --tsan: sharded engine race-free"
  exit 0
fi

BUILD_DIR="${BUILD_DIR:-build}"
cmake -B "$BUILD_DIR" -S . "${GENERATOR_ARGS[@]}" \
  -DCHURNSTORE_WARNINGS_AS_ERRORS=ON
cmake --build "$BUILD_DIR" -j "$JOBS"
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS"

echo
echo "check.sh: build + tests green"
