#!/usr/bin/env bash
# Sanitized verification flow for the fault-tolerant evaluation subsystem.
#
# Builds the ASan+UBSan and TSan trees (CMakePresets: asan / tsan) and runs
# the dse / kriging / serve / util test subset under each, plus the
# SIMD kernels, linalg, the kriging property sweeps and the policy
# invariants, and the simulator kernels' tests (fixedpoint, signal, video,
# nn, core benchmarks) — all of whose hot loops index raw buffers (the
# SIMD kernels read padded-stride columns). The test_linalg_*,
# test_kriging_* and test_video_int binaries also run the test oracles of
# tests/support (ace_test_support). TSan specifically covers the
# concurrent surfaces: evaluate_batch on a pool, two threads refitting one
# policy, the collecting thread pool, the fault-injection counters and the
# session service's threads.
# Each binary's wall time is printed after it.
#
# Usage: tools/run_sanitizers.sh [address|thread|all]   (default: all)
set -euo pipefail

cd "$(dirname "$0")/.."
flavours="${1:-all}"

# The distinct executables of the tests ctest registers in build tree $1.
live_test_binaries() {
  ctest --test-dir "$1" --show-only=json-v1 | python3 -c '
import json, sys
tests = json.load(sys.stdin)["tests"]
print("\n".join(sorted({t["command"][0] for t in tests if t.get("command")})))'
}

run_flavour() {
  preset="$1"
  echo "=== [$preset] configure + build ==="
  cmake --preset "$preset"
  cmake --build --preset "$preset" -j "$(nproc)"
  echo "=== [$preset] dse/kriging/serve/util + kernel test subset ==="
  # Run the gtest binaries directly: binary names carry the subsystem
  # prefix (ctest registers individual suite.case names, which don't).
  # The binaries come from the tests ctest still registers in the tree, so
  # a stale binary that a deleted test left behind never runs.
  bins="$(live_test_binaries "build-$preset")"
  for bin in $bins; do
    case "$(basename "$bin")" in
      test_util_* | test_dse_* | test_serve_* | test_kriging_* | \
        test_simd_* | test_property_* | test_policy_* | test_linalg_* | \
        test_fixedpoint | test_signal_* | test_video* | test_nn | \
        test_core_benchmarks) ;;
      *) continue ;;
    esac
    echo "--- $bin"
    TIMEFORMAT="--- $bin: %R s"
    time "$bin" --gtest_brief=1
  done
}

case "$flavours" in
  address) run_flavour asan ;;
  thread) run_flavour tsan ;;
  all)
    run_flavour asan
    run_flavour tsan
    ;;
  *)
    echo "usage: $0 [address|thread|all]" >&2
    exit 2
    ;;
esac
echo "sanitizer runs clean"
