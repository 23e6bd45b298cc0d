#!/usr/bin/env bash
# Address+UndefinedBehavior sanitizer gate for the rt::guard robustness
# layer: configure a separate build tree with -DRT_SANITIZE=address,undefined
# and run the tests that exercise the failure paths — injected bad_alloc
# unwinding through Array3D construction, watchdog worker-thread lifetimes,
# the overflow-checked size computations, and the planner's negative paths.
# ASan catches leaks and lifetime bugs on those paths; UBSan catches any
# signed overflow the checked size math is supposed to make impossible.
# Registered as a CTest test under the "sanitize" label:
#   ctest -L sanitize
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build-asan}"

GEN_FLAG=()
if command -v ninja >/dev/null 2>&1; then
  GEN_FLAG=(-G Ninja)
fi

cmake -B "${BUILD_DIR}" -S . "${GEN_FLAG[@]}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DRT_SANITIZE=address,undefined \
  -DRT_BUILD_BENCH=ON -DRT_BUILD_EXAMPLES=OFF
cmake --build "${BUILD_DIR}" -j \
  --target guard_test guard_fault_injection_test array_test core_plan_test \
           core_backend_test cachesim_lattice_test plan_cache_test \
           exec_identity_test mg_fastpath_test temporal_test tune_test \
           serve_test resil_test \
           bench_chaos_soak

# halt_on_error turns the first finding into a hard failure.  Abandonment
# tests deliberately detach a wedged worker, but always wait for it to
# finish (guard_test sleeps past the grace; serve_test polls
# abandoned_in_flight down to zero) before the process exits, so leak
# detection stays meaningful.
export ASAN_OPTIONS="halt_on_error=1 detect_leaks=1 ${ASAN_OPTIONS:-}"
export UBSAN_OPTIONS="halt_on_error=1 print_stacktrace=1 ${UBSAN_OPTIONS:-}"
"${BUILD_DIR}/tests/guard_test"
"${BUILD_DIR}/tests/guard_fault_injection_test"
"${BUILD_DIR}/tests/array_test"
"${BUILD_DIR}/tests/core_plan_test"
# Backend driver negative paths (overflow gate, fallback restore, unknown
# backend) plus the lattice occupancy math cross-checked against the cache
# simulator — the new planner code's failure paths under ASan+UBSan.
"${BUILD_DIR}/tests/core_backend_test"
"${BUILD_DIR}/tests/cachesim_lattice_test"
"${BUILD_DIR}/tests/plan_cache_test"
# The executor's block arithmetic (clipped edge tiles, padded strides,
# degenerate tiles) over every stencil's raw-pointer row sweeps.
"${BUILD_DIR}/tests/exec_identity_test"
"${BUILD_DIR}/tests/mg_fastpath_test"
"${BUILD_DIR}/tests/temporal_test"
"${BUILD_DIR}/tests/tune_test"
"${BUILD_DIR}/tests/serve_test"
"${BUILD_DIR}/tests/resil_test"
# Short deterministic chaos soak: torn frames, short writes, wedged
# executors and a failed fsync, with every lifetime on the failure paths
# under ASan (respawned executors, abandoned workers, reconnecting
# clients) and the invariants checked.
"${BUILD_DIR}/bench/bench_chaos_soak"
echo "ASan+UBSan clean: guard_test + guard_fault_injection_test +" \
     "array_test + core_plan_test + core_backend_test" \
     "+ cachesim_lattice_test + plan_cache_test + exec_identity_test" \
     "+ mg_fastpath_test" \
     "+ temporal_test + tune_test + serve_test + resil_test" \
     "+ bench_chaos_soak reported no findings."
