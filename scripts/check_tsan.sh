#!/usr/bin/env bash
# ThreadSanitizer gate for the rt::par, rt::simd and rt::obs subsystems:
# configure a separate build tree with -DRT_SANITIZE=thread, build the
# thread-pool, executor-identity and observability tests, and run them
# under TSan (obs_test drives phase timers and perf counters from inside
# rt::par workers).  Any reported race fails the script (TSan exits nonzero
# on findings; halt_on_error makes the first one fatal).  Registered as a
# CTest test under the "sanitize" label:
#   ctest -L sanitize
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build-tsan}"

GEN_FLAG=()
if command -v ninja >/dev/null 2>&1; then
  GEN_FLAG=(-G Ninja)
fi

cmake -B "${BUILD_DIR}" -S . "${GEN_FLAG[@]}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DRT_SANITIZE=thread \
  -DRT_BUILD_BENCH=ON -DRT_BUILD_EXAMPLES=OFF
cmake --build "${BUILD_DIR}" -j \
  --target par_pool_test exec_identity_test plan_cache_test \
           core_backend_test mg_fastpath_test obs_test temporal_test \
           tune_test serve_test resil_test bench_chaos_soak

export TSAN_OPTIONS="halt_on_error=1 ${TSAN_OPTIONS:-}"
"${BUILD_DIR}/tests/par_pool_test"
# Every stencil x schedule x thread count through the executor's pool.
"${BUILD_DIR}/tests/exec_identity_test"
"${BUILD_DIR}/tests/plan_cache_test"
# The backend registry is a process-wide singleton read from every planning
# thread; the driver suite exercises registration + concurrent lookup paths.
"${BUILD_DIR}/tests/core_backend_test"
"${BUILD_DIR}/tests/mg_fastpath_test"
"${BUILD_DIR}/tests/obs_test"
"${BUILD_DIR}/tests/temporal_test"
"${BUILD_DIR}/tests/tune_test"
# The serve suite runs a real multi-threaded server (acceptor + handlers +
# executors + watchdog abandonment) end to end — the strongest race check
# in the tree.
"${BUILD_DIR}/tests/serve_test"
# The resilience layer: retrying client + supervisor respawn + breaker.
"${BUILD_DIR}/tests/resil_test"
# Short deterministic chaos soak: fault storms against a live server with
# supervisor respawn and reconnecting clients — the full concurrency story
# under injected failure, with invariants checked.
"${BUILD_DIR}/bench/bench_chaos_soak"
echo "TSan clean: par_pool_test + exec_identity_test" \
     "+ plan_cache_test + core_backend_test" \
     "+ mg_fastpath_test + obs_test + temporal_test + tune_test" \
     "+ serve_test + resil_test + bench_chaos_soak reported no races."
