#pragma once
// SIMD fast-path policy layer: which instruction set the row-sweep kernels
// (rt/simd/row_kernels.hpp) run with, and the opt-in leading-dimension
// alignment that makes every (j, k) row start on a vector boundary.
//
// The layer exists because the accessor kernels execute every stencil
// point through scalar-looking load()/store() calls whose index math the
// compiler must rediscover per access; the row kernels hoist the
// i + p1*(j + p2*k) base out of the inner loop and hand the compiler
// contiguous restrict-qualified rows it can vectorize.  Vectorizing
// across I keeps each element's floating-point operation order unchanged,
// so every level below computes *bit-identical* results to the accessor
// kernels (tests/exec_identity_test.cpp asserts it across a shape sweep).
//
// Mode (requested, a CLI-level knob) vs Level (resolved, what actually
// runs):
//   --simd=off   -> kScalar : the serial accessor kernels, the reference;
//                   on a thread pool kRows (exec_level), because the
//                   executor (rt/simd/execute.hpp) only runs row sweeps
//   --simd=auto  -> kAvx2 when the host supports AVX2, else kRows
//   --simd=avx2  -> kAvx2, falling back to kRows off-x86 / pre-AVX2
// kRows is portable C++ (restrict rows + `#pragma omp simd` hint, baseline
// ISA); kAvx2 compiles the same loops in a target("avx2") clone picked at
// run time, plus hand-written intrinsics when built with -DRT_SIMD_AVX2=ON.

#include <string>

#include "rt/array/array3d.hpp"

namespace rt::simd {

/// Requested SIMD behaviour (the --simd= flag).
enum class SimdMode {
  kOff,   ///< accessor kernels (serial); baseline rows on a pool
  kAuto,  ///< best level this host supports
  kAvx2,  ///< force the AVX2 path (falls back to kRows if unsupported)
};

/// Resolved execution level of the row kernels, lowest to highest (a run
/// below its requested level is degraded; see RunResult::degraded()).
enum class SimdLevel {
  kScalar,  ///< the serial accessor kernels, no row sweeps
  kRows,    ///< row sweeps, baseline ISA auto-vectorization
  kAvx2,    ///< row sweeps compiled for AVX2, runtime-dispatched
};

/// Doubles per 64-byte vector register line (AVX-512 width; also the
/// cache-line quantum, so it is the natural alignment unit either way).
inline constexpr long kVecDoubles = 8;

/// True when this CPU executes AVX2 (always false off x86).
bool avx2_supported();

/// Map a requested mode to the level that will actually run on this host.
SimdLevel resolve(SimdMode mode);

/// The level a host run executes at: resolve(mode), except that kOff on
/// more than one thread runs the baseline rows stamp (kRows) — the
/// accessor reference is serial only.  What a run reports as its level.
SimdLevel exec_level(SimdMode mode, bool pooled);

const char* simd_mode_name(SimdMode m);
const char* simd_level_name(SimdLevel l);

/// Parse "off" / "auto" / "avx2" (anything else returns false).
bool parse_simd_mode(const std::string& s, SimdMode* out);

/// Round a leading dimension up to a multiple of the vector width so that
/// consecutive rows keep the same alignment phase (row j+1 starts exactly
/// p1 elements after row j; p1 % kVecDoubles == 0 makes that phase 0).
/// Applied *after* the padding search so it never changes which pad the
/// planner picked, only rounds the allocation up.
long align_leading(long p1, long vec = kVecDoubles);

/// Dims with p1 rounded up via align_leading (p2/n3 untouched).
rt::array::Dims3 align_dims(rt::array::Dims3 d, long vec = kVecDoubles);

}  // namespace rt::simd
