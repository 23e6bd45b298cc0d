#pragma once
// First-class temporal-blocking executors: the multi-core wavefront
// schedules that run a TemporalPlan (rt/core/temporal.hpp) over the
// SIMD row sweeps (rt/simd/row_kernels.hpp).
//
// Both executors compute exactly jacobi3d_pingpong(a, b, c, tsteps) —
// every plane's step-t update is a pure function of step-(t-1) values, and
// each element is written once per step, so any schedule that (1) covers
// each (plane, step) exactly once and (2) never lets a step-t write land
// before every step-(t+1) read of the step-(t-1) value it replaces is
// bit-identical to the serial reference for every thread count, team
// shape and SimdLevel (asserted by tests/temporal_test.cpp).
//
//  * jacobi3d_skew_rows — the slope-1 skew of rt::kernels::
//    jacobi3d_timeskew: the same (block, step) stages from the same
//    generator (rt::kernels::for_each_skew_stage), each stage's planes
//    parallel on a ThreadPool, with the inner (j, k)-row sweeps vectorised
//    through rt::simd::jacobi_sweep.
//  * jacobi3d_diamond_rows — the Malas-style two-phase diamond: phase 1
//    runs per-block descending triangles concurrently with NO inter-team
//    synchronisation (blocks only touch their own planes), phase 2 fills
//    the inverted boundary triangles, again team-concurrent because the
//    diamond width W >= 2*tb keeps concurrent triangles plane-disjoint.
//    Each diamond is owned by a team of `plan.team` threads that splits
//    the J range and shares the cache-resident plane window; teams only
//    meet at the two global phase barriers per time chunk.
//
// Thread-spawn failures (real, or injected via RT_GUARD_FAULTS=thread)
// degrade the diamond to however many threads actually started — the
// TemporalRun return reports the width actually used so callers can
// route the run into a recorded skipped row instead of presenting a
// degraded measurement as the requested configuration.

#include "rt/array/array3d.hpp"
#include "rt/core/temporal.hpp"
#include "rt/par/thread_pool.hpp"
#include "rt/simd/simd.hpp"

namespace rt::temporal {

/// What a temporal executor actually ran with (vs. what the plan asked).
struct TemporalRun {
  int threads = 1;  ///< execution width actually used
  int team = 1;     ///< threads per diamond team actually used
};

/// Slope-1 skewed wavefront: plan.tsteps ping-pong Jacobi steps with
/// K-block depth plan.bk, planes of each stage parallel on @p pool
/// (nullptr or a 1-thread pool = serial).  b holds step 0; step s writes
/// (s even ? a : b), like jacobi3d_pingpong.
TemporalRun jacobi3d_skew_rows(rt::par::ThreadPool* pool,
                               rt::array::Array3D<double>& a,
                               rt::array::Array3D<double>& b, double c,
                               const rt::core::TemporalPlan& plan,
                               rt::simd::SimdLevel lvl);

/// Two-phase diamond wavefront: plan.tsteps steps in chunks of plan.tb,
/// diamond width plan.bk, plan.threads total threads in teams of
/// plan.team.  Spawns its own thread set per call (the per-team barrier
/// pattern does not fit ThreadPool's flat parallel_for); spawn failure
/// degrades gracefully and is reported in the returned TemporalRun.
TemporalRun jacobi3d_diamond_rows(rt::array::Array3D<double>& a,
                                  rt::array::Array3D<double>& b, double c,
                                  const rt::core::TemporalPlan& plan,
                                  rt::simd::SimdLevel lvl);

/// First-touch placement matching the PR-5 solver init: zero @p g
/// plane-parallel on @p pool so each page's NUMA home is a thread that
/// will sweep that K range; serial std::fill when @p pool is null.
void first_touch_zero(rt::par::ThreadPool* pool,
                      rt::array::Array3D<double>& g);

}  // namespace rt::temporal
