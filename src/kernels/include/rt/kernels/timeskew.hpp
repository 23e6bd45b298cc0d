#pragma once
// Time-skewed 3D Jacobi (the paper's future-work direction, Section 2.1:
// Song & Li / Wonnacott exploit reuse across *time-step* iterations, which
// plain JI-tiling cannot).  This is the "simplified stencil code" of
// Fig. 5 (top): a time loop around a single sweep with ping-pong arrays.
//
// Blocking scheme: plane p's step-t update is executed by the K-block
// containing p + t (slope-1 skew).  Within a block, steps run in order;
// blocks run in ascending K.  Correctness relies on double buffering:
//   * plane k's step-t update reads step-(t-1) values of planes k-1..k+1;
//   * plane k+1 step t-1 is computed earlier in the same block;
//   * plane k-1 step t-1 is computed by an earlier block (or this one) and
//     its next overwrite (step t+1, same parity) happens later in this
//     block — so the read always sees the right version.
//
// After `tsteps` steps the ping-pong arrays hold exactly the same values
// as `tsteps` alternating calls to jacobi3d (tests assert bitwise
// equality).  Reuse: each block keeps ~BK planes live across all tsteps
// sweeps, so cache traffic drops by ~tsteps when BK planes fit in cache.

#include <algorithm>

#include "rt/kernels/jacobi3d.hpp"

namespace rt::kernels {

/// The skew's stages in execution order: for every K block kb (ascending)
/// and step t, fn(t, lo, hi) over the planes lo..hi (inclusive) that step
/// t updates in that block; empty stages are skipped.  @p n3 is the grid's
/// K extent, @p bk the block depth (values < 1 are clamped to 1: bk <= 0
/// would never advance the block loop).
template <class Fn>
void for_each_skew_stage(long n3, int tsteps, long bk, Fn&& fn) {
  if (tsteps <= 0) return;
  bk = std::max(bk, 1L);
  for (long kb = 1; kb < (n3 - 2) + tsteps; kb += bk) {
    for (int t = 0; t < tsteps; ++t) {
      const long lo = std::max(1L, kb - t);
      const long hi = std::min(n3 - 2, kb + bk - 1 - t);
      if (lo <= hi) fn(t, lo, hi);
    }
  }
}

/// @param a,b  ping-pong arrays; `b` holds the initial state (step 0)
/// @param tsteps  number of sweeps (<= 0 is a no-op); step s writes
///                (s even ? a : b)
/// @param bk  K-block size (planes per block)
template <class Arr>
void jacobi3d_timeskew(Arr& a, Arr& b, double c, int tsteps, long bk) {
  for_each_skew_stage(a.n3(), tsteps, bk, [&](int t, long lo, long hi) {
    Box x = interior_of(a);
    x.klo = lo;
    x.khi = hi + 1;
    if (t % 2 == 0) {
      jacobi3d(a, b, c, x);
    } else {
      jacobi3d(b, a, c, x);
    }
  });
}

/// Reference: tsteps alternating whole-array sweeps (what time skewing
/// must reproduce bitwise).
template <class Arr>
void jacobi3d_pingpong(Arr& a, Arr& b, double c, int tsteps) {
  for (int t = 0; t < tsteps; ++t) {
    if (t % 2 == 0) {
      jacobi3d(a, b, c);
    } else {
      jacobi3d(b, a, c);
    }
  }
}

}  // namespace rt::kernels
