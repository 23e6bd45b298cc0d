#pragma once
// The serial block walker: one place that turns a TilingPlan's loop
// schedule into the order a stencil body visits the interior.
//
// Every stencil in this library is one body over a Box of the interior;
// the schedule is applied from outside, as in the paper, where the tiled
// nests of Fig. 6 (JACOBI) and Fig. 13 (RESID) run the original point
// update and only strip-mine J and I, leaving K untiled.  PCOT's recursive
// decomposition and Malas et al.'s split between the tile decomposition
// and the per-tile body frame tiling the same way.  for_each_block()
// drives the accessor kernels (native and trace-driven) and the serial
// path of the host executor (rt/simd/execute.hpp):
//   flat       body(interior) once;
//   tiled      the JI tile grid, jj-outer / ii-inner, each tile sweeping
//              the full K extent;
//   recursive  the leaves of a cache-oblivious bisection of (I, J) down to
//              the plan's base tile, in recursion order, K untiled.  No
//              cache parameter is consulted: every level of the recursion
//              fits some cache level.
// A plan that is not tiled, or whose tile has an extent below 1, runs flat.
//
// Bit-identity: within one sweep (one colour, for red-black) every point
// update is independent of the others, so any order of disjoint blocks
// computes exactly what the flat nest computes.  The order still matters
// to the simulated cache, which is the point of tiling.

#include <algorithm>
#include <utility>

#include "rt/core/cost.hpp"
#include "rt/core/plan.hpp"

namespace rt::kernels {

using rt::core::IterTile;
using rt::core::LoopSchedule;
using rt::core::TilingPlan;

/// Sub-box [ilo,ihi) x [jlo,jhi) x [klo,khi) of a grid's index space.  An
/// empty range in any dimension holds no point.
struct Box {
  long ilo, ihi, jlo, jhi, klo, khi;
  bool empty() const { return ilo >= ihi || jlo >= jhi || klo >= khi; }
};

/// The interior of a grid with one boundary layer in every dimension.
template <class A>
Box interior_of(const A& a) {
  return Box{1, a.n1() - 1, 1, a.n2() - 1, 1, a.n3() - 1};
}

/// True when @p plan walks blocks: tiled, with a tile of extent >= 1.
inline bool walks_blocks(const TilingPlan& plan) {
  return plan.tiled && plan.tile.ti >= 1 && plan.tile.tj >= 1;
}

/// A plan that tiles J and I by @p t in the paper's tiled order.
inline TilingPlan tiled_plan(IterTile t) {
  TilingPlan p;
  p.tiled = true;
  p.tile = t;
  p.schedule = LoopSchedule::kTiled;
  return p;
}

namespace detail {

/// Recursive bisection of [ilo, ihi) x [jlo, jhi): split whichever
/// dimension overshoots its base extent by the larger factor, stop when
/// both fit, and hand the leaf to body(ilo, ihi, jlo, jhi).  Depth is
/// O(log(N / base)); the base extents must be >= 1.
template <class Body>
void co_over(long ilo, long ihi, long jlo, long jhi, long base_ti,
             long base_tj, Body&& body) {
  const long ni = ihi - ilo;
  const long nj = jhi - jlo;
  if (ni <= 0 || nj <= 0) return;
  if (ni <= base_ti && nj <= base_tj) {
    body(ilo, ihi, jlo, jhi);
    return;
  }
  // ni/base_ti >= nj/base_tj, cross-multiplied to stay in integers.
  if (ni * base_tj >= nj * base_ti) {
    const long mid = ilo + ni / 2;
    co_over(ilo, mid, jlo, jhi, base_ti, base_tj, body);
    co_over(mid, ihi, jlo, jhi, base_ti, base_tj, std::forward<Body>(body));
  } else {
    const long mid = jlo + nj / 2;
    co_over(ilo, ihi, jlo, mid, base_ti, base_tj, body);
    co_over(ilo, ihi, mid, jhi, base_ti, base_tj, std::forward<Body>(body));
  }
}

}  // namespace detail

/// Call body(Box) for every block of @p plan's schedule over @p interior,
/// serially, in schedule order.  An empty interior calls nothing.
template <class Body>
void for_each_block(const TilingPlan& plan, const Box& interior,
                    Body&& body) {
  if (interior.empty()) return;
  if (!walks_blocks(plan)) {
    body(interior);
    return;
  }
  const IterTile t = plan.tile;
  const Box& in = interior;
  if (plan.schedule == LoopSchedule::kRecursive) {
    detail::co_over(in.ilo, in.ihi, in.jlo, in.jhi, t.ti, t.tj,
                    [&](long ilo, long ihi, long jlo, long jhi) {
                      body(Box{ilo, ihi, jlo, jhi, in.klo, in.khi});
                    });
    return;
  }
  for (long jj = in.jlo; jj < in.jhi; jj += t.tj) {
    const long jhi = std::min(jj + t.tj, in.jhi);
    for (long ii = in.ilo; ii < in.ihi; ii += t.ti) {
      body(Box{ii, std::min(ii + t.ti, in.ihi), jj, jhi, in.klo, in.khi});
    }
  }
}

}  // namespace rt::kernels
