#pragma once
// The host executor: one schedule walker for every stencil.
//
// execute() walks a TilingPlan's loop schedule over the interior of the
// grid a sweep writes and calls a per-block body — in practice one of the
// row sweeps of rt/simd/row_kernels.hpp — once per block.  Serially it is
// rt::kernels::for_each_block (rt/kernels/schedule.hpp), the same walker
// the accessor kernels run under: flat = the whole interior box; tiled =
// the JI tile grid, jj-outer / ii-inner, each tile sweeping the full K
// extent (the paper keeps K untiled); recursive = the leaves of the
// cache-oblivious bisection down to the plan's base tile.  On a pool,
// flat hands out one K plane per work item, and tiled and recursive plans
// both hand out the base-tile grid by tile index.  A plan that is not
// tiled, or whose tile has an extent below 1, runs flat.  The tile
// decomposition is thus separate from the per-tile row body, the split
// Malas et al. describe for memory-starved stencils.
//
// Bit-identity: blocks write disjoint (i, j) columns or disjoint K planes
// of the output, every read is of data no concurrent block writes, and
// ThreadPool::parallel_for is a barrier.  Red-black calls execute() once
// per colour, so every red update completes before any black one starts
// (within one colour no update reads a same-colour value).  Together with
// the row sweeps' own identity to the accessor kernels, every schedule,
// thread count and SimdLevel reproduces the flat serial accessor nest bit
// for bit (tests/exec_identity_test.cpp).
//
// The accessor templates (rt::kernels, rt::multigrid) stay the serial
// reference: trace-driven simulation runs them (TracedArray3D mutates a
// shared cache model on every access, so it cannot run blocks
// concurrently), and so does SimdLevel::kScalar on one thread.

#include <algorithm>

#include "rt/core/plan.hpp"
#include "rt/kernels/schedule.hpp"
#include "rt/par/thread_pool.hpp"
#include "rt/simd/row_kernels.hpp"

namespace rt::simd {

/// Where and how a sweep runs: on @p pool (null or one thread = serially
/// on the caller) at row level @p lvl.
struct ExecPolicy {
  rt::par::ThreadPool* pool = nullptr;
  SimdLevel lvl = SimdLevel::kRows;
};

/// Call body(Box) for every block of @p plan's schedule over the interior
/// of @p out (the grid the body writes).  Returns after every block ran.
template <class Body>
void execute(const ExecPolicy& pol, const rt::core::TilingPlan& plan,
             const Array3D<double>& out, Body&& body) {
  const Box in = rt::kernels::interior_of(out);
  if (pol.pool == nullptr || pol.pool->num_threads() <= 1) {
    rt::kernels::for_each_block(plan, in, body);
    return;
  }
  if (in.empty()) return;
  if (!rt::kernels::walks_blocks(plan)) {
    pol.pool->parallel_for(in.khi - in.klo, [&](long kk) {
      body(Box{in.ilo, in.ihi, in.jlo, in.jhi, in.klo + kk, in.klo + kk + 1});
    });
    return;
  }
  const rt::core::IterTile t = plan.tile;
  const long nti = (in.ihi - in.ilo + t.ti - 1) / t.ti;
  const long ntj = (in.jhi - in.jlo + t.tj - 1) / t.tj;
  pol.pool->parallel_for(nti * ntj, [&](long idx) {
    const long jj = in.jlo + (idx / nti) * t.tj;
    const long ii = in.ilo + (idx % nti) * t.ti;
    body(Box{ii, std::min(ii + t.ti, in.ihi), jj, std::min(jj + t.tj, in.jhi),
             in.klo, in.khi});
  });
}

}  // namespace rt::simd
