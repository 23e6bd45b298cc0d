#pragma once
// The host executor: one schedule walker for every stencil.
//
// execute() walks a TilingPlan's loop schedule over the interior of the
// grid a sweep writes and calls a per-block body — in practice one of the
// row sweeps of rt/simd/row_kernels.hpp — once per block:
//   flat       the whole interior box when serial; one K plane per work
//              item on a pool;
//   tiled      the JI tile grid, jj-outer / ii-inner, each tile sweeping the
//              full K extent (the paper keeps K untiled);
//   recursive  the base-tile grid: the block set the cache-oblivious
//              recursion bottoms out at, walked like the tiled schedule.
// A plan that is not tiled, or whose tile has an extent below 1, runs flat.
// The tile decomposition is thus separate from the per-tile row body, the
// split Malas et al. describe for memory-starved stencils.
//
// Bit-identity: blocks write disjoint (i, j) columns or disjoint K planes
// of the output, every read is of data no concurrent block writes, and
// ThreadPool::parallel_for is a barrier.  Red-black calls execute() once
// per colour, so every red update completes before any black one starts
// (within one colour no update reads a same-colour value).  Together with
// the row sweeps' own identity to the accessor kernels, every schedule,
// thread count and SimdLevel reproduces the serial accessor reference bit
// for bit (tests/exec_identity_test.cpp).
//
// The accessor templates (rt::kernels, rt::multigrid) stay the serial
// reference: trace-driven simulation runs them (TracedArray3D mutates a
// shared cache model on every access, so it cannot run blocks
// concurrently), and so does SimdLevel::kScalar on one thread.

#include <algorithm>

#include "rt/core/plan.hpp"
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
  const long ihi = out.n1() - 1, jhi = out.n2() - 1, khi = out.n3() - 1;
  if (ihi <= 1 || jhi <= 1 || khi <= 1) return;  // no interior
  const bool par = pol.pool != nullptr && pol.pool->num_threads() > 1;
  const rt::core::IterTile t = plan.tile;
  if (!plan.tiled || t.ti < 1 || t.tj < 1) {
    if (!par) {
      body(Box{1, ihi, 1, jhi, 1, khi});
      return;
    }
    pol.pool->parallel_for(khi - 1, [&](long kk) {
      body(Box{1, ihi, 1, jhi, kk + 1, kk + 2});
    });
    return;
  }
  const long nti = (ihi - 2 + t.ti) / t.ti;  // ceil((ihi - 1) / ti)
  const long ntj = (jhi - 2 + t.tj) / t.tj;
  const auto tile = [&](long idx) {
    const long jj = 1 + (idx / nti) * t.tj;
    const long ii = 1 + (idx % nti) * t.ti;
    body(Box{ii, std::min(ii + t.ti, ihi), jj, std::min(jj + t.tj, jhi), 1,
             khi});
  };
  if (par) {
    pol.pool->parallel_for(nti * ntj, tile);
  } else {
    for (long idx = 0; idx < nti * ntj; ++idx) tile(idx);
  }
}

}  // namespace rt::simd
