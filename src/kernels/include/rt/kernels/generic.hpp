#pragma once
// Generic stencil engine: execute any rt::core::StencilDesc under any
// TilingPlan (one body over a Box, walked by rt/kernels/schedule.hpp).
// This is the library's "apply what the planner planned" path for
// user-defined stencils (see examples/custom_stencil.cpp); the hand-written
// kernels in this directory remain for the paper's exact loop nests and
// for performance.

#include <algorithm>

#include "rt/core/stencil_desc.hpp"
#include "rt/kernels/schedule.hpp"

namespace rt::kernels {

/// out(i,j,k) = sum_q w_q * in(i+di_q, j+dj_q, k+dk_q) over box @p x.
template <class Dst, class Src>
void apply_stencil(Dst& out, Src& in, const rt::core::StencilDesc& d,
                   const Box& x) {
  for (long k = x.klo; k < x.khi; ++k) {
    for (long j = x.jlo; j < x.jhi; ++j) {
      for (long i = x.ilo; i < x.ihi; ++i) {
        double acc = 0.0;
        for (const auto& p : d.points) {
          acc += p.w * in.load(i + p.di, j + p.dj, k + p.dk);
        }
        out.store(i, j, k, acc);
      }
    }
  }
}

/// apply_stencil over the interior — margins sized by the stencil's own
/// reach — block by block under @p plan (a tiled plan gives the paper's
/// Fig. 6 structure).
template <class Dst, class Src>
void apply_stencil(Dst& out, Src& in, const rt::core::StencilDesc& d,
                   const TilingPlan& plan = {}) {
  int r1 = 0, r2 = 0, r3 = 0;
  for (const auto& p : d.points) {
    r1 = std::max({r1, p.di, -p.di});
    r2 = std::max({r2, p.dj, -p.dj});
    r3 = std::max({r3, p.dk, -p.dk});
  }
  const Box interior{r1, out.n1() - r1, r2, out.n2() - r2, r3, out.n3() - r3};
  for_each_block(plan, interior,
                 [&](const Box& x) { apply_stencil(out, in, d, x); });
}

}  // namespace rt::kernels
