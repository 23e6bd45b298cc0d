#pragma once
// RESID (paper Fig. 13): the residual computation from the SPEC/NAS MGRID
// multigrid benchmark — a full 27-point stencil, r = v - A u, with
// coefficients grouped by neighbour class (centre / face / edge / corner).
// One body over a Box; the paper's tiled form (T2 x T1 on the inner two
// loops) is that body under a tiled plan.

#include <array>

#include "rt/kernels/schedule.hpp"

namespace rt::kernels {

/// Stencil coefficients: a[0] centre, a[1] faces, a[2] edges, a[3] corners.
using ResidCoeffs = std::array<double, 4>;

/// NAS MG "a" coefficient vector (class A/B problems): (-8/3, 0, 1/6, 1/12).
inline ResidCoeffs nas_mg_a() {
  return ResidCoeffs{-8.0 / 3.0, 0.0, 1.0 / 6.0, 1.0 / 12.0};
}

/// The 26 neighbours of u at (i1, i2, i3) summed by class: {faces, edges,
/// corners}, each in a fixed left-associated order (RESID and PSINV share
/// it, and the row sweeps reproduce it bit for bit).
template <class U>
inline std::array<double, 3> neighbour_sums(U& u, long i1, long i2,
                                            long i3) {
  const double s1 = u.load(i1 - 1, i2, i3) + u.load(i1 + 1, i2, i3) +
                    u.load(i1, i2 - 1, i3) + u.load(i1, i2 + 1, i3) +
                    u.load(i1, i2, i3 - 1) + u.load(i1, i2, i3 + 1);
  const double s2 =
      u.load(i1 - 1, i2 - 1, i3) + u.load(i1 + 1, i2 - 1, i3) +
      u.load(i1 - 1, i2 + 1, i3) + u.load(i1 + 1, i2 + 1, i3) +
      u.load(i1, i2 - 1, i3 - 1) + u.load(i1, i2 + 1, i3 - 1) +
      u.load(i1, i2 - 1, i3 + 1) + u.load(i1, i2 + 1, i3 + 1) +
      u.load(i1 - 1, i2, i3 - 1) + u.load(i1 - 1, i2, i3 + 1) +
      u.load(i1 + 1, i2, i3 - 1) + u.load(i1 + 1, i2, i3 + 1);
  const double s3 =
      u.load(i1 - 1, i2 - 1, i3 - 1) + u.load(i1 + 1, i2 - 1, i3 - 1) +
      u.load(i1 - 1, i2 + 1, i3 - 1) + u.load(i1 + 1, i2 + 1, i3 - 1) +
      u.load(i1 - 1, i2 - 1, i3 + 1) + u.load(i1 + 1, i2 - 1, i3 + 1) +
      u.load(i1 - 1, i2 + 1, i3 + 1) + u.load(i1 + 1, i2 + 1, i3 + 1);
  return {s1, s2, s3};
}

/// r = v - A u (paper Fig. 13) over box @p x.
template <class R, class V, class U>
void resid(R& r, V& v, U& u, const ResidCoeffs& a, const Box& x) {
  for (long i3 = x.klo; i3 < x.khi; ++i3) {
    for (long i2 = x.jlo; i2 < x.jhi; ++i2) {
      for (long i1 = x.ilo; i1 < x.ihi; ++i1) {
        const std::array<double, 3> s = neighbour_sums(u, i1, i2, i3);
        r.store(i1, i2, i3,
                v.load(i1, i2, i3) - a[0] * u.load(i1, i2, i3) -
                    a[1] * s[0] - a[2] * s[1] - a[3] * s[2]);
      }
    }
  }
}

/// resid over the interior, block by block under @p plan.
template <class R, class V, class U>
void resid(R& r, V& v, U& u, const ResidCoeffs& a,
           const TilingPlan& plan = {}) {
  for_each_block(plan, interior_of(r),
                 [&](const Box& x) { resid(r, v, u, a, x); });
}

}  // namespace rt::kernels
