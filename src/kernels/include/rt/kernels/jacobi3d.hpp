#pragma once
// 3D Jacobi iteration (paper Figs. 3 and 6): the 6-point stencil and the
// copy-back loop that makes it a "realistic" stencil code (Fig. 5,
// middle).
//
// Kernels are templates over an accessor type providing
//   long n1()/n2()/n3();  T load(i,j,k);  void store(i,j,k,v);
// satisfied by rt::array::Array3D (native) and
// rt::cachesim::TracedArray3D (trace-driven simulation).
// All indices are 0-based; the interior is 1..n-2 in every dimension
// (Fortran's 2..N-1).  Each stencil is one body over a Box; the overload
// taking a TilingPlan runs it per block of the plan's schedule
// (rt/kernels/schedule.hpp), so the paper's tiled nest of Fig. 6 is the
// body under a tiled plan.

#include "rt/kernels/schedule.hpp"

namespace rt::kernels {

/// A(i,j,k) = c * sum of B's six face neighbours over box @p x.
template <class Dst, class Src>
void jacobi3d(Dst& a, Src& b, double c, const Box& x) {
  for (long k = x.klo; k < x.khi; ++k) {
    for (long j = x.jlo; j < x.jhi; ++j) {
      for (long i = x.ilo; i < x.ihi; ++i) {
        a.store(i, j, k,
                c * (b.load(i - 1, j, k) + b.load(i + 1, j, k) +
                     b.load(i, j - 1, k) + b.load(i, j + 1, k) +
                     b.load(i, j, k - 1) + b.load(i, j, k + 1)));
      }
    }
  }
}

/// jacobi3d over the interior, block by block under @p plan.
template <class Dst, class Src>
void jacobi3d(Dst& a, Src& b, double c, const TilingPlan& plan = {}) {
  for_each_block(plan, interior_of(a),
                 [&](const Box& x) { jacobi3d(a, b, c, x); });
}

/// Copy-back dst = src over box @p x (the second nest of the realistic
/// stencil pattern, Fig. 5 middle).
template <class Dst, class Src>
void copy_interior(Dst& dst, Src& src, const Box& x) {
  for (long k = x.klo; k < x.khi; ++k) {
    for (long j = x.jlo; j < x.jhi; ++j) {
      for (long i = x.ilo; i < x.ihi; ++i) {
        dst.store(i, j, k, src.load(i, j, k));
      }
    }
  }
}

/// copy_interior over the interior, block by block under @p plan.
template <class Dst, class Src>
void copy_interior(Dst& dst, Src& src, const TilingPlan& plan = {}) {
  for_each_block(plan, interior_of(dst),
                 [&](const Box& x) { copy_interior(dst, src, x); });
}

/// One time step of the realistic stencil: the Jacobi nest under @p plan,
/// then the copy-back b = a.  The paper tiles only the stencil nest
/// (Fig. 6), so the copy-back runs flat; the cache-oblivious schedule
/// recurses over both nests.
template <class Dst, class Src>
void jacobi3d_step(Dst& a, Src& b, double c, const TilingPlan& plan) {
  jacobi3d(a, b, c, plan);
  copy_interior(b, a,
                plan.schedule == LoopSchedule::kRecursive ? plan
                                                          : TilingPlan{});
}

}  // namespace rt::kernels
