#pragma once
// Raw-pointer row-sweep variants of the paper's stencil kernels.
//
// The accessor kernels (rt/kernels/*.hpp) address every point through
// load(i, j, k), recomputing i + p1*(j + p2*k) per access.  The row
// kernels instead materialise, once per (j, k) row, one restrict-qualified
// pointer per distinct stencil row — e.g. Jacobi needs the centre row of B
// plus its four neighbour rows — and sweep the contiguous I range with a
// `#pragma omp simd` hint.  The I loop is contiguous by construction in
// the column-major Array3D, so the compiler auto-vectorizes it; because
// vectorizing across I preserves each element's own operation order, the
// results are bit-identical to the accessor kernels for every SimdLevel
// (asserted exhaustively by tests/exec_identity_test.cpp).
//
// Two ISA instantiations of every sweep are compiled (baseline, and a
// target("avx2") clone on x86); SimdLevel picks one at run time, so no
// global -mavx2 build flag is needed.  Building with -DRT_SIMD_AVX2=ON
// additionally swaps the Jacobi AVX2 sweep for hand-written
// intrinsics (same left-associated add chain, still bit-identical).
//
// Aliasing contract: destination and source arrays must be distinct
// allocations (the accessor kernels are only ever used that way too);
// red-black updates in place, where the row decomposition itself
// guarantees the written row is disjoint from the neighbour rows read
// through other pointers.
//
// Each *_sweep covers one Box of the interior; it is the per-block body
// the executor (rt/simd/execute.hpp) hands every tile or plane of a plan's
// schedule to.  These eight sweeps are the only host definitions of
// JACOBI, copy, REDBLACK, REDBLACK+rhs, RESID, PSINV, RPRJ3 and INTERP.

#include <array>

#include "rt/array/array3d.hpp"
#include "rt/kernels/resid.hpp"
#include "rt/simd/simd.hpp"

namespace rt::simd {

using rt::array::Array3D;

/// Smoother coefficients in rt::multigrid::SmootherCoeffs layout (centre,
/// faces, edges, corners) — duplicated as a plain array type so rt::simd
/// stays below rt::multigrid in the layering.
using PsinvCoeffs = std::array<double, 4>;

/// Interior sub-box [ilo,ihi) x [jlo,jhi) x [klo,khi) of the grid a sweep
/// writes.  An empty range in any dimension sweeps nothing.
struct Box {
  long ilo, ihi, jlo, jhi, klo, khi;
};

/// a(i,j,k) = c * (six face neighbours of b); a and b share dims.
void jacobi_sweep(Array3D<double>& a, const Array3D<double>& b, double c,
                  const Box& x, SimdLevel lvl);

/// dst = src over the box.
void copy_sweep(Array3D<double>& dst, const Array3D<double>& src,
                const Box& x, SimdLevel lvl);

/// One colour of red-black SOR over the box ((i+j+k) % 2 == parity).
void redblack_sweep(Array3D<double>& a, double c1, double c2, long parity,
                    const Box& x, SimdLevel lvl);

/// r = v - A u (27-point RESID) over the box; r, v, u share dims.
void resid_sweep(Array3D<double>& r, const Array3D<double>& v,
                 const Array3D<double>& u, const rt::kernels::ResidCoeffs& a,
                 const Box& x, SimdLevel lvl);

/// One colour of red-black SOR with a constant term (rb_update_rhs):
/// a <- c1 a + c2 (6 neighbours) + r.  a and r share dims.
void redblack_rhs_sweep(Array3D<double>& a, const Array3D<double>& r,
                        double c1, double c2, long parity, const Box& x,
                        SimdLevel lvl);

/// u += S r (27-point NAS MG smoother) over the box; u and r share dims.
void psinv_sweep(Array3D<double>& u, const Array3D<double>& r,
                 const PsinvCoeffs& c, const Box& x, SimdLevel lvl);

/// Full-weighting restriction over a box of the *coarse* grid s: s(j1,j2,j3)
/// from fine r around i = 2j - 1 (dims may differ in padding).
void rprj3_sweep(Array3D<double>& s, const Array3D<double>& r, const Box& x,
                 SimdLevel lvl);

/// Trilinear prolongation u += P z over a box of the *fine* grid u.
void interp_sweep(Array3D<double>& u, const Array3D<double>& z, const Box& x,
                  SimdLevel lvl);

}  // namespace rt::simd
