#include "rt/simd/row_kernels.hpp"

#include <cassert>

#if defined(__x86_64__) || defined(__i386__)
#define RT_SIMD_X86 1
#else
#define RT_SIMD_X86 0
#endif

namespace rt::simd {
namespace {

#define RT_SIMD_RESTRICT __restrict__
#define RT_SIMD_CAT2(a, b) a##_##b
#define RT_SIMD_CAT(a, b) RT_SIMD_CAT2(a, b)

// Baseline-ISA stamp (whatever the build targets; x86-64 baseline = SSE2).
#define RT_SIMD_FN(name) RT_SIMD_CAT(name, base)
#define RT_SIMD_ATTR
#include "row_sweeps.inl"
#undef RT_SIMD_FN
#undef RT_SIMD_ATTR

#if RT_SIMD_X86
// AVX2 stamp: same loop bodies re-vectorized 4-wide.  target("avx2") does
// not enable FMA, so no contraction can change the add/mul sequence — the
// clone stays bit-identical to the baseline stamp.
#define RT_SIMD_FN(name) RT_SIMD_CAT(name, avx2)
#define RT_SIMD_ATTR __attribute__((target("avx2")))
#include "row_sweeps.inl"
#undef RT_SIMD_FN
#undef RT_SIMD_ATTR
#endif  // RT_SIMD_X86

/// True when the AVX2 stamp should run: requested *and* executable here.
bool run_avx2(SimdLevel lvl) {
#if RT_SIMD_X86
  return lvl == SimdLevel::kAvx2 && avx2_supported();
#else
  (void)lvl;
  return false;
#endif
}

}  // namespace

// Each public sweep unpacks its arrays to raw pointers and strides and
// runs the AVX2 stamp when requested and executable, else the baseline.
#if RT_SIMD_X86
#define RT_SIMD_DISPATCH(name, ...)       \
  if (run_avx2(lvl)) {                    \
    RT_SIMD_CAT(name, avx2)(__VA_ARGS__); \
    return;                               \
  }                                       \
  RT_SIMD_CAT(name, base)(__VA_ARGS__)
#else
#define RT_SIMD_DISPATCH(name, ...) \
  (void)lvl;                        \
  RT_SIMD_CAT(name, base)(__VA_ARGS__)
#endif
#define RT_SIMD_BOX x.ilo, x.ihi, x.jlo, x.jhi, x.klo, x.khi

void jacobi_sweep(Array3D<double>& a, const Array3D<double>& b, double c,
                  const Box& x, SimdLevel lvl) {
  assert(a.dims() == b.dims());
  const long s1 = a.dims().column_stride(), s2 = a.dims().plane_stride();
  RT_SIMD_DISPATCH(jacobi_sweep, a.data(), b.data(), s1, s2, c, RT_SIMD_BOX);
}

void copy_sweep(Array3D<double>& dst, const Array3D<double>& src,
                const Box& x, SimdLevel lvl) {
  assert(dst.dims() == src.dims());
  const long s1 = dst.dims().column_stride(), s2 = dst.dims().plane_stride();
  RT_SIMD_DISPATCH(copy_sweep, dst.data(), src.data(), s1, s2, RT_SIMD_BOX);
}

void redblack_sweep(Array3D<double>& a, double c1, double c2, long parity,
                    const Box& x, SimdLevel lvl) {
  const long s1 = a.dims().column_stride(), s2 = a.dims().plane_stride();
  RT_SIMD_DISPATCH(redblack_sweep, a.data(), s1, s2, c1, c2, parity,
                   RT_SIMD_BOX);
}

void resid_sweep(Array3D<double>& r, const Array3D<double>& v,
                 const Array3D<double>& u, const rt::kernels::ResidCoeffs& a,
                 const Box& x, SimdLevel lvl) {
  assert(r.dims() == v.dims() && r.dims() == u.dims());
  const long s1 = r.dims().column_stride(), s2 = r.dims().plane_stride();
  RT_SIMD_DISPATCH(resid_sweep, r.data(), v.data(), u.data(), s1, s2, a[0],
                   a[1], a[2], a[3], RT_SIMD_BOX);
}

void redblack_rhs_sweep(Array3D<double>& a, const Array3D<double>& r,
                        double c1, double c2, long parity, const Box& x,
                        SimdLevel lvl) {
  assert(a.dims() == r.dims());
  const long s1 = a.dims().column_stride(), s2 = a.dims().plane_stride();
  RT_SIMD_DISPATCH(redblack_rhs_sweep, a.data(), r.data(), s1, s2, c1, c2,
                   parity, RT_SIMD_BOX);
}

void psinv_sweep(Array3D<double>& u, const Array3D<double>& r,
                 const PsinvCoeffs& c, const Box& x, SimdLevel lvl) {
  assert(u.dims() == r.dims());
  const long s1 = u.dims().column_stride(), s2 = u.dims().plane_stride();
  RT_SIMD_DISPATCH(psinv_sweep, u.data(), r.data(), s1, s2, c[0], c[1], c[2],
                   c[3], RT_SIMD_BOX);
}

void rprj3_sweep(Array3D<double>& s, const Array3D<double>& r, const Box& x,
                 SimdLevel lvl) {
  const long cs1 = s.dims().column_stride(), cs2 = s.dims().plane_stride();
  const long fs1 = r.dims().column_stride(), fs2 = r.dims().plane_stride();
  RT_SIMD_DISPATCH(rprj3_sweep, s.data(), r.data(), cs1, cs2, fs1, fs2,
                   RT_SIMD_BOX);
}

void interp_sweep(Array3D<double>& u, const Array3D<double>& z, const Box& x,
                  SimdLevel lvl) {
  const long us1 = u.dims().column_stride(), us2 = u.dims().plane_stride();
  const long zs1 = z.dims().column_stride(), zs2 = z.dims().plane_stride();
  RT_SIMD_DISPATCH(interp_sweep, u.data(), z.data(), us1, us2, zs1, zs2,
                   RT_SIMD_BOX);
}

}  // namespace rt::simd
