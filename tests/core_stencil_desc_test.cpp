// Stencil descriptor tests: spec derivation matches the paper's per-kernel
// parameters, and the generic engine reproduces the hand-written kernels.

#include <gtest/gtest.h>

#include <cmath>

#include "rt/array/array3d.hpp"
#include "rt/core/plan.hpp"
#include "rt/core/stencil_desc.hpp"
#include "rt/kernels/generic.hpp"
#include "rt/kernels/jacobi3d.hpp"
#include "rt/kernels/resid.hpp"

namespace rt::core {
namespace {

using rt::array::Array3D;

Array3D<double> make_grid(long n, long kd, double seed) {
  Array3D<double> a(n, n, kd);
  for (long k = 0; k < kd; ++k)
    for (long j = 0; j < n; ++j)
      for (long i = 0; i < n; ++i)
        a(i, j, k) = std::sin(seed + 0.07 * i + 0.13 * j + 0.19 * k);
  return a;
}

TEST(StencilDesc, Jacobi6DerivesPaperSpec) {
  const StencilSpec s = StencilDesc::jacobi6().derive_spec();
  EXPECT_EQ(s.trim_i, 2);
  EXPECT_EQ(s.trim_j, 2);
  EXPECT_EQ(s.atd, 3);
}

TEST(StencilDesc, Full27DerivesPaperSpec) {
  const StencilSpec s =
      StencilDesc::full27(-8.0 / 3.0, 0.0, 1.0 / 6.0, 1.0 / 12.0)
          .derive_spec();
  EXPECT_EQ(s.trim_i, 2);
  EXPECT_EQ(s.trim_j, 2);
  EXPECT_EQ(s.atd, 3);
}

TEST(StencilDesc, AsymmetricWindow) {
  // Fused red-black reads planes k-1..k+2: a descriptor with that window
  // must derive ATD 4 (the paper's red-black tile depth).
  StencilDesc d;
  d.points = {{0, 0, -1, 1.0}, {0, 0, 2, 1.0}, {-1, 0, 0, 1.0},
              {3, 0, 0, 1.0}, {0, -2, 0, 1.0}, {0, 1, 0, 1.0}};
  const StencilSpec s = d.derive_spec();
  EXPECT_EQ(s.atd, 4);
  EXPECT_EQ(s.trim_i, 4);  // -1..3
  EXPECT_EQ(s.trim_j, 3);  // -2..1
}

TEST(StencilDesc, EmptyThrows) {
  EXPECT_THROW(StencilDesc{}.derive_spec(), std::invalid_argument);
}

TEST(StencilDesc, Full27Has27Points) {
  const StencilDesc d = StencilDesc::full27(1, 2, 3, 4);
  EXPECT_EQ(d.arity(), 27u);
  double sum = 0;
  for (const auto& p : d.points) sum += p.w;
  EXPECT_DOUBLE_EQ(sum, 1 + 6 * 2 + 12 * 3 + 8 * 4);
}

TEST(GenericEngine, MatchesHandWrittenJacobi) {
  const long n = 14, kd = 10;
  Array3D<double> b = make_grid(n, kd, 0.5);
  Array3D<double> a1(n, n, kd), a2(n, n, kd);
  rt::kernels::jacobi3d(a1, b, 1.0 / 6.0);
  rt::kernels::apply_stencil(a2, b, StencilDesc::jacobi6(1.0 / 6.0));
  for (long k = 1; k < kd - 1; ++k)
    for (long j = 1; j < n - 1; ++j)
      for (long i = 1; i < n - 1; ++i)
        ASSERT_NEAR(a1(i, j, k), a2(i, j, k), 1e-15);
}

TEST(GenericEngine, MatchesResidOperator) {
  // resid computes r = v - A u; the generic engine computing A u must give
  // v - r.
  const long n = 12, kd = 9;
  Array3D<double> u = make_grid(n, kd, 0.2), v = make_grid(n, kd, 0.9);
  Array3D<double> r(n, n, kd), au(n, n, kd);
  const auto a = rt::kernels::nas_mg_a();
  rt::kernels::resid(r, v, u, a);
  rt::kernels::apply_stencil(au, u,
                             StencilDesc::full27(a[0], a[1], a[2], a[3]));
  for (long k = 1; k < kd - 1; ++k)
    for (long j = 1; j < n - 1; ++j)
      for (long i = 1; i < n - 1; ++i)
        ASSERT_NEAR(r(i, j, k), v(i, j, k) - au(i, j, k), 1e-12);
}

class GenericTiled : public ::testing::TestWithParam<IterTile> {};

TEST_P(GenericTiled, TiledMatchesUntiled) {
  const IterTile t = GetParam();
  const long n = 16, kd = 9;
  Array3D<double> b = make_grid(n, kd, 0.4);
  Array3D<double> a1(n, n, kd), a2(n, n, kd);
  const StencilDesc d = StencilDesc::full27(0.5, -0.1, 0.02, 0.003);
  rt::kernels::apply_stencil(a1, b, d);
  rt::kernels::apply_stencil(a2, b, d, rt::kernels::tiled_plan(t));
  for (long k = 1; k < kd - 1; ++k)
    for (long j = 1; j < n - 1; ++j)
      for (long i = 1; i < n - 1; ++i)
        ASSERT_EQ(a1(i, j, k), a2(i, j, k));
}

INSTANTIATE_TEST_SUITE_P(Tiles, GenericTiled,
                         ::testing::Values(IterTile{1, 1}, IterTile{3, 5},
                                           IterTile{14, 2}, IterTile{4, 14},
                                           IterTile{30, 30}, IterTile{7, 7}));

TEST(GenericEngine, PlannerWorksWithDerivedSpec) {
  // End-to-end: derive the spec, plan, and confirm the plan matches what
  // the registry's hand-maintained spec yields.
  const StencilSpec derived = StencilDesc::jacobi6().derive_spec();
  const auto p1 = plan_for(Transform::kPad, 2048, 341, 341, derived);
  const auto p2 =
      plan_for(Transform::kPad, 2048, 341, 341, StencilSpec::jacobi3d());
  EXPECT_EQ(p1.tile, p2.tile);
  EXPECT_EQ(p1.dip, p2.dip);
  EXPECT_EQ(p1.djp, p2.djp);
}

}  // namespace
}  // namespace rt::core
