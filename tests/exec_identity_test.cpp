// Executor identity suite: every stencil run through rt::simd::execute must
// be *bit-identical* to its serial accessor reference — the unscheduled
// body applied once to the whole interior — for all eight row
// sweeps (JACOBI, copy, REDBLACK, REDBLACK+rhs, RESID, PSINV, RPRJ3,
// INTERP) x the three loop schedules (flat, tiled, recursive) x thread
// counts {1, 2, 3, 4} x the row levels (rows, avx2).  Shapes cover
// cubic and non-cubic grids, the minimum stencil-admitting size n = 3,
// tiles that leave ragged edges or exceed the interior, and padded leading
// dimensions (odd pads, so rows never share an alignment phase).  The
// transfer operators pair each shape, as the coarse grid, with a fine grid
// of 2m - 2 points carrying its own, different pad.  Also covers the
// red-black colour barrier under many threads, multi-step drift, the
// degenerate-tile and empty-box cases, and the SIMD policy layer.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <tuple>
#include <vector>

#include "rt/array/array3d.hpp"
#include "rt/kernels/jacobi3d.hpp"
#include "rt/kernels/redblack.hpp"
#include "rt/kernels/resid.hpp"
#include "rt/multigrid/operators.hpp"
#include "rt/par/thread_pool.hpp"
#include "rt/simd/execute.hpp"

namespace rt::simd {
namespace {

using rt::array::Array3D;
using rt::array::Dims3;
using rt::core::IterTile;
using rt::core::LoopSchedule;
using rt::core::TilingPlan;
using rt::kernels::interior_of;
using rt::par::ThreadPool;

Array3D<double> make_grid(long n1, long n2, long n3, double seed,
                          long p1 = 0, long p2 = 0) {
  Dims3 d = (p1 > 0) ? Dims3::padded(n1, n2, n3, p1, p2)
                     : Dims3::unpadded(n1, n2, n3);
  Array3D<double> a(d);
  for (long k = 0; k < n3; ++k) {
    for (long j = 0; j < n2; ++j) {
      for (long i = 0; i < n1; ++i) {
        a(i, j, k) = std::sin(seed + 0.1 * i + 0.2 * j + 0.3 * k);
      }
    }
  }
  return a;
}

/// Bitwise equality over the whole logical region, boundary included (the
/// executor must never write outside the interior).
bool grids_equal(const Array3D<double>& a, const Array3D<double>& b) {
  for (long k = 0; k < a.n3(); ++k) {
    for (long j = 0; j < a.n2(); ++j) {
      for (long i = 0; i < a.n1(); ++i) {
        if (a(i, j, k) != b(i, j, k)) return false;  // bitwise
      }
    }
  }
  return true;
}

/// The row levels under test.  kAvx2 is included even on hosts without
/// AVX2: the dispatcher must fall back to the baseline stamp rather than
/// fault.
std::vector<SimdLevel> host_levels() {
  return {SimdLevel::kRows, SimdLevel::kAvx2};
}

/// The three schedules over tile @p t (the recursive one's base tile).
std::vector<TilingPlan> schedules(IterTile t) {
  TilingPlan flat, tiled, recursive;
  tiled.tiled = recursive.tiled = true;
  tiled.tile = recursive.tile = t;
  tiled.schedule = LoopSchedule::kTiled;
  recursive.schedule = LoopSchedule::kRecursive;
  return {flat, tiled, recursive};
}

std::string describe(const TilingPlan& p, SimdLevel lvl) {
  return std::string(rt::core::schedule_name(p.schedule)) +
         (p.tiled ? " tiled" : "") + " lvl=" + simd_level_name(lvl);
}

/// n1 x n2 x n3 grid, tile ti x tj, pads p1/p2 (0 = unpadded).
struct Shape {
  long n1, n2, n3, ti, tj, p1, p2;
};

class ExecIdentity
    : public ::testing::TestWithParam<std::tuple<Shape, int>> {
 protected:
  const Shape s_ = std::get<0>(GetParam());
  ThreadPool pool_{std::get<1>(GetParam())};

  /// (plan, policy) for every schedule x level under test.
  template <class Fn>
  void for_each_case(Fn&& fn) {
    for (const TilingPlan& plan : schedules(IterTile{s_.ti, s_.tj})) {
      for (SimdLevel lvl : host_levels()) {
        fn(plan, ExecPolicy{&pool_, lvl});
      }
    }
  }
  Array3D<double> grid(double seed) const {
    return make_grid(s_.n1, s_.n2, s_.n3, seed, s_.p1, s_.p2);
  }
  /// The fine grid 2m - 2 of this (coarse) shape, with an odd derived pad.
  Array3D<double> fine_grid(double seed) const {
    return make_grid(2 * s_.n1 - 2, 2 * s_.n2 - 2, 2 * s_.n3 - 2, seed,
                     s_.p1 > 0 ? 2 * s_.p1 + 1 : 0,
                     s_.p2 > 0 ? 2 * s_.p2 - 1 : 0);
  }
};

TEST_P(ExecIdentity, JacobiAndCopy) {
  for_each_case([&](const TilingPlan& plan, const ExecPolicy& pol) {
    Array3D<double> b1 = grid(0.5), b2 = b1;
    Array3D<double> a1(b1.dims()), a2(b1.dims());
    rt::kernels::jacobi3d(a1, b1, 1.0 / 6.0, interior_of(a1));
    rt::kernels::copy_interior(b1, a1, interior_of(b1));
    execute(pol, plan, a2, [&](const Box& x) {
      jacobi_sweep(a2, b2, 1.0 / 6.0, x, pol.lvl);
    });
    execute(pol, plan, b2,
            [&](const Box& x) { copy_sweep(b2, a2, x, pol.lvl); });
    EXPECT_TRUE(grids_equal(a1, a2)) << "jacobi " << describe(plan, pol.lvl);
    EXPECT_TRUE(grids_equal(b1, b2)) << "copy " << describe(plan, pol.lvl);
  });
}

TEST_P(ExecIdentity, RedBlack) {
  for_each_case([&](const TilingPlan& plan, const ExecPolicy& pol) {
    Array3D<double> a1 = grid(0.3), a2 = a1;
    for (long parity = 0; parity < 2; ++parity) {
      rt::kernels::redblack_colour(a1, 0.4, 0.1, parity, interior_of(a1));
      execute(pol, plan, a2, [&](const Box& x) {
        redblack_sweep(a2, 0.4, 0.1, parity, x, pol.lvl);
      });
    }
    EXPECT_TRUE(grids_equal(a1, a2)) << describe(plan, pol.lvl);
  });
}

TEST_P(ExecIdentity, RedBlackRhs) {
  for_each_case([&](const TilingPlan& plan, const ExecPolicy& pol) {
    const Array3D<double> r = grid(0.9);
    Array3D<double> a1 = grid(0.3), a2 = a1;
    for (long parity = 0; parity < 2; ++parity) {
      rt::kernels::redblack_rhs_colour(a1, r, 0.4, 0.1, parity,
                                       interior_of(a1));
      execute(pol, plan, a2, [&](const Box& x) {
        redblack_rhs_sweep(a2, r, 0.4, 0.1, parity, x, pol.lvl);
      });
    }
    EXPECT_TRUE(grids_equal(a1, a2)) << describe(plan, pol.lvl);
  });
}

TEST_P(ExecIdentity, Resid) {
  const auto a = rt::kernels::nas_mg_a();
  for_each_case([&](const TilingPlan& plan, const ExecPolicy& pol) {
    const Array3D<double> u = grid(0.1), v = grid(0.7);
    Array3D<double> r1 = grid(0.2), r2 = r1;
    rt::kernels::resid(r1, v, u, a, interior_of(r1));
    execute(pol, plan, r2,
            [&](const Box& x) { resid_sweep(r2, v, u, a, x, pol.lvl); });
    EXPECT_TRUE(grids_equal(r1, r2)) << describe(plan, pol.lvl);
  });
}

TEST_P(ExecIdentity, Psinv) {
  // Both the NAS coefficient set (zero corner term) and a fully dense one:
  // the row sweep must reproduce the accessor's term order for every
  // coefficient class, including the corner terms NAS zeroes out.
  const std::vector<rt::multigrid::SmootherCoeffs> coeff_sets = {
      rt::multigrid::nas_mg_c(),
      rt::multigrid::SmootherCoeffs{-0.4, 0.03, -0.015, 0.007}};
  for (const auto& c : coeff_sets) {
    for_each_case([&](const TilingPlan& plan, const ExecPolicy& pol) {
      const Array3D<double> r = grid(0.7);
      Array3D<double> u1 = grid(0.1), u2 = u1;
      rt::multigrid::psinv(u1, r, c, interior_of(u1));
      execute(pol, plan, u2,
              [&](const Box& x) { psinv_sweep(u2, r, c, x, pol.lvl); });
      EXPECT_TRUE(grids_equal(u1, u2)) << describe(plan, pol.lvl);
    });
  }
}

TEST_P(ExecIdentity, Rprj3) {
  for_each_case([&](const TilingPlan& plan, const ExecPolicy& pol) {
    const Array3D<double> r = fine_grid(0.4);
    Array3D<double> s1 = grid(0.2), s2 = s1;
    rt::multigrid::rprj3(s1, r);
    execute(pol, plan, s2,
            [&](const Box& x) { rprj3_sweep(s2, r, x, pol.lvl); });
    EXPECT_TRUE(grids_equal(s1, s2)) << describe(plan, pol.lvl);
  });
}

TEST_P(ExecIdentity, Interp) {
  for_each_case([&](const TilingPlan& plan, const ExecPolicy& pol) {
    const Array3D<double> z = grid(0.6);
    Array3D<double> u1 = fine_grid(0.1), u2 = u1;
    rt::multigrid::interp_add(u1, z);
    execute(pol, plan, u2,
            [&](const Box& x) { interp_sweep(u2, z, x, pol.lvl); });
    EXPECT_TRUE(grids_equal(u1, u2)) << describe(plan, pol.lvl);
  });
}

std::string shape_name(
    const ::testing::TestParamInfo<std::tuple<Shape, int>>& info) {
  const Shape& s = std::get<0>(info.param);
  std::string name = std::to_string(s.n1) + "x" + std::to_string(s.n2) +
                     "x" + std::to_string(s.n3) + "_t" +
                     std::to_string(s.ti) + "x" + std::to_string(s.tj);
  if (s.p1 > 0) {
    name += "_p" + std::to_string(s.p1) + "x" + std::to_string(s.p2);
  }
  return name + "_thr" + std::to_string(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ExecIdentity,
    ::testing::Combine(
        ::testing::Values(
            // Cubic, tile divides / does not divide the interior.
            Shape{8, 8, 8, 3, 3, 0, 0}, Shape{16, 16, 16, 7, 5, 0, 0},
            // Minimum stencil-admitting grid: one interior point per row.
            Shape{3, 3, 3, 1, 1, 0, 0}, Shape{3, 5, 4, 2, 2, 0, 0},
            // Non-cubic, ragged edge tiles.
            Shape{9, 7, 11, 2, 5, 0, 0}, Shape{23, 41, 11, 7, 3, 0, 0},
            Shape{40, 12, 30, 13, 22, 0, 0}, Shape{41, 6, 9, 41, 1, 0, 0},
            Shape{16, 10, 6, 5, 4, 0, 0}, Shape{17, 9, 30, 4, 4, 0, 0},
            Shape{31, 33, 29, 1, 1, 0, 0},
            // Tile exceeding the interior entirely.
            Shape{12, 30, 5, 100, 100, 0, 0},
            // Padded: odd leading dim (rows never share alignment phase),
            // vector-aligned leading dim, and pad in both dimensions.
            Shape{12, 18, 8, 5, 4, 17, 23}, Shape{12, 18, 8, 5, 4, 16, 18},
            Shape{30, 10, 7, 9, 9, 40, 12},
            // Interior wider than one vector with a scalar remainder.
            Shape{21, 9, 6, 6, 4, 0, 0}, Shape{64, 10, 13, 22, 13, 0, 0},
            // MgSolver level sizes as coarse grids (fine = 2m - 2), cubic
            // and non-cubic, padded with the fine pad derived oddly.
            Shape{5, 5, 5, 2, 3, 0, 0}, Shape{9, 9, 9, 4, 4, 0, 0},
            Shape{18, 18, 18, 5, 7, 0, 0}, Shape{3, 5, 7, 1, 2, 0, 0},
            Shape{12, 5, 9, 5, 2, 0, 0}, Shape{9, 9, 9, 3, 3, 13, 11},
            Shape{10, 6, 8, 4, 4, 16, 9}),
        ::testing::Values(1, 2, 3, 4)),
    shape_name);

TEST(Exec, MultiStepJacobiStaysBitIdentical) {
  // Divergence anywhere (a missing barrier before the copy-back, an AVX2
  // remainder element computed in a different order) compounds over time
  // steps; four steps catch it.
  ThreadPool pool(4);
  TilingPlan plan;
  plan.tiled = true;
  plan.tile = IterTile{5, 3};
  for (SimdLevel lvl : host_levels()) {
    for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
      const ExecPolicy pol{p, lvl};
      Array3D<double> b1 = make_grid(20, 14, 12, 0.9), b2 = b1;
      Array3D<double> a1(20, 14, 12), a2(20, 14, 12);
      for (int t = 0; t < 4; ++t) {
        rt::kernels::jacobi3d(a1, b1, 1.0 / 6.0);
        rt::kernels::copy_interior(b1, a1);
        execute(pol, plan, a2, [&](const Box& x) {
          jacobi_sweep(a2, b2, 1.0 / 6.0, x, lvl);
        });
        execute(pol, TilingPlan{}, b2,
                [&](const Box& x) { copy_sweep(b2, a2, x, lvl); });
      }
      EXPECT_TRUE(grids_equal(a1, a2)) << "pool=" << (p != nullptr);
      EXPECT_TRUE(grids_equal(b1, b2)) << "pool=" << (p != nullptr);
    }
  }
}

TEST(Exec, PsinvMultiStepStaysBitIdentical) {
  // The smoother applied repeatedly, as the V-cycle does at every level.
  ThreadPool pool(4);
  const auto c = rt::multigrid::nas_mg_c();
  for (SimdLevel lvl : host_levels()) {
    const Array3D<double> r = make_grid(20, 14, 12, 0.8);
    Array3D<double> u1 = make_grid(20, 14, 12, 0.2), u2 = u1;
    for (int it = 0; it < 4; ++it) {
      rt::multigrid::psinv(u1, r, c);
      execute({&pool, lvl}, TilingPlan{}, u2,
              [&](const Box& x) { psinv_sweep(u2, r, c, x, lvl); });
    }
    EXPECT_TRUE(grids_equal(u1, u2)) << "lvl=" << simd_level_name(lvl);
  }
}

TEST(Exec, PaddedArraysComputeSameValues) {
  ThreadPool pool(4);
  TilingPlan plan;
  plan.tiled = true;
  plan.tile = IterTile{5, 4};
  Array3D<double> b1 = make_grid(12, 18, 8, 0.2);
  Array3D<double> b2 = make_grid(12, 18, 8, 0.2, 17, 23);
  Array3D<double> a1(12, 18, 8);
  Array3D<double> a2(Dims3::padded(12, 18, 8, 17, 23));
  rt::kernels::jacobi3d(a1, b1, 1.0 / 6.0);
  execute({&pool, SimdLevel::kRows}, plan, a2, [&](const Box& x) {
    jacobi_sweep(a2, b2, 1.0 / 6.0, x, SimdLevel::kRows);
  });
  EXPECT_TRUE(grids_equal(a1, a2));
}

TEST(Exec, RedBlackColorBarrierHoldsUnderManyThreads) {
  // With c1 = 0, c2 = 1 and a single red hot point, a correct schedule
  // zeroes the whole interior: the red sweep replaces every red point by
  // the sum of its (all-zero) black neighbours — including the hot point —
  // and the black sweep then reads only post-red (zero) values.  If any
  // black update ran before the barrier it could read the stale 1.0 and
  // leave a nonzero black point behind.  Tiny tiles maximise the number of
  // concurrently executing blocks; repeat to shake out interleavings.
  ThreadPool pool(5);
  TilingPlan plan;
  plan.tiled = true;
  plan.tile = IterTile{2, 2};
  for (int rep = 0; rep < 50; ++rep) {
    Array3D<double> a(17, 13, 9);
    a(4, 4, 4) = 1.0;  // (4+4+4) even -> red
    for (long parity = 0; parity < 2; ++parity) {
      execute({&pool, SimdLevel::kRows}, plan, a, [&](const Box& x) {
        redblack_sweep(a, 0.0, 1.0, parity, x, SimdLevel::kRows);
      });
    }
    for (long k = 1; k < 8; ++k) {
      for (long j = 1; j < 12; ++j) {
        for (long i = 1; i < 16; ++i) {
          ASSERT_EQ(a(i, j, k), 0.0)
              << "rep=" << rep << " at (" << i << "," << j << "," << k << ")";
        }
      }
    }
  }
}

TEST(Exec, RedBlackRepeatedRunsAreDeterministic) {
  // Scheduling nondeterminism must never leak into values: 20 runs under
  // 4 threads all equal the serial result bit-for-bit.
  ThreadPool pool(4);
  TilingPlan plan;
  plan.tiled = true;
  plan.tile = IterTile{3, 2};
  Array3D<double> ref = make_grid(19, 23, 10, 0.6);
  rt::kernels::redblack(ref, 0.4, 0.1);
  for (int rep = 0; rep < 20; ++rep) {
    Array3D<double> a = make_grid(19, 23, 10, 0.6);
    for (long parity = 0; parity < 2; ++parity) {
      execute({&pool, SimdLevel::kRows}, plan, a, [&](const Box& x) {
        redblack_sweep(a, 0.4, 0.1, parity, x, SimdLevel::kRows);
      });
    }
    ASSERT_TRUE(grids_equal(ref, a)) << "rep=" << rep;
  }
}

TEST(Exec, DegenerateTileOrEmptyBoxIsSafe) {
  ThreadPool pool(4);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    const ExecPolicy pol{p, SimdLevel::kRows};
    const Array3D<double> b = make_grid(4, 4, 4, 0.1);
    Array3D<double> ref(4, 4, 4);
    rt::kernels::jacobi3d(ref, b, 1.0 / 6.0);
    const auto run = [&](const TilingPlan& plan) {
      Array3D<double> a(4, 4, 4);
      execute(pol, plan, a, [&](const Box& x) {
        jacobi_sweep(a, b, 1.0 / 6.0, x, SimdLevel::kRows);
      });
      return a;
    };
    // Tile {1,1} (the gcd_pad clamp floor) over a 2x2x2 interior.
    TilingPlan plan;
    plan.tiled = true;
    plan.tile = IterTile{1, 1};
    EXPECT_TRUE(grids_equal(ref, run(plan)));
    // A non-positive tile extent cannot be walked as a tile grid: the
    // executor runs the plan flat instead of looping forever or skipping.
    plan.tile = IterTile{0, 5};
    EXPECT_TRUE(grids_equal(ref, run(plan)));
    plan.tile = IterTile{3, -1};
    EXPECT_TRUE(grids_equal(ref, run(plan)));
    // A grid without interior visits no block at all.
    Array3D<double> flat(2, 5, 5);
    int blocks = 0;
    execute(pol, TilingPlan{}, flat, [&](const Box&) { ++blocks; });
    EXPECT_EQ(blocks, 0);
  }
  // An empty box sweeps nothing.
  const Array3D<double> b = make_grid(4, 4, 4, 0.1);
  Array3D<double> a(4, 4, 4, 7.0), untouched(4, 4, 4, 7.0);
  jacobi_sweep(a, b, 1.0 / 6.0, Box{2, 2, 1, 3, 1, 3}, SimdLevel::kRows);
  EXPECT_TRUE(grids_equal(untouched, a));
}

TEST(Exec, SweepSubBoxesComposeToFullKernel) {
  // Splitting the interior into arbitrary sub-boxes and sweeping each
  // must equal one full sweep: the property every schedule rests on.
  for (SimdLevel lvl : host_levels()) {
    Array3D<double> b = make_grid(14, 11, 9, 0.4);
    Array3D<double> a1(14, 11, 9), a2(14, 11, 9);
    rt::kernels::jacobi3d(a1, b, 1.0 / 6.0);
    jacobi_sweep(a2, b, 1.0 / 6.0, Box{1, 6, 1, 10, 1, 8}, lvl);
    jacobi_sweep(a2, b, 1.0 / 6.0, Box{6, 13, 1, 4, 1, 8}, lvl);
    jacobi_sweep(a2, b, 1.0 / 6.0, Box{6, 13, 4, 10, 1, 5}, lvl);
    jacobi_sweep(a2, b, 1.0 / 6.0, Box{6, 13, 4, 10, 5, 8}, lvl);
    EXPECT_TRUE(grids_equal(a1, a2)) << "lvl=" << simd_level_name(lvl);
  }
}

TEST(Exec, TileGridIsWalkedJjOuterIiInner) {
  // Serially the tiled schedule visits tiles in the paper's loop order
  // (jj outer, ii inner) with clipped edge tiles, each over the full K.
  Array3D<double> g(9, 7, 5);  // interior 7 x 5 x 3
  TilingPlan plan;
  plan.tiled = true;
  plan.tile = IterTile{3, 2};
  std::vector<std::vector<long>> seen;
  execute({nullptr, SimdLevel::kRows}, plan, g, [&](const Box& x) {
    seen.push_back({x.ilo, x.ihi, x.jlo, x.jhi, x.klo, x.khi});
  });
  const std::vector<std::vector<long>> want = {
      {1, 4, 1, 3, 1, 4}, {4, 7, 1, 3, 1, 4}, {7, 8, 1, 3, 1, 4},
      {1, 4, 3, 5, 1, 4}, {4, 7, 3, 5, 1, 4}, {7, 8, 3, 5, 1, 4},
      {1, 4, 5, 6, 1, 4}, {4, 7, 5, 6, 1, 4}, {7, 8, 5, 6, 1, 4}};
  EXPECT_EQ(seen, want);
}

TEST(SimdPolicy, ParseAndNames) {
  SimdMode m;
  EXPECT_TRUE(parse_simd_mode("off", &m));
  EXPECT_EQ(m, SimdMode::kOff);
  EXPECT_TRUE(parse_simd_mode("auto", &m));
  EXPECT_EQ(m, SimdMode::kAuto);
  EXPECT_TRUE(parse_simd_mode("avx2", &m));
  EXPECT_EQ(m, SimdMode::kAvx2);
  EXPECT_FALSE(parse_simd_mode("sse", &m));
  EXPECT_FALSE(parse_simd_mode("", &m));
  EXPECT_STREQ(simd_mode_name(SimdMode::kAuto), "auto");
  EXPECT_STREQ(simd_level_name(SimdLevel::kScalar), "scalar");
  EXPECT_STREQ(simd_level_name(SimdLevel::kRows), "rows");
  EXPECT_STREQ(simd_level_name(SimdLevel::kAvx2), "avx2");
}

TEST(SimdPolicy, ResolveRespectsHostSupport) {
  EXPECT_EQ(resolve(SimdMode::kOff), SimdLevel::kScalar);
  const SimdLevel expect_best =
      avx2_supported() ? SimdLevel::kAvx2 : SimdLevel::kRows;
  EXPECT_EQ(resolve(SimdMode::kAuto), expect_best);
  EXPECT_EQ(resolve(SimdMode::kAvx2), expect_best);
}

TEST(SimdPolicy, ExecLevelRunsRowsForOffOnAPool) {
  // The accessor reference is serial only: off on a pool runs (and
  // reports) the baseline rows stamp; every other mode keeps its level.
  EXPECT_EQ(exec_level(SimdMode::kOff, false), SimdLevel::kScalar);
  EXPECT_EQ(exec_level(SimdMode::kOff, true), SimdLevel::kRows);
  for (const bool pooled : {false, true}) {
    EXPECT_EQ(exec_level(SimdMode::kAuto, pooled), resolve(SimdMode::kAuto));
    EXPECT_EQ(exec_level(SimdMode::kAvx2, pooled), resolve(SimdMode::kAvx2));
  }
}

TEST(SimdPolicy, AlignLeadingRoundsUpToVectorWidth) {
  EXPECT_EQ(align_leading(1), 8);
  EXPECT_EQ(align_leading(8), 8);
  EXPECT_EQ(align_leading(9), 16);
  EXPECT_EQ(align_leading(200), 200);
  EXPECT_EQ(align_leading(201), 208);
  EXPECT_EQ(align_leading(13, 4), 16);  // explicit vector width
  const Dims3 d = align_dims(Dims3::padded(5, 7, 9, 11, 13));
  EXPECT_EQ(d.p1, 16);   // 11 -> next multiple of 8
  EXPECT_EQ(d.p2, 13);   // untouched
  EXPECT_EQ(d.n1, 5);    // logical extents untouched
  EXPECT_TRUE(d.valid());
}

}  // namespace
}  // namespace rt::simd
