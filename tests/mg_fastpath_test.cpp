// Host fast paths of the two whole applications (MgSolver V-cycle,
// SorSolver red-black SOR): any combination of thread pool and SIMD row
// kernels must be *bit-identical* to the serial accessor path — same
// residual norms, same solution arrays — because every parallel
// decomposition preserves the per-element operation order and the colour
// barrier.  Also covers the first-touch initialization contract, the
// traced-run opt-out, and the SorSolver plan-validation statuses
// (kFellBackUntiled / kOverflow) that replace the historical silent clamp.

#include <gtest/gtest.h>

#include <vector>

#include "rt/cachesim/hierarchy.hpp"
#include "rt/core/plan.hpp"
#include "rt/guard/status.hpp"
#include "rt/multigrid/mg_solver.hpp"
#include "rt/multigrid/sor_solver.hpp"
#include "rt/simd/simd.hpp"

namespace rt::multigrid {
namespace {

using rt::guard::Status;
using rt::simd::SimdLevel;
using rt::simd::SimdMode;

MgOptions mg_base_opts() {
  MgOptions o;
  o.lt = 4;  // n = 18: several levels, fast
  const long n = (1L << o.lt) + 2;
  o.resid_plan = rt::core::plan_for(rt::core::Transform::kGcdPad, 2048, n, n,
                                    rt::core::StencilSpec::resid27());
  o.tile_psinv = true;
  return o;
}

struct MgOutcome {
  std::vector<double> norms;
  std::uint64_t flops = 0;
};

MgOutcome run_mg(const MgOptions& o, int iters = 3) {
  MgSolver s(o);
  s.setup();
  MgOutcome out;
  for (int i = 0; i < iters; ++i) out.norms.push_back(s.iterate());
  out.norms.push_back(s.residual_norm());
  out.flops = s.flops();
  return out;
}

TEST(MgFastPath, ThreadsAndSimdAreBitIdenticalToSerial) {
  const MgOutcome serial = run_mg(mg_base_opts());
  struct Variant {
    int threads;
    SimdMode simd;
  };
  const std::vector<Variant> variants = {{3, SimdMode::kOff},
                                         {1, SimdMode::kAuto},
                                         {3, SimdMode::kAuto},
                                         {2, SimdMode::kAvx2}};
  for (const Variant& v : variants) {
    MgOptions o = mg_base_opts();
    o.threads = v.threads;
    o.simd = v.simd;
    const MgOutcome fast = run_mg(o);
    EXPECT_EQ(fast.norms, serial.norms)
        << "threads=" << v.threads << " simd=" << int(v.simd);
    EXPECT_EQ(fast.flops, serial.flops);
  }
}

TEST(MgFastPath, UntiledOperatorsAreBitIdenticalToo) {
  MgOptions o;
  o.lt = 4;  // no resid plan: every level runs the untiled operators
  const MgOutcome serial = run_mg(o);
  o.threads = 3;
  o.simd = SimdMode::kAuto;
  const MgOutcome fast = run_mg(o);
  EXPECT_EQ(fast.norms, serial.norms);
}

TEST(MgFastPath, ReportsWidthLevelAndPhases) {
  MgOptions o = mg_base_opts();
  o.threads = 3;
  o.simd = SimdMode::kAuto;
  MgSolver s(o);
  EXPECT_EQ(s.threads(), 3);
  EXPECT_EQ(s.simd_level(), rt::simd::resolve(SimdMode::kAuto));
  s.setup();
  (void)s.iterate();
  const MgSolver::Phases& p = s.phases();
  EXPECT_GT(p.resid.count, 0);
  EXPECT_GT(p.psinv.count, 0);
  EXPECT_GT(p.rprj3.count, 0);
  EXPECT_GT(p.interp.count, 0);
  EXPECT_GT(p.comm3.count, 0);
  EXPECT_GT(p.norm.count, 0);
  EXPECT_GT(p.resid.total_s, 0.0);
}

TEST(MgFastPath, SimdOffOnAPoolRunsAndReportsRows) {
  // The accessor operators are the serial reference only: simd off on a
  // pool runs the baseline rows stamp through the executor.
  MgOptions o = mg_base_opts();
  o.threads = 2;
  MgSolver s(o);
  EXPECT_EQ(s.threads(), 2);
  EXPECT_EQ(s.simd_level(), SimdLevel::kRows);
  MgOptions serial = mg_base_opts();
  EXPECT_EQ(MgSolver(serial).simd_level(), SimdLevel::kScalar);
  EXPECT_EQ(run_mg(o).norms, run_mg(serial).norms);
}

TEST(MgFastPath, FirstTouchGridsStartZeroed) {
  // With a pool the per-level arrays are allocated uninitialized and
  // zeroed plane-parallel (first-touch NUMA placement): the observable
  // contract is that construction still yields all-zero grids, exactly
  // like the serial default construction.
  MgOptions o = mg_base_opts();
  o.threads = 3;
  MgSolver s(o);
  const auto& u = s.u();
  for (long k = 0; k < u.n3(); ++k)
    for (long j = 0; j < u.n2(); ++j)
      for (long i = 0; i < u.n1(); ++i) ASSERT_EQ(u(i, j, k), 0.0);
  const auto& v = s.v();
  for (long k = 0; k < v.n3(); ++k)
    for (long j = 0; j < v.n2(); ++j)
      for (long i = 0; i < v.n1(); ++i) ASSERT_EQ(v(i, j, k), 0.0);
}

TEST(MgFastPath, TracedRunsIgnoreThreadsAndSimd) {
  // TracedArray3D mutates the shared hierarchy on every access, so the
  // traced operators must stay serial scalar whatever the options say.
  MgOptions o = mg_base_opts();
  o.threads = 4;
  o.simd = SimdMode::kAuto;
  rt::cachesim::CacheHierarchy h = rt::cachesim::CacheHierarchy::ultrasparc2();
  MgSolver s(o, &h);
  EXPECT_EQ(s.threads(), 1);
  EXPECT_EQ(s.simd_level(), SimdLevel::kScalar);
  // And the traced numerics match the native serial ones exactly.
  s.setup();
  const double traced = s.iterate();
  MgOptions os = mg_base_opts();
  MgSolver ss(os);
  ss.setup();
  EXPECT_EQ(ss.iterate(), traced);
}

SorOptions sor_base_opts(long n = 34) {
  SorOptions o;
  o.n = n;
  o.plan = rt::core::plan_for(rt::core::Transform::kGcdPad, 2048, n, n,
                              rt::core::StencilSpec::redblack3d());
  return o;
}

double run_sor(const SorOptions& o, int sweeps = 4) {
  SorSolver s(o);
  EXPECT_EQ(s.status(), Status::kOk);
  s.setup();
  for (int i = 0; i < sweeps; ++i) s.sweep();
  return s.residual_linf();
}

TEST(SorFastPath, ThreadsAndSimdAreBitIdenticalToSerial) {
  const double serial = run_sor(sor_base_opts());
  for (const int threads : {1, 3}) {
    for (const SimdMode simd : {SimdMode::kOff, SimdMode::kAuto}) {
      SorOptions o = sor_base_opts();
      o.threads = threads;
      o.simd = simd;
      EXPECT_EQ(run_sor(o), serial)
          << "threads=" << threads << " simd=" << int(simd);
    }
  }
}

TEST(SorFastPath, SimdOffOnAPoolRunsAndReportsRows) {
  SorOptions o = sor_base_opts();
  o.threads = 2;
  EXPECT_EQ(SorSolver(o).simd_level(), SimdLevel::kRows);
  EXPECT_EQ(SorSolver(sor_base_opts()).simd_level(), SimdLevel::kScalar);
  EXPECT_EQ(run_sor(o), run_sor(sor_base_opts()));
}

TEST(SorFastPath, UntiledPlanFastPathIsBitIdenticalToo) {
  SorOptions o;  // no plan: naive two-pass schedule
  o.n = 30;
  const double serial = run_sor(o);
  o.threads = 3;
  o.simd = SimdMode::kAuto;
  EXPECT_EQ(run_sor(o), serial);
}

TEST(SorFastPath, FirstTouchArraysStartZeroed) {
  SorOptions o = sor_base_opts();
  o.threads = 3;
  SorSolver s(o);
  const auto& u = s.u();
  for (long k = 0; k < u.n3(); ++k)
    for (long j = 0; j < u.n2(); ++j)
      for (long i = 0; i < u.n1(); ++i) ASSERT_EQ(u(i, j, k), 0.0);
}

TEST(SorFastPath, PhasesAccumulatePerCall) {
  SorOptions o = sor_base_opts();
  SorSolver s(o);
  s.setup();
  s.sweep();
  s.sweep();
  (void)s.residual_linf();
  EXPECT_EQ(s.phases().sweep.count, 2);
  EXPECT_EQ(s.phases().residual.count, 1);
}

TEST(SorStatus, PadSmallerThanNIsRecordedNotSilentlyClamped) {
  // Historical behaviour silently ran unpadded when the plan's pad did not
  // cover n; now the degradation is a typed status with the run proceeding
  // on unpadded dims — and the numerics equal the explicitly-unpadded run.
  SorOptions good;
  good.n = 34;
  const double ref = run_sor(good);

  SorOptions bad = good;
  bad.plan.tiled = true;
  bad.plan.tile = {8, 8};
  bad.plan.dip = 20;  // < n: cannot hold the logical extent
  bad.plan.djp = 40;
  SorSolver s(bad);
  EXPECT_EQ(s.status(), Status::kFellBackUntiled);
  EXPECT_FALSE(s.status_detail().empty());
  EXPECT_EQ(s.u().dims().p1, 34);  // ran unpadded
  s.setup();
  for (int i = 0; i < 4; ++i) s.sweep();
  // Tiling does not change numerics, so the fallback matches the plain
  // unpadded run bit-for-bit.
  EXPECT_EQ(s.residual_linf(), ref);
}

TEST(SorStatus, PaddedAllocationOverflowIsRecorded) {
  SorOptions o;
  o.n = 34;
  o.plan.tiled = true;
  o.plan.tile = {8, 8};
  o.plan.dip = 3L << 30;  // dip * djp * n overflows long
  o.plan.djp = 3L << 30;
  SorSolver s(o);
  EXPECT_EQ(s.status(), Status::kOverflow);
  EXPECT_FALSE(s.status_detail().empty());
  EXPECT_EQ(s.u().dims().p1, 34);  // fell back to unpadded dims
}

TEST(SorStatus, ValidPlanIsOkWithEmptyDetail) {
  SorSolver s(sor_base_opts());
  EXPECT_EQ(s.status(), Status::kOk);
  EXPECT_TRUE(s.status_detail().empty());
  EXPECT_GT(s.u().dims().p1, 34);  // pad applied
}

TEST(SorFastPath, TracedRunsIgnoreThreadsAndSimd) {
  SorOptions o = sor_base_opts();
  o.threads = 4;
  o.simd = SimdMode::kAuto;
  rt::cachesim::CacheHierarchy h = rt::cachesim::CacheHierarchy::ultrasparc2();
  SorSolver s(o, &h);
  EXPECT_EQ(s.threads(), 1);
  EXPECT_EQ(s.simd_level(), SimdLevel::kScalar);
}

}  // namespace
}  // namespace rt::multigrid
