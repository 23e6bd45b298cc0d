// Simulated-trace pins: the exact L1/L2 access and miss counts of every
// traced reference path, recorded from the nest-per-schedule kernels the
// block walker (rt/kernels/schedule.hpp) replaced.  Covered: the four paper
// kernels through the bench runner under the flat (Orig), tiled (GcdPad,
// and a small hand-made tile) and recursive (oblivious backend, and a small
// hand-made base tile that bisects both I and J) schedules at two odd
// sizes; a traced MgSolver V-cycle with a tiled RESID/PSINV plan; a traced
// tiled SorSolver sweep; and the time-skewed Jacobi.  Miss counts depend on the order accesses
// reach the cache model, so a walker that visits the same blocks in another
// order (ii outer instead of jj, a flattened recursion) fails here while its
// values stay bit-identical.  The paper's figures and the simulated bench
// columns come from these traces.
//
// Also: a tiled plan whose tile has an extent below 1 runs flat on every
// reference path (runner, traced MgSolver, scalar SorSolver).  Those runs
// sit under a watchdog so a walk that never advances fails instead of
// hanging the suite.

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "rt/array/address_space.hpp"
#include "rt/array/array3d.hpp"
#include "rt/bench/runner.hpp"
#include "rt/cachesim/hierarchy.hpp"
#include "rt/cachesim/traced_array.hpp"
#include "rt/guard/watchdog.hpp"
#include "rt/kernels/kernel_info.hpp"
#include "rt/kernels/timeskew.hpp"
#include "rt/multigrid/mg_solver.hpp"
#include "rt/multigrid/sor_solver.hpp"

namespace {

using rt::array::Array3D;
using rt::bench::RunOptions;
using rt::bench::RunResult;
using rt::cachesim::CacheConfig;
using rt::cachesim::CacheHierarchy;
using rt::cachesim::HierarchyStats;
using rt::core::Backend;
using rt::core::IterTile;
using rt::core::LoopSchedule;
using rt::core::TilingPlan;
using rt::core::Transform;
using rt::kernels::KernelId;

/// Exact counts of one traced run.  The runner reports L1 accesses and the
/// two miss rates; its L2 access count is not exposed (l2_acc = 0 there).
struct Counts {
  std::uint64_t l1_acc, l1_miss, l2_acc, l2_miss;
  bool operator==(const Counts&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Counts& c) {
  return os << "{" << c.l1_acc << ", " << c.l1_miss << ", " << c.l2_acc
            << ", " << c.l2_miss << "}";
}

Counts counts_of(const HierarchyStats& st) {
  return {st.l1.accesses, st.l1.misses, st.l2.accesses, st.l2.misses};
}

/// A miss count back from the runner's percentage (exact: the rate is one
/// division of two integers far below 2^53).
std::uint64_t from_pct(double pct, std::uint64_t accesses) {
  return static_cast<std::uint64_t>(
      std::llround(pct / 100.0 * static_cast<double>(accesses)));
}

Counts counts_of(const RunResult& r) {
  return {r.sim_accesses, from_pct(r.l1_miss_pct, r.sim_accesses), 0,
          from_pct(r.l2_miss_pct, r.sim_accesses)};
}

RunOptions sim_opts() {
  RunOptions o;
  o.time_steps = 1;
  o.k_dim = 16;
  return o;
}

const char* kernel_tag(KernelId id) {
  switch (id) {
    case KernelId::kJacobi: return "JACOBI";
    case KernelId::kRedBlack: return "REDBLACK";
    case KernelId::kResid: return "RESID";
    case KernelId::kPsinv: return "PSINV";
  }
  return "?";
}

/// The plans a kernel is pinned under at side @p n.
std::vector<std::pair<std::string, TilingPlan>> pinned_plans(KernelId id,
                                                             long n) {
  const RunOptions o = sim_opts();
  const auto& spec = rt::kernels::kernel_info(id).spec;
  const auto plan = [&](Backend b, Transform tr) {
    return rt::core::plan_with_backend(b, tr, o.geom(), n, n, spec, o.k_dim)
        .plan;
  };
  // Small hand-made tiles whose neighbours still share lines in L1, so
  // the order blocks are visited in shows in the miss counts.
  const auto small = [n](LoopSchedule s) {
    TilingPlan p;
    p.tiled = true;
    p.tile = IterTile{5, 3};
    p.schedule = s;
    p.dip = p.djp = n;
    return p;
  };
  return {{"flat", plan(Backend::kModel, Transform::kOrig)},
          {"tiled", plan(Backend::kModel, Transform::kGcdPad)},
          {"recursive", plan(Backend::kOblivious, Transform::kGcdPad)},
          {"tiled5x3", small(LoopSchedule::kTiled)},
          {"recursive5x3", small(LoopSchedule::kRecursive)}};
}

struct KernelPin {
  const char* kernel;
  long n;
  const char* schedule;
  Counts expect;
};

// clang-format off
const KernelPin kKernelPins[] = {
    {"JACOBI", 37, "flat", {154350, 52226, 0, 4996}},
    {"JACOBI", 37, "tiled", {154350, 45640, 0, 5390}},
    {"JACOBI", 37, "recursive", {154350, 45878, 0, 4996}},
    {"JACOBI", 37, "tiled5x3", {154350, 48823, 0, 4996}},
    {"JACOBI", 37, "recursive5x3", {154350, 50807, 0, 4996}},
    {"JACOBI", 45, "flat", {232974, 92288, 0, 7424}},
    {"JACOBI", 45, "tiled", {232974, 68596, 0, 7908}},
    {"JACOBI", 45, "recursive", {232974, 91304, 0, 7424}},
    {"JACOBI", 45, "tiled5x3", {232974, 79875, 0, 7424}},
    {"JACOBI", 45, "recursive5x3", {232974, 85147, 0, 7424}},
    {"REDBLACK", 37, "flat", {137200, 26752, 0, 2722}},
    {"REDBLACK", 37, "tiled", {137200, 7234, 0, 2940}},
    {"REDBLACK", 37, "recursive", {137200, 13986, 0, 2722}},
    {"REDBLACK", 37, "tiled5x3", {137200, 10927, 0, 2722}},
    {"REDBLACK", 37, "recursive5x3", {137200, 19603, 0, 2722}},
    {"REDBLACK", 45, "flat", {207088, 67454, 0, 4030}},
    {"REDBLACK", 45, "tiled", {207088, 10754, 0, 4296}},
    {"REDBLACK", 45, "recursive", {207088, 65543, 0, 4030}},
    {"REDBLACK", 45, "tiled5x3", {207088, 55256, 0, 4030}},
    {"REDBLACK", 45, "recursive5x3", {207088, 40088, 0, 4030}},
    {"RESID", 37, "flat", {497350, 36062, 0, 7286}},
    {"RESID", 37, "tiled", {497350, 58666, 0, 7860}},
    {"RESID", 37, "recursive", {497350, 29042, 0, 7286}},
    {"RESID", 37, "tiled5x3", {497350, 37886, 0, 7286}},
    {"RESID", 37, "recursive5x3", {497350, 40927, 0, 7286}},
    {"RESID", 45, "flat", {750694, 286751, 0, 10838}},
    {"RESID", 45, "tiled", {750694, 88266, 0, 11544}},
    {"RESID", 45, "recursive", {750694, 283727, 0, 10838}},
    {"RESID", 45, "tiled5x3", {750694, 253854, 0, 10838}},
    {"RESID", 45, "recursive5x3", {750694, 255725, 0, 10838}},
    {"PSINV", 37, "flat", {497350, 18912, 0, 5012}},
    {"PSINV", 37, "tiled", {497350, 58666, 0, 5410}},
    {"PSINV", 37, "recursive", {497350, 11892, 0, 5012}},
    {"PSINV", 37, "tiled5x3", {497350, 20736, 0, 5012}},
    {"PSINV", 37, "recursive5x3", {497350, 23777, 0, 5012}},
    {"PSINV", 45, "flat", {750694, 260865, 0, 7444}},
    {"PSINV", 45, "tiled", {750694, 88266, 0, 7932}},
    {"PSINV", 45, "recursive", {750694, 257841, 0, 7444}},
    {"PSINV", 45, "tiled5x3", {750694, 227968, 0, 7444}},
    {"PSINV", 45, "recursive5x3", {750694, 229839, 0, 7444}},
};
// clang-format on

TEST(TracePin, PlansHaveTheScheduleTheyArePinnedUnder) {
  for (const KernelId id : {KernelId::kJacobi, KernelId::kRedBlack,
                            KernelId::kResid, KernelId::kPsinv}) {
    for (const long n : {37L, 45L}) {
      const auto plans = pinned_plans(id, n);
      EXPECT_FALSE(plans[0].second.tiled);
      EXPECT_TRUE(plans[1].second.tiled);
      EXPECT_EQ(plans[1].second.schedule, LoopSchedule::kTiled);
      EXPECT_EQ(plans[2].second.schedule, LoopSchedule::kRecursive);
    }
  }
}

TEST(TracePin, KernelsThroughTheRunner) {
  std::string table;
  for (const KernelId id : {KernelId::kJacobi, KernelId::kRedBlack,
                            KernelId::kResid, KernelId::kPsinv}) {
    for (const long n : {37L, 45L}) {
      for (const auto& [name, plan] : pinned_plans(id, n)) {
        const Counts got =
            counts_of(rt::bench::run_kernel_with_plan(id, plan, n, sim_opts()));
        table += std::string("    {\"") + kernel_tag(id) + "\", " +
                 std::to_string(n) + ", \"" + name + "\", {" +
                 std::to_string(got.l1_acc) + ", " +
                 std::to_string(got.l1_miss) + ", 0, " +
                 std::to_string(got.l2_miss) + "}},\n";
        bool found = false;
        for (const KernelPin& p : kKernelPins) {
          if (kernel_tag(id) == std::string(p.kernel) && p.n == n &&
              name == p.schedule) {
            found = true;
            EXPECT_EQ(got, p.expect) << kernel_tag(id) << " n=" << n << " "
                                     << name;
          }
        }
        EXPECT_TRUE(found) << "no pin for " << kernel_tag(id) << " n=" << n
                           << " " << name;
      }
    }
  }
  if (HasFailure()) std::cout << "measured:\n" << table;
}

HierarchyStats traced_vcycle() {
  CacheHierarchy hier(CacheConfig::ultrasparc2_l1(),
                      CacheConfig::ultrasparc2_l2());
  rt::multigrid::MgOptions o;
  o.lt = 4;
  o.resid_plan.tiled = true;
  o.resid_plan.tile = IterTile{5, 3};
  o.resid_plan.schedule = LoopSchedule::kTiled;
  o.tile_psinv = true;
  rt::multigrid::MgSolver s(o, &hier);
  s.setup();
  s.iterate();
  return hier.stats();
}

TEST(TracePin, TracedMgSolverVCycle) {
  EXPECT_EQ(counts_of(traced_vcycle()), (Counts{470744, 53074, 53074, 2507}));
}

TEST(TracePin, TracedTiledSorSweep) {
  CacheHierarchy hier(CacheConfig::ultrasparc2_l1(),
                      CacheConfig::ultrasparc2_l2());
  rt::multigrid::SorOptions o;
  o.n = 29;
  o.plan.tiled = true;
  o.plan.tile = IterTile{6, 4};
  o.plan.schedule = LoopSchedule::kTiled;
  rt::multigrid::SorSolver s(o, &hier);
  s.setup();
  s.sweep();
  EXPECT_EQ(counts_of(hier.stats()), (Counts{177147, 22782, 22782, 5695}));
}

TEST(TracePin, TracedJacobiTimeSkew) {
  CacheHierarchy hier(CacheConfig::ultrasparc2_l1(),
                      CacheConfig::ultrasparc2_l2());
  Array3D<double> a(33, 27, 21), b(33, 27, 21);
  for (long k = 0; k < b.n3(); ++k) {
    for (long j = 0; j < b.n2(); ++j) {
      for (long i = 0; i < b.n1(); ++i) b(i, j, k) = 0.01 * (i + 2 * j + 3 * k);
    }
  }
  rt::array::AddressSpace space(0, 64);
  const auto elems = static_cast<std::uint64_t>(a.dims().alloc_elems());
  rt::cachesim::TracedArray3D<double> ta(a, space.place("a", elems), hier);
  rt::cachesim::TracedArray3D<double> tb(b, space.place("b", elems), hier);
  rt::kernels::jacobi3d_timeskew(ta, tb, 1.0 / 6.0, 3, 4);
  EXPECT_EQ(counts_of(hier.stats()), (Counts{309225, 63073, 63073, 4650}));
}

// --- Degenerate tiles run flat, under a watchdog. ---

constexpr auto kDeadline = std::chrono::seconds(20);

/// Run @p fn on a supervised thread; false when it missed the deadline.
bool finishes(std::function<void()> fn) {
  return rt::guard::run_with_deadline(std::move(fn), kDeadline).completed;
}

/// An unpadded plan for side @p n (the runner allocates dip x djp).
TilingPlan unpadded(long n) {
  TilingPlan p;
  p.dip = p.djp = n;
  return p;
}

TilingPlan degenerate(IterTile t, long n = 0) {
  TilingPlan p = unpadded(n);
  p.tiled = true;
  p.tile = t;
  p.schedule = LoopSchedule::kTiled;
  return p;
}

const IterTile kDegenerateTiles[] = {{0, 8}, {8, 0}, {-3, 4}};

TEST(DegenerateTile, RunnerSimulationMatchesTheFlatTrace) {
  RunOptions o = sim_opts();
  o.timeout_seconds = 20;
  for (const KernelId id : {KernelId::kJacobi, KernelId::kRedBlack,
                            KernelId::kResid, KernelId::kPsinv}) {
    const Counts flat =
        counts_of(rt::bench::run_kernel_with_plan(id, unpadded(17), 17, o));
    for (const IterTile t : kDegenerateTiles) {
      const RunResult r =
          rt::bench::run_kernel_with_plan(id, degenerate(t, 17), 17, o);
      ASSERT_EQ(r.status, rt::guard::Status::kOk)
          << kernel_tag(id) << " tile " << t.ti << "x" << t.tj << ": "
          << r.status_detail;
      EXPECT_EQ(counts_of(r), flat) << kernel_tag(id);
    }
  }
}

/// One serial accessor step (--simd=off) of @p id on fresh 17^2 x 9 grids.
std::vector<Array3D<double>> scalar_step(KernelId id, const TilingPlan& plan) {
  std::vector<Array3D<double>> a;
  for (int q = 0; q < rt::kernels::kernel_info(id).num_arrays; ++q) {
    a.emplace_back(17, 17, 9);
    Array3D<double>& g = a.back();
    for (long k = 0; k < g.n3(); ++k) {
      for (long j = 0; j < g.n2(); ++j) {
        for (long i = 0; i < g.n1(); ++i) {
          g(i, j, k) = std::sin(0.3 * q + 0.1 * i + 0.2 * j + 0.3 * k);
        }
      }
    }
  }
  rt::bench::host_step(id, plan, a,
                       {nullptr, rt::simd::SimdLevel::kScalar});
  return a;
}

bool same_bits(const std::vector<Array3D<double>>& x,
               const std::vector<Array3D<double>>& y) {
  for (std::size_t q = 0; q < x.size(); ++q) {
    for (long k = 0; k < x[q].n3(); ++k) {
      for (long j = 0; j < x[q].n2(); ++j) {
        for (long i = 0; i < x[q].n1(); ++i) {
          if (x[q](i, j, k) != y[q](i, j, k)) return false;
        }
      }
    }
  }
  return true;
}

TEST(DegenerateTile, ScalarHostStepIsBitIdenticalToFlat) {
  for (const KernelId id : {KernelId::kJacobi, KernelId::kRedBlack,
                            KernelId::kResid, KernelId::kPsinv}) {
    const auto flat = scalar_step(id, TilingPlan{});
    for (const IterTile t : kDegenerateTiles) {
      // The worker owns its result until it completes; an abandoned one
      // keeps the shared block alive and is never read.
      auto out = std::make_shared<std::pair<std::mutex,
                                            std::vector<Array3D<double>>>>();
      ASSERT_TRUE(finishes([out, id, t] {
        auto r = scalar_step(id, degenerate(t));
        std::lock_guard<std::mutex> lk(out->first);
        out->second = std::move(r);
      })) << kernel_tag(id) << " tile " << t.ti << "x" << t.tj;
      std::lock_guard<std::mutex> lk(out->first);
      EXPECT_TRUE(same_bits(flat, out->second)) << kernel_tag(id);
    }
  }
  // The runner's host timing path at --simd=off runs the same step.
  RunOptions o;
  o.simulate = false;
  o.time_host = true;
  o.min_host_seconds = 0;
  o.k_dim = 9;
  o.timeout_seconds = 20;
  for (const KernelId id : {KernelId::kJacobi, KernelId::kRedBlack,
                            KernelId::kResid, KernelId::kPsinv}) {
    const RunResult r =
        rt::bench::run_kernel_with_plan(id, degenerate({0, 8}, 17), 17, o);
    EXPECT_EQ(r.status, rt::guard::Status::kOk) << r.status_detail;
    EXPECT_EQ(r.simd, rt::simd::SimdLevel::kScalar);
  }
}

TEST(DegenerateTile, TracedMgSolverRunsFlat) {
  const auto run = [](const TilingPlan& plan) {
    CacheHierarchy hier(CacheConfig::ultrasparc2_l1(),
                        CacheConfig::ultrasparc2_l2());
    rt::multigrid::MgOptions o;
    o.lt = 4;
    o.resid_plan = plan;
    o.tile_psinv = true;
    rt::multigrid::MgSolver s(o, &hier);
    s.setup();
    const double norm = s.iterate();
    return std::make_pair(norm, counts_of(hier.stats()));
  };
  const auto flat = run(TilingPlan{});
  auto out = std::make_shared<
      std::pair<std::mutex, std::pair<double, Counts>>>();
  ASSERT_TRUE(finishes([out, run] {
    const auto r = run(degenerate({0, 4}));
    std::lock_guard<std::mutex> lk(out->first);
    out->second = r;
  }));
  std::lock_guard<std::mutex> lk(out->first);
  EXPECT_EQ(out->second.first, flat.first);
  EXPECT_EQ(out->second.second, flat.second);
}

TEST(DegenerateTile, ScalarSorSolverRunsFlat) {
  const auto run = [](const TilingPlan& plan) {
    rt::multigrid::SorOptions o;
    o.n = 19;
    o.plan = plan;
    rt::multigrid::SorSolver s(o);
    s.setup();
    s.sweep();
    s.sweep();
    return s.u();
  };
  const Array3D<double> flat = run(TilingPlan{});
  for (const IterTile t : kDegenerateTiles) {
    auto out = std::make_shared<std::pair<std::mutex, Array3D<double>>>();
    ASSERT_TRUE(finishes([out, run, t] {
      Array3D<double> u = run(degenerate(t));
      std::lock_guard<std::mutex> lk(out->first);
      out->second = std::move(u);
    })) << "tile " << t.ti << "x" << t.tj;
    std::lock_guard<std::mutex> lk(out->first);
    EXPECT_TRUE(same_bits({flat}, {out->second}));
  }
}

}  // namespace
