#include "rt/temporal/wavefront.hpp"

#include <algorithm>
#include <barrier>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <system_error>
#include <thread>
#include <vector>

#include "rt/guard/fault_injector.hpp"
#include "rt/kernels/timeskew.hpp"
#include "rt/simd/row_kernels.hpp"

namespace rt::temporal {

namespace {

using rt::array::Array3D;
using rt::core::TemporalPlan;
using rt::simd::SimdLevel;

/// Everything a diamond worker needs, published once spawning settles
/// (workers start before the final thread count — and hence the team
/// shape and barrier sizes — is known).
struct DiamondShared {
  std::mutex m;
  std::condition_variable cv;
  bool ready = false;
  int p = 0;          ///< total threads (spawned workers + caller)
  int teams = 0;      ///< concurrent diamonds
  int team_size = 0;  ///< threads per team; threads >= teams*team_size idle
  std::unique_ptr<std::barrier<>> global;
  std::vector<std::unique_ptr<std::barrier<>>> team_bars;
};

/// One diamond thread.  Schedule (kmax = n3-2 interior planes, width W,
/// chunk of tbc <= tb <= W/2 steps; global step gt writes a when even):
///
///  phase 1 — block d (planes 1+d*W .. min(kmax, (d+1)*W)) runs its
///    descending triangle: local step t sweeps k in [s+t, s+W-1-t].
///    Blocks never touch another block's planes (reads reach one plane
///    past the edge, but only of the opposite-parity array no concurrent
///    stage writes at a conflicting step), so teams run with no global
///    synchronisation; the per-team barrier orders step t before t+1
///    because team members split the J range of the same planes.
///  phase 2 — boundary d (plane 1+d*W, d = 0..nblocks inclusive) fills
///    the inverted triangle: step t sweeps k in [max(1,b-t), b+t-1].
///    Edge reads (r = t-1 and W-t) are exactly the phase-1 finals, and
///    W >= 2*tb keeps concurrent triangles plane-disjoint.
///
/// Every (plane, step) is covered exactly once — the within-block offsets
/// r = (k-1) mod W partition [0, W-1] as [0,t-1] | [t,W-1-t] | [W-t,W-1].
void diamond_thread(int idx, DiamondShared& sh, Array3D<double>& a,
                    Array3D<double>& b, double c, const TemporalPlan& plan,
                    SimdLevel lvl) {
  const long n1 = a.n1(), n2 = a.n2(), n3 = a.n3();
  const long kmax = n3 - 2;
  const long w = std::max(plan.bk, 2L);
  const int tb = std::max(plan.tb, 1);
  const long nblocks = (kmax + w - 1) / w;

  const int g = idx / sh.team_size;
  const int m = idx % sh.team_size;
  const bool in_team = g < sh.teams;
  // Static J split within the team: member m owns [jlo, jhi) of the
  // interior [1, n2-1).  Empty slices still reach every barrier.
  const long jtot = n2 - 2;
  const long jlo = 1 + (jtot * m) / sh.team_size;
  const long jhi = 1 + (jtot * (m + 1)) / sh.team_size;

  for (int t0 = 0; t0 < plan.tsteps; t0 += tb) {
    const int tbc = std::min(tb, plan.tsteps - t0);
    for (int t = 0; t < tbc; ++t) {
      if (in_team) {
        const int gt = t0 + t;
        Array3D<double>& dst = (gt % 2 == 0) ? a : b;
        const Array3D<double>& src = (gt % 2 == 0) ? b : a;
        for (long d = g; d < nblocks; d += sh.teams) {
          const long s = 1 + d * w;
          const long lo = s + t;
          const long hi = std::min(kmax, s + w - 1 - t);
          if (hi >= lo) {
            rt::simd::jacobi_sweep(dst, src, c,
                                   {1, n1 - 1, jlo, jhi, lo, hi + 1}, lvl);
          }
        }
        sh.team_bars[static_cast<std::size_t>(g)]->arrive_and_wait();
      }
    }
    sh.global->arrive_and_wait();
    for (int t = 1; t < tbc; ++t) {
      if (in_team) {
        const int gt = t0 + t;
        Array3D<double>& dst = (gt % 2 == 0) ? a : b;
        const Array3D<double>& src = (gt % 2 == 0) ? b : a;
        for (long d = g; d <= nblocks; d += sh.teams) {
          const long bnd = 1 + d * w;
          const long lo = std::max(1L, bnd - t);
          const long hi = std::min(kmax, bnd + t - 1);
          if (hi >= lo) {
            rt::simd::jacobi_sweep(dst, src, c,
                                   {1, n1 - 1, jlo, jhi, lo, hi + 1}, lvl);
          }
        }
        sh.team_bars[static_cast<std::size_t>(g)]->arrive_and_wait();
      }
    }
    sh.global->arrive_and_wait();
  }
}

}  // namespace

TemporalRun jacobi3d_skew_rows(rt::par::ThreadPool* pool, Array3D<double>& a,
                               Array3D<double>& b, double c,
                               const TemporalPlan& plan, SimdLevel lvl) {
  const long n1 = a.n1(), n2 = a.n2();
  TemporalRun run;
  run.threads = pool ? pool->num_threads() : 1;
  rt::kernels::for_each_skew_stage(
      a.n3(), plan.tsteps, plan.bk, [&](int t, long lo, long hi) {
        Array3D<double>& dst = (t % 2 == 0) ? a : b;
        const Array3D<double>& src = (t % 2 == 0) ? b : a;
        if (run.threads == 1) {
          rt::simd::jacobi_sweep(dst, src, c,
                                 {1, n1 - 1, 1, n2 - 1, lo, hi + 1}, lvl);
          return;
        }
        pool->parallel_for(hi - lo + 1, [&](long kk) {
          rt::simd::jacobi_sweep(dst, src, c,
                                 {1, n1 - 1, 1, n2 - 1, lo + kk, lo + kk + 1},
                                 lvl);
        });  // barrier: stage (kb, t) completes before (kb, t + 1)
      });
  return run;
}

TemporalRun jacobi3d_diamond_rows(Array3D<double>& a, Array3D<double>& b,
                                  double c, const TemporalPlan& plan,
                                  SimdLevel lvl) {
  TemporalRun run;
  if (plan.tsteps <= 0) return run;

  DiamondShared sh;
  const int requested = std::max(plan.threads, 1);
  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(requested - 1));
  auto& inj = rt::guard::FaultInjector::instance();
  for (int i = 1; i < requested; ++i) {
    if (rt::guard::FaultInjector::armed(rt::guard::FaultKind::kThreadSpawn) &&
        inj.should_fail(rt::guard::FaultKind::kThreadSpawn)) {
      break;
    }
    try {
      workers.emplace_back([i, &sh, &a, &b, c, &plan, lvl] {
        {
          std::unique_lock<std::mutex> lock(sh.m);
          sh.cv.wait(lock, [&] { return sh.ready; });
        }
        diamond_thread(i, sh, a, b, c, plan, lvl);
      });
    } catch (const std::system_error&) {
      break;
    }
  }

  // Team shape from the width that actually materialised; spare threads
  // beyond teams*team_size only participate in the global barriers.
  const int p = static_cast<int>(workers.size()) + 1;
  sh.p = p;
  sh.team_size = std::clamp(plan.team, 1, p);
  sh.teams = std::max(1, p / sh.team_size);
  sh.global = std::make_unique<std::barrier<>>(p);
  for (int g = 0; g < sh.teams; ++g) {
    sh.team_bars.push_back(std::make_unique<std::barrier<>>(sh.team_size));
  }
  {
    std::lock_guard<std::mutex> lock(sh.m);
    sh.ready = true;
  }
  sh.cv.notify_all();

  diamond_thread(0, sh, a, b, c, plan, lvl);
  for (auto& w : workers) w.join();
  run.threads = p;
  run.team = sh.team_size;
  return run;
}

void first_touch_zero(rt::par::ThreadPool* pool, Array3D<double>& g) {
  double* base = g.data();
  const long plane = g.dims().plane_stride();
  if (pool == nullptr || pool->num_threads() == 1) {
    std::fill(base, base + g.n3() * plane, 0.0);
    return;
  }
  pool->parallel_for(g.n3(), [&](long k) {
    std::fill(base + k * plane, base + (k + 1) * plane, 0.0);
  });
}

}  // namespace rt::temporal
