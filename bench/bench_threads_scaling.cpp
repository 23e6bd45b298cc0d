// Threads x tile-shape scaling of the host executor (rt/simd/execute.hpp):
// host wall-clock MFlops for JACOBI / REDBLACK / RESID under every paper
// transform, at 1..T threads.  The point being tested: the JI tile grid is
// an embarrassingly parallel work unit (K stays untiled), so Euc3D/GcdPad/
// Pad-chosen tiles keep their per-core cache benefit while the grid is
// spread over cores — tiled configurations should scale at least as well
// as Orig and stay ahead of it at every thread count.
//
// Before timing, each kernel's executor run (serial and parallel, baseline
// rows and the auto level) is checked bit-for-bit against the serial
// accessor reference at the benched size.
//
// Flags: --threads=T sets the top of the thread sweep ({1, 2, 4, ..., T});
// default sweep is {1, 2, 4}.  --nmax=N overrides the problem size
// (default 400, the acceptance size); --host is implied.  --simd=MODE
// restricts the SIMD axis (default sweeps off AND auto: off is the scalar
// accessor reference at 1 thread and the baseline rows stamp beyond).

#include <chrono>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "rt/array/array3d.hpp"
#include "rt/bench/options.hpp"
#include "rt/bench/runner.hpp"
#include "rt/bench/table.hpp"
#include "rt/core/plan.hpp"
#include "rt/core/plan_cache.hpp"
#include "rt/core/temporal.hpp"
#include "rt/kernels/kernel_info.hpp"
#include "rt/kernels/timeskew.hpp"
#include "rt/simd/execute.hpp"
#include "rt/temporal/wavefront.hpp"

namespace {

using rt::array::Array3D;
using rt::array::Dims3;
using rt::core::Transform;
using rt::kernels::KernelId;
using rt::simd::ExecPolicy;
using rt::simd::SimdLevel;

std::vector<int> thread_sweep(int requested) {
  if (requested <= 1 && requested != 0) return {1};
  if (requested <= 1) return {1, 2, 4};
  std::vector<int> ts{1};
  for (int t = 2; t < requested; t *= 2) ts.push_back(t);
  ts.push_back(requested);
  return ts;
}

Array3D<double> make_grid(const Dims3& d, double seed) {
  Array3D<double> a(d);
  for (long k = 0; k < a.n3(); ++k) {
    for (long j = 0; j < a.n2(); ++j) {
      for (long i = 0; i < a.n1(); ++i) {
        a(i, j, k) = seed + 0.001 * static_cast<double>(i) +
                     0.002 * static_cast<double>(j) +
                     0.003 * static_cast<double>(k);
      }
    }
  }
  return a;
}

bool interiors_equal(const Array3D<double>& a, const Array3D<double>& b) {
  for (long k = 0; k < a.n3(); ++k) {
    for (long j = 0; j < a.n2(); ++j) {
      for (long i = 0; i < a.n1(); ++i) {
        if (a(i, j, k) != b(i, j, k)) return false;  // bitwise
      }
    }
  }
  return true;
}

const struct {
  KernelId kid;
  const char* name;
} kKernels[] = {{KernelId::kJacobi, "JACOBI"},
                {KernelId::kRedBlack, "REDBLACK"},
                {KernelId::kResid, "RESID"},
                {KernelId::kPsinv, "PSINV"}};

/// One step of each kernel at the benched size through the executor —
/// serially and on the pool, at the baseline rows stamp and at the host's
/// auto level — against the serial accessor reference (red-black's
/// two-pass colour schedule against the serial fused tiled one, which
/// tests/kernels_test.cpp shows bit-identical).  Returns false (and
/// reports) on any bitwise difference.
bool verify_bit_identical(long n, long kd, int threads) {
  const auto plan = rt::core::plan_for(Transform::kGcdPad, 2048, n, n,
                                       rt::core::StencilSpec::jacobi3d());
  const Dims3 d = Dims3::padded(n, n, kd, plan.dip, plan.djp);
  rt::par::ThreadPool pool(threads);
  const SimdLevel best = rt::simd::resolve(rt::simd::SimdMode::kAuto);
  const ExecPolicy policies[] = {
      {nullptr, best}, {&pool, SimdLevel::kRows}, {&pool, best}};
  bool ok = true;
  for (const auto& kn : kKernels) {
    const auto fresh = [&] {
      std::vector<Array3D<double>> a;
      for (int i = 0; i < rt::kernels::kernel_info(kn.kid).num_arrays; ++i) {
        a.push_back(make_grid(d, 0.1 + 0.3 * i));
      }
      return a;
    };
    std::vector<Array3D<double>> ref = fresh();
    rt::bench::host_step(kn.kid, plan, ref, {nullptr, SimdLevel::kScalar});
    for (const ExecPolicy& pol : policies) {
      std::vector<Array3D<double>> got = fresh();
      rt::bench::host_step(kn.kid, plan, got, pol);
      for (std::size_t i = 0; i < ref.size(); ++i) {
        if (!interiors_equal(ref[i], got[i])) {
          std::cerr << "VERIFY FAILED: " << kn.name << " at simd "
                    << rt::simd::simd_level_name(pol.lvl) << " on "
                    << (pol.pool ? pol.pool->num_threads() : 1)
                    << " thread(s) differs from the serial reference\n";
          ok = false;
          break;
        }
      }
    }
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  const rt::bench::BenchOptions bo = rt::bench::parse_options(argc, argv);
  const long n = bo.nmax > 0 ? bo.nmax : 400;
  const std::vector<int> threads = thread_sweep(bo.threads);

  rt::bench::RunOptions ro;
  ro.simulate = false;
  ro.time_host = true;
  ro.verify = bo.verify;
  ro.timeout_seconds = bo.timeout_seconds;
  ro.backend = bo.resolved_backend(ro.geom());

  const int vthreads = std::max(threads.back(), 4);
  if (!verify_bit_identical(n, ro.k_dim, vthreads)) return 1;
  std::cout << "verified: executor (serial + parallel, rows + auto) "
               "bit-identical to the serial reference at N="
            << n << " with " << vthreads << " threads\n\n";

  const std::vector<rt::simd::SimdMode> simd_modes =
      bo.simd_given ? std::vector<rt::simd::SimdMode>{bo.simd}
                    : std::vector<rt::simd::SimdMode>{
                          rt::simd::SimdMode::kOff, rt::simd::SimdMode::kAuto};

  const std::vector<Transform> transforms = {
      Transform::kOrig, Transform::kTile, Transform::kEuc3d,
      Transform::kGcdPad, Transform::kPad};
  std::vector<std::vector<std::string>> rows;
  long skipped_fallback = 0;
  for (const auto& kn : kKernels) {
    for (Transform tr : transforms) {
      for (rt::simd::SimdMode sm : simd_modes) {
        ro.simd = sm;
        double base_mflops = 0;
        for (int t : threads) {
          ro.threads = t;
          const auto r = rt::bench::run_kernel(kn.kid, tr, n, ro);
          // A configuration that ran below what was requested (a failed
          // thread spawn, a degraded plan) would print a row masquerading
          // as a real data point — skip it and say so below.
          if (r.degraded()) {
            ++skipped_fallback;
            continue;
          }
          if (t == 1) base_mflops = r.host_mflops;
          const std::string tile =
              r.plan.tiled ? std::to_string(r.plan.tile.ti) + "x" +
                                 std::to_string(r.plan.tile.tj)
                           : "-";
          rows.push_back({kn.name, std::string(rt::core::transform_name(tr)),
                          tile, rt::simd::simd_level_name(r.simd),
                          std::to_string(t),
                          rt::bench::fmt(r.host_mflops, 1),
                          rt::bench::fmt(base_mflops > 0
                                             ? r.host_mflops / base_mflops
                                             : 0.0,
                                         2)});
        }
      }
    }
  }
  std::cout << "Thread scaling, N=" << n << " (K=" << ro.k_dim
            << "), host wall-clock:\n";
  rt::bench::print_table(
      {"kernel", "transform", "tile", "simd", "threads", "MFlops", "speedup"},
      rows);
  std::cout << "\nspeedup is vs. the 1-thread run of the same (kernel, "
               "transform); hardware_concurrency on this host = "
            << rt::par::ThreadPool::default_threads() << "\n";
  if (skipped_fallback > 0) {
    std::cout << "skipped " << skipped_fallback
              << " degraded configurations (ran below the requested "
                 "threads/simd or on a fallback plan)\n";
  }

  // --- Temporal-blocking thread scaling (rt::temporal wavefronts) ---
  // Same thread sweep over the skew and diamond schedules, each verified
  // bitwise against the serial ping-pong reference at every width.
  // Degraded configurations (infeasible plan, failed thread spawn) are
  // routed into the skipped count like the degraded rows above.
  if (!bo.temporal_given || bo.temporal != rt::core::TemporalMode::kOff) {
    const long kd = ro.k_dim;
    const int tsteps = bo.steps > 2 ? bo.steps : 4;
    const auto lvl = rt::simd::resolve(
        bo.simd_given ? bo.simd : rt::simd::SimdMode::kAuto);
    const long cs = rt::bench::outer_cache_elems();
    const Dims3 d = Dims3::unpadded(n, n, kd);
    auto& cache = rt::core::PlanCache::instance();
    const auto secs = [] {
      return std::chrono::duration<double>(
                 std::chrono::steady_clock::now().time_since_epoch())
          .count();
    };
    const double flops =
        6.0 * static_cast<double>(n - 2) * (n - 2) * (kd - 2) * tsteps;

    Array3D<double> ra(d), rb = make_grid(d, 0.5);
    const double t0 = secs();
    rt::kernels::jacobi3d_pingpong(ra, rb, 1.0 / 6.0, tsteps);
    const double ref_mflops = flops / (secs() - t0) / 1e6;

    std::vector<std::vector<std::string>> trows;
    trows.push_back({"pingpong", "serial", "1", "1",
                     rt::bench::fmt(ref_mflops, 1), "reference"});
    long tskipped = 0;
    bool tdiverged = false;
    for (const auto mode :
         {rt::core::TemporalMode::kSkew, rt::core::TemporalMode::kDiamond}) {
      if (bo.temporal_given && bo.temporal != mode) continue;
      for (int t : threads) {
        const auto rep =
            cache.temporal(mode, cs, n, n, kd, tsteps, bo.bk, t);
        if (!rep.ok()) {
          ++tskipped;
          continue;
        }
        Array3D<double> a(d), b = make_grid(d, 0.5);
        rt::temporal::TemporalRun run;
        const double t1 = secs();
        if (mode == rt::core::TemporalMode::kSkew) {
          rt::par::ThreadPool pool(t);
          run = rt::temporal::jacobi3d_skew_rows(t > 1 ? &pool : nullptr, a,
                                                 b, 1.0 / 6.0, rep.plan, lvl);
        } else {
          run = rt::temporal::jacobi3d_diamond_rows(a, b, 1.0 / 6.0,
                                                    rep.plan, lvl);
        }
        const double dt = secs() - t1;
        if (run.threads < rep.plan.threads) {
          ++tskipped;  // thread spawn degraded: recorded, not reported
          continue;
        }
        if (!interiors_equal(a, ra) || !interiors_equal(b, rb)) {
          std::cerr << "VERIFY FAILED: temporal "
                    << rt::core::temporal_mode_name(mode)
                    << " differs from serial ping-pong at " << t
                    << " threads\n";
          tdiverged = true;
          continue;
        }
        trows.push_back({rt::core::temporal_mode_name(mode),
                         std::to_string(rep.plan.bk) + "/" +
                             std::to_string(rep.plan.tb),
                         std::to_string(run.threads),
                         std::to_string(run.team),
                         rt::bench::fmt(flops / dt / 1e6, 1),
                         "bitwise identical"});
      }
    }
    std::cout << "\nTemporal blocking (tsteps=" << tsteps << ", N=" << n
              << ", K=" << kd << "), host wall-clock:\n";
    rt::bench::print_table(
        {"schedule", "bk/tb", "threads", "team", "MFlops", "verify"}, trows);
    if (tskipped > 0) {
      std::cout << "skipped " << tskipped
                << " degraded temporal configuration(s) (infeasible plan "
                   "or thread-spawn fallback)\n";
    }
    if (tdiverged) return 1;
  }
  return 0;
}
