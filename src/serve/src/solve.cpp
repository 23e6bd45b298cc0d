#include "rt/serve/solve.hpp"

#include <cmath>
#include <new>
#include <stdexcept>

#include "rt/core/cache_topology.hpp"
#include "rt/guard/fault_injector.hpp"
#include "rt/kernels/kernel_info.hpp"
#include "rt/kernels/resid.hpp"
#include "rt/multigrid/mg_solver.hpp"
#include "rt/multigrid/sor_solver.hpp"
#include "rt/simd/execute.hpp"

namespace rt::serve {

namespace {

using rt::array::Array3D;
using rt::array::Dims3;
using rt::core::TilingPlan;
using rt::guard::Status;
using rt::simd::Box;
using rt::simd::SimdLevel;

/// The runner's deterministic grid init, replicated bit-for-bit (tests
/// compare served checksums against grids initialized by this formula and
/// stepped by the same kernels).  Writes the logical region only.
void init_grid(Array3D<double>& a, double scale, rt::par::ThreadPool* pool) {
  auto init_plane = [&a, scale](long k) {
    for (long j = 0; j < a.dims().n2; ++j) {
      for (long i = 0; i < a.dims().n1; ++i) {
        a(i, j, k) = scale * (0.001 * static_cast<double>(i) +
                              0.002 * static_cast<double>(j) +
                              0.003 * static_cast<double>(k));
      }
    }
  };
  if (pool != nullptr && pool->num_threads() > 1) {
    pool->parallel_for(a.dims().n3, init_plane);
  } else {
    for (long k = 0; k < a.dims().n3; ++k) init_plane(k);
  }
}

/// One relaxed load per sweep, same as the runner's measured loop: lets
/// RT_GUARD_FAULTS=hang wedge a served solve so the deadline/abandonment
/// machinery can be tested end to end.
void hang_check() {
  if (rt::guard::FaultInjector::armed(rt::guard::FaultKind::kHang)) {
    rt::guard::FaultInjector::instance().hang_point();
  }
}

rt::kernels::KernelId kernel_id_of(ServeKernel k) {
  switch (k) {
    case ServeKernel::kJacobi:
      return rt::kernels::KernelId::kJacobi;
    case ServeKernel::kRedBlack:
      return rt::kernels::KernelId::kRedBlack;
    case ServeKernel::kResid:
    case ServeKernel::kMgrid:  // MGRID plans its finest-level RESID
      return rt::kernels::KernelId::kResid;
    case ServeKernel::kSor:  // SOR plans its red-black sweep
      return rt::kernels::KernelId::kRedBlack;
  }
  return rt::kernels::KernelId::kJacobi;
}

SolveOutcome solve_kernels(const SolveParams& p, const TilingPlan& plan,
                           std::vector<Array3D<double>>& arrays,
                           rt::par::ThreadPool* pool) {
  SolveOutcome out;
  const int want = num_arrays_for(p.kernel);
  if (static_cast<int>(arrays.size()) < want) {
    out.status = Status::kInvalidArgument;
    out.detail = "internal: batch allocated too few arrays";
    return out;
  }
  for (int i = 0; i < want; ++i) {
    init_grid(arrays[static_cast<std::size_t>(i)], 1.0 / (1.0 + i), pool);
  }
  // The row sweeps through the executor, on the pool when there is one;
  // serve is never traced, so the accessor reference never runs here.
  const SimdLevel lvl = rt::simd::resolve(rt::simd::SimdMode::kAuto);
  const rt::simd::ExecPolicy pol{pool, lvl};

  switch (p.kernel) {
    case ServeKernel::kJacobi: {
      const double c = 1.0 / 6.0;
      Array3D<double>& a = arrays[0];
      Array3D<double>& b = arrays[1];
      for (int t = 0; t < p.tsteps; ++t) {
        hang_check();
        rt::simd::execute(pol, plan, a, [&](const Box& x) {
          rt::simd::jacobi_sweep(a, b, c, x, lvl);
        });
        rt::simd::execute(pol, TilingPlan{}, b, [&](const Box& x) {
          rt::simd::copy_sweep(b, a, x, lvl);
        });
      }
      break;
    }
    case ServeKernel::kRedBlack: {
      const double c1 = 0.4, c2 = 0.1;
      Array3D<double>& a = arrays[0];
      for (int t = 0; t < p.tsteps; ++t) {
        hang_check();
        for (long parity = 0; parity < 2; ++parity) {
          rt::simd::execute(pol, plan, a, [&](const Box& x) {
            rt::simd::redblack_sweep(a, c1, c2, parity, x, lvl);
          });
        }
      }
      break;
    }
    case ServeKernel::kResid: {
      const rt::kernels::ResidCoeffs a = rt::kernels::nas_mg_a();
      Array3D<double>& r = arrays[0];
      Array3D<double>& v = arrays[1];
      Array3D<double>& u = arrays[2];
      for (int t = 0; t < p.tsteps; ++t) {
        hang_check();
        rt::simd::execute(pol, plan, r, [&](const Box& x) {
          rt::simd::resid_sweep(r, v, u, a, x, lvl);
        });
      }
      break;
    }
    default:
      out.status = Status::kInvalidArgument;
      out.detail = "internal: app kernel routed to solve_kernels";
      return out;
  }
  out.iters = p.tsteps;
  out.checksum = checksum_region(arrays[0]);
  return out;
}

SolveOutcome solve_mgrid(const SolveParams& p, const TilingPlan& plan,
                         int app_threads) {
  SolveOutcome out;
  // n = 2^lt + 2 (the NAS-MG shape the V-cycle hierarchy needs).
  const long side = p.n - 2;
  int lt = 0;
  while ((1L << (lt + 1)) <= side) ++lt;
  if (side < 4 || (1L << lt) != side) {
    out.status = Status::kInvalidArgument;
    out.detail = "MGRID needs n = 2^lt + 2 with n >= 6";
    return out;
  }
  if (p.k != 0 && p.k != p.n) {
    out.status = Status::kInvalidArgument;
    out.detail = "MGRID grids are cubic: omit 'k' or set it to n";
    return out;
  }
  rt::multigrid::MgOptions mo;
  mo.lt = lt;
  mo.resid_plan = plan;
  mo.seed = p.seed;
  mo.threads = app_threads;
  mo.simd = rt::simd::SimdMode::kAuto;
  hang_check();
  rt::multigrid::MgSolver solver(mo);
  solver.setup();
  double rnorm = 0;
  int iters = 0;
  for (int t = 0; t < p.tsteps; ++t) {
    hang_check();
    solver.iterate();
    ++iters;
    if (p.tol > 0) {
      rnorm = solver.residual_norm();
      if (rnorm < p.tol) break;
    }
  }
  if (p.tol <= 0) rnorm = solver.residual_norm();
  out.iters = iters;
  out.residual = rnorm;
  out.checksum = checksum_region(solver.u());
  return out;
}

SolveOutcome solve_sor(const SolveParams& p, const TilingPlan& plan,
                       int app_threads) {
  SolveOutcome out;
  if (p.k != 0 && p.k != p.n) {
    out.status = Status::kInvalidArgument;
    out.detail = "SOR grids are cubic: omit 'k' or set it to n";
    return out;
  }
  rt::multigrid::SorOptions so;
  so.n = p.n;
  so.plan = plan;
  so.threads = app_threads;
  so.simd = rt::simd::SimdMode::kAuto;
  hang_check();
  rt::multigrid::SorSolver solver(so);
  solver.setup(p.seed);
  // tol == 0 disables convergence exit: residual_linf() is never negative,
  // so solve(0, tsteps) runs the full sweep budget like the batch bench.
  out.iters = solver.solve(p.tol, p.tsteps);
  out.residual = solver.residual_linf();
  out.checksum = checksum_region(solver.u());
  return out;
}

}  // namespace

BatchKey batch_key_of(const SolveParams& p) {
  BatchKey key;
  key.kernel = p.kernel;
  key.n = p.n;
  key.k = p.k > 0 ? p.k : p.n;
  key.transform = p.transform;
  return key;
}

int num_arrays_for(ServeKernel k) {
  switch (k) {
    case ServeKernel::kJacobi:
    case ServeKernel::kRedBlack:
    case ServeKernel::kResid:
      return rt::kernels::kernel_info(kernel_id_of(k)).num_arrays;
    case ServeKernel::kMgrid:
    case ServeKernel::kSor:
      return 0;
  }
  return 0;
}

long serve_cs_elems() {
  const rt::core::CacheTopology& topo = rt::core::host_cache_topology();
  long best = 0;
  for (const rt::core::CacheLevelInfo& l : topo.levels) {
    if (l.level == 1 && (l.type == 'D' || l.type == 'U')) {
      best = l.size_bytes / 8;
    }
  }
  return best > 0 ? best : 32768 / 8;
}

rt::core::PlanReport plan_for_batch(const BatchKey& key, long cs,
                                    rt::core::PlanCache* cache) {
  const rt::core::StencilSpec& spec =
      rt::kernels::kernel_info(kernel_id_of(key.kernel)).spec;
  // Apps plan their sweep at the full grid side; kernel paths at (n, n)
  // with k as the overflow-checked third extent — the same call the batch
  // binaries make, so a rt::tune-pinned winner hits here too.
  const long di = key.n, dj = key.n;
  const long n3 = key.kernel == ServeKernel::kMgrid ||
                          key.kernel == ServeKernel::kSor
                      ? key.n
                      : key.k;
  return cache != nullptr
             ? cache->plan(key.transform, cs, di, dj, spec, n3)
             : rt::core::plan_for_checked(key.transform, cs, di, dj, spec, n3);
}

rt::array::Dims3 batch_dims(const BatchKey& key, const TilingPlan& plan) {
  if (num_arrays_for(key.kernel) == 0) {
    return Dims3::unpadded(key.n, key.n, key.n);
  }
  return Dims3::padded(key.n, key.n, key.k, plan.dip, plan.djp);
}

SolveOutcome run_solve(const SolveParams& p, const TilingPlan& plan,
                       std::vector<Array3D<double>>* arrays,
                       rt::par::ThreadPool* pool, int app_threads) {
  try {
    switch (p.kernel) {
      case ServeKernel::kMgrid:
        return solve_mgrid(p, plan, app_threads);
      case ServeKernel::kSor:
        return solve_sor(p, plan, app_threads);
      default: {
        SolveOutcome out;
        if (arrays == nullptr) {
          out.status = Status::kInvalidArgument;
          out.detail = "internal: kernel path needs batch arrays";
          return out;
        }
        return solve_kernels(p, plan, *arrays, pool);
      }
    }
  } catch (const std::bad_alloc&) {
    SolveOutcome out;
    out.status = Status::kAllocFailed;
    out.detail = "allocation failed during solve";
    return out;
  } catch (const std::exception& e) {
    SolveOutcome out;
    out.status = Status::kInvalidArgument;
    out.detail = std::string("solve failed: ") + e.what();
    return out;
  }
}

}  // namespace rt::serve
