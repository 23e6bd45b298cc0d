#pragma once
// Red-black SOR Poisson solver: a second whole application built on the
// paper's kernels.  Where MGRID exercises RESID, this exercises REDBLACK —
// the kernel with the paper's largest tiling gains (Table 3: 120%+) —
// at application level: solve  ∇²u = f  on a Dirichlet box by red-black
// successive over-relaxation, optionally with the paper's fused+tiled
// schedule and padded arrays.
//
// The SOR update with relaxation factor w on a unit-spaced grid is
//   u <- (1 - w) u + (w / 6) (sum of 6 neighbours - h^2 f)
// which maps onto rt::kernels::rb_update with c1 = 1 - w, c2 = w / 6 when
// f = 0; the general f term is folded in by pre-scaling (see .cpp).
// Tiled and untiled runs are bitwise identical (tests assert it).
//
// Host fast path (threads/simd options): each colour of a sweep runs the
// rt::simd red-black row sweep through the executor (rt/simd/execute.hpp;
// K planes, or the plan's tile grid), on a pool when threads > 1 — still
// bit-identical to the serial kernels (one executor call per colour is the
// colour barrier).  The accessor kernels run when traced, or serially with
// simd off.  Arrays are first-touch initialized on the pool for NUMA
// placement.
//
// Plan validation: a plan whose pad (dip/djp) does not cover the logical
// extent n cannot be applied; instead of silently clamping to unpadded
// dims (the historical behaviour), the constructor records
// Status::kFellBackUntiled — and kOverflow when the padded allocation size
// does not fit a long (Dims3::checked_alloc_elems) — and proceeds
// unpadded.  status()/status_detail() expose the outcome.

#include <cstdint>
#include <string>

#include "rt/array/array3d.hpp"
#include "rt/cachesim/hierarchy.hpp"
#include "rt/core/plan.hpp"
#include "rt/guard/status.hpp"
#include "rt/obs/phase_timer.hpp"
#include "rt/par/thread_pool.hpp"
#include "rt/simd/simd.hpp"

#include <memory>

namespace rt::multigrid {

struct SorOptions {
  long n = 66;          ///< grid points per side (incl. boundary)
  double omega = 1.5;   ///< over-relaxation factor (1 = Gauss-Seidel)
  /// Tiling plan for the sweeps (tiled == false -> naive two-pass).
  rt::core::TilingPlan plan{};
  /// Host fast path: execution width of the sweeps (1 = serial, <= 0 =
  /// all hardware threads).  Ignored under trace-driven simulation.
  int threads = 1;
  /// Host fast path: SIMD row-kernel mode (kOff keeps the accessor kernels
  /// when serial; on a pool it runs the baseline rows stamp).
  rt::simd::SimdMode simd = rt::simd::SimdMode::kOff;
};

class SorSolver {
 public:
  explicit SorSolver(const SorOptions& opts,
                     rt::cachesim::CacheHierarchy* hier = nullptr);

  /// Set a deterministic RHS (point charges) and zero Dirichlet boundary.
  void setup(std::uint64_t seed = 42, int charges = 8);

  /// One full red-black sweep (both colours).
  void sweep();

  /// Residual max-norm of  ∇²u - f  over the interior.
  double residual_linf();

  /// Sweeps until residual < tol or max_sweeps; returns sweeps executed.
  int solve(double tol, int max_sweeps);

  const rt::array::Array3D<double>& u() const { return u_; }
  std::uint64_t flops() const { return flops_; }

  /// Construction outcome: kOk, or the degradation the solver applied
  /// (kFellBackUntiled: plan pad smaller than n dropped; kOverflow:
  /// padded allocation size overflowed, dims fell back to unpadded).
  rt::guard::Status status() const { return status_; }
  const std::string& status_detail() const { return detail_; }

  /// Actual execution width (1 when serial or trace-driven).
  int threads() const { return pool_ ? pool_->num_threads() : 1; }
  /// Resolved SIMD level of the fast path (kScalar when the accessor
  /// kernels run: traced, or serial with simd off).
  rt::simd::SimdLevel simd_level() const { return lvl_; }

  /// Wall-clock phase timings accumulated across all calls.
  struct Phases {
    rt::obs::PhaseStats sweep, residual;
  };
  const Phases& phases() const { return phases_; }

 private:
  void first_touch_zero(rt::array::Array3D<double>& g);

  SorOptions opts_;
  rt::cachesim::CacheHierarchy* hier_;
  std::unique_ptr<rt::par::ThreadPool> pool_;
  rt::simd::SimdLevel lvl_ = rt::simd::SimdLevel::kScalar;
  rt::array::Array3D<double> u_;
  rt::array::Array3D<double> rhs_;  ///< pre-scaled: (w/6) * h^2 * f
  rt::array::Array3D<double> f_;
  std::uint64_t u_base_ = 0, rhs_base_ = 0;
  std::uint64_t flops_ = 0;
  rt::guard::Status status_ = rt::guard::Status::kOk;
  std::string detail_;
  Phases phases_;
};

}  // namespace rt::multigrid
