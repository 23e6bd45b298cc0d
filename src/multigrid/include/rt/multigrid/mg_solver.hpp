#pragma once
// NAS-MG-style V-cycle solver of  A u = v  with periodic boundaries — the
// "MGRID" application of the paper's Section 4.6.  Supports:
//   * tiling RESID (and optionally PSINV) at the finest level with a tile
//     from rt::core (the paper tiles only the largest grid);
//   * padding the finest-level arrays (the paper's workaround of declaring
//     a new padded array, since MGRID's own 1D indexing prevents in-place
//     padding);
//   * optional trace-driven execution against a CacheHierarchy, so the
//     whole application's simulated cycles can be compared orig vs tiled;
//   * a host fast path (threads/simd options): the V-cycle operators run
//     their rt::simd row sweeps through the executor (rt/simd/execute.hpp;
//     K planes, or the resid plan's tile grid at the finest level) —
//     bit-identical to the serial accessor operators for any thread count
//     and SimdLevel (tests/mg_fastpath_test.cpp).  The accessor operators
//     run when traced, or serially with simd off.  Per-level
//     arrays are allocated uninitialized and zeroed plane-parallel on the
//     pool, so on NUMA hosts each page is first touched — and therefore
//     placed — by a thread that later sweeps it.
//
// Instrumentation: per-operator wall-clock PhaseStats (resid/psinv/rprj3/
// interp/comm3/zero3/norm) accumulate across every call, and an optional
// hardware-counter group (counters option) measures each iterate() span;
// both surface in bench_mgrid's JSON records.

#include <cstdint>
#include <memory>
#include <vector>

#include "rt/array/address_space.hpp"
#include "rt/array/array3d.hpp"
#include "rt/cachesim/hierarchy.hpp"
#include "rt/core/plan.hpp"
#include "rt/kernels/resid.hpp"
#include "rt/multigrid/operators.hpp"
#include "rt/obs/perf_counters.hpp"
#include "rt/obs/phase_timer.hpp"
#include "rt/par/thread_pool.hpp"
#include "rt/simd/execute.hpp"

namespace rt::multigrid {

struct MgOptions {
  /// Number of levels; finest grid has n = 2^lt + 2 points per side
  /// (lt = 7 gives the paper's 130x130x130 reference size).
  int lt = 5;
  /// Coarsest level (>= 1).
  int lb = 1;
  /// Tile RESID at the finest level with this plan (tiled == false -> orig).
  rt::core::TilingPlan resid_plan{};
  /// Also tile PSINV at the finest level with the same tile.
  bool tile_psinv = false;
  /// Number of +1/-1 unit charges in the right-hand side.
  int charges = 20;
  /// RNG seed for charge placement (deterministic).
  std::uint64_t seed = 314159265;
  /// Inter-variable padding (paper Section 3.5): stagger array base
  /// addresses modulo this cache size so that same-index elements of
  /// different arrays never alias (e.g. V(i,j,k) on top of U(i,j,k) in
  /// RESID, which a back-to-back layout can produce by accident).
  /// 0 disables staggering.
  std::uint64_t stagger_mod_bytes = 16 * 1024;
  /// Host fast path: execution width of the operator sweeps (1 = serial,
  /// <= 0 = all hardware threads).  Ignored under trace-driven simulation:
  /// TracedArray3D mutates the shared hierarchy on every access, so the
  /// traced operators always run serially.
  int threads = 1;
  /// Host fast path: SIMD row-kernel mode for the operators (kOff keeps
  /// the accessor operators when serial; on a pool it runs the baseline
  /// rows stamp).  Also ignored under simulation.
  rt::simd::SimdMode simd = rt::simd::SimdMode::kOff;
  /// Open a hardware-counter group around each iterate() /
  /// residual_norm() span (kAuto: only when the host permits
  /// perf_event_open; degrades gracefully to "unavailable").
  rt::obs::CounterMode counters = rt::obs::CounterMode::kOff;
};

class MgSolver {
 public:
  explicit MgSolver(const MgOptions& opts,
                    rt::cachesim::CacheHierarchy* hier = nullptr);

  /// Grid side length at level l (1-based levels, lt = finest).
  long level_n(int l) const { return (1L << l) + 2; }
  int lt() const { return opts_.lt; }

  /// Initialise u = 0 and the NAS-style +/-1 charge RHS.
  void setup();

  /// One full MG iteration: r = v - Au at the finest level, then a V-cycle
  /// correction.  Returns the L2 residual norm *before* the correction.
  double iterate();

  /// L2 norm of the current residual r = v - Au (recomputes resid).
  double residual_norm();

  const rt::array::Array3D<double>& u() const { return u_.back(); }
  const rt::array::Array3D<double>& v() const { return v_; }

  /// Total flops executed so far (analytic per-operator counts).
  std::uint64_t flops() const { return flops_; }

  /// Per-operator wall-clock phase timings, accumulated across all calls.
  struct Phases {
    rt::obs::PhaseStats resid, psinv, rprj3, interp, comm3, zero3, norm;
  };
  const Phases& phases() const { return phases_; }

  /// Actual execution width of the operator sweeps (1 when serial or
  /// trace-driven).
  int threads() const { return pool_ ? pool_->num_threads() : 1; }
  /// Resolved SIMD level of the fast path (kScalar when the accessor
  /// operators run: traced, or serial with simd off).
  rt::simd::SimdLevel simd_level() const { return lvl_; }

  /// True when the counters option opened a usable hardware group.
  bool counters_available() const;
  /// Accumulated hardware readings over every iterate()/residual_norm()
  /// span so far (all-invalid slots when counters are off/unavailable).
  const rt::obs::CounterReadings& hw() const { return hw_; }

 private:
  using Grid = rt::array::Array3D<double>;

  void resid_level(int l, Grid& r, Grid& v, Grid& u, bool allow_tile);
  void psinv_level(int l, Grid& u, Grid& r);
  void rprj3_level(Grid& coarse, Grid& fine);
  void interp_level(Grid& fine, Grid& coarse);
  void comm3_grid(Grid& g);
  void zero3_grid(Grid& g);

  /// V-cycle on the residual hierarchy (NAS mg3P).
  void mg3p();

  /// True when operators run through the executor instead of the
  /// (possibly traced) accessor kernels.
  bool fast_path() const { return lvl_ != rt::simd::SimdLevel::kScalar; }
  rt::simd::ExecPolicy exec() const { return {pool_.get(), lvl_}; }
  /// First-touch initialization: zero the whole allocation plane-parallel
  /// on the pool (same bytes Grid's default construction writes serially).
  void first_touch_zero(Grid& g);
  /// norm2u3 with phase timing (always serial: ordered reduction).
  double norm_l2(Grid& g);
  void counters_begin();
  void counters_end();

  std::uint64_t base_of(const Grid& g) const;

  MgOptions opts_;
  rt::cachesim::CacheHierarchy* hier_ = nullptr;
  rt::array::AddressSpace space_;

  std::unique_ptr<rt::par::ThreadPool> pool_;
  rt::simd::SimdLevel lvl_ = rt::simd::SimdLevel::kScalar;

  std::vector<Grid> u_;  ///< solution per level (index l-1)
  std::vector<Grid> r_;  ///< residual per level
  Grid v_;               ///< RHS at finest level
  std::vector<std::uint64_t> u_base_, r_base_;
  std::uint64_t v_base_ = 0;

  std::uint64_t flops_ = 0;
  Phases phases_;
  std::unique_ptr<rt::obs::PerfCounters> pc_;
  rt::obs::CounterReadings hw_;
};

}  // namespace rt::multigrid
