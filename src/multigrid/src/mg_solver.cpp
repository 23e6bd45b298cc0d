#include "rt/multigrid/mg_solver.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <utility>

#include "rt/cachesim/traced_array.hpp"
#include "rt/simd/execute.hpp"

namespace rt::multigrid {

namespace {

using Grid = rt::array::Array3D<double>;
using GB = std::pair<Grid*, std::uint64_t>;
using rt::core::TilingPlan;
using rt::simd::Box;

/// Run op(fn) over grids either natively or through traced accessors.
template <class Fn, class... Gs>
void run_op(rt::cachesim::CacheHierarchy* h, Fn&& fn, Gs... gb) {
  if (h) {
    fn(rt::cachesim::TracedArray3D<double>(*gb.first, gb.second, *h)...);
  } else {
    fn(*gb.first...);
  }
}

std::uint64_t interior(const Grid& g) {
  return static_cast<std::uint64_t>(g.n1() - 2) *
         static_cast<std::uint64_t>(g.n2() - 2) *
         static_cast<std::uint64_t>(g.n3() - 2);
}

/// xorshift64* PRNG — deterministic charge placement.
struct Rng {
  std::uint64_t s;
  std::uint64_t next() {
    s ^= s >> 12;
    s ^= s << 25;
    s ^= s >> 27;
    return s * 0x2545F4914F6CDD1DULL;
  }
  long uniform(long n) { return static_cast<long>(next() % n); }
};

}  // namespace

MgSolver::MgSolver(const MgOptions& opts, rt::cachesim::CacheHierarchy* hier)
    : opts_(opts), hier_(hier), space_(0, 64) {
  if (opts.lt < 2 || opts.lb < 1 || opts.lb >= opts.lt) {
    throw std::invalid_argument("MgSolver: need 1 <= lb < lt, lt >= 2");
  }
  // Host fast path only: trace-driven runs keep the serial accessor
  // operators (TracedArray3D is not thread-safe, and the row kernels
  // bypass the accessors entirely).
  if (hier_ == nullptr) {
    if (opts.threads != 1) {
      pool_ = std::make_unique<rt::par::ThreadPool>(opts.threads);
    }
    lvl_ = rt::simd::exec_level(opts.simd, threads() > 1);
  }
  if (rt::obs::counters_enabled(opts.counters)) {
    pc_ = std::make_unique<rt::obs::PerfCounters>();
  }
  u_.reserve(opts.lt);
  r_.reserve(opts.lt);
  // Inter-variable padding (Section 3.5): stagger consecutive arrays by a
  // quarter cache plus a line so same-index elements of different arrays
  // never land on the same set, whatever the (padded) array size is.
  int placed = 0;
  const auto place_grid = [&](const std::string& name, std::uint64_t elems) {
    if (opts_.stagger_mod_bytes == 0) return space_.place(name, elems);
    const std::uint64_t mod = opts_.stagger_mod_bytes;
    const std::uint64_t off = (static_cast<std::uint64_t>(placed++) *
                               (mod / 4 + 64)) % mod;
    return space_.place_mod(name, elems, 8, mod, off / 64 * 64);
  };
  for (int l = 1; l <= opts.lt; ++l) {
    const long n = level_n(l);
    rt::array::Dims3 d = rt::array::Dims3::unpadded(n, n, n);
    if (l == opts.lt && opts.resid_plan.dip >= n && opts.resid_plan.djp >= n) {
      d = rt::array::Dims3::padded(n, n, n, opts.resid_plan.dip,
                                   opts.resid_plan.djp);
    }
    if (pool_) {
      u_.emplace_back(d, rt::array::uninit);
      r_.emplace_back(d, rt::array::uninit);
    } else {
      u_.emplace_back(d);
      r_.emplace_back(d);
    }
    const auto elems = static_cast<std::uint64_t>(d.alloc_elems());
    u_base_.push_back(place_grid("u" + std::to_string(l), elems));
    r_base_.push_back(place_grid("r" + std::to_string(l), elems));
    if (l == opts.lt) {
      v_ = pool_ ? Grid(d, rt::array::uninit) : Grid(d);
      v_base_ = place_grid("v", elems);
    }
  }
  // First-touch placement: zero every allocation plane-parallel on the
  // pool, so each page's first write — and hence its NUMA home — happens
  // on a thread that will sweep that K range.  Same bytes as default
  // construction, just written by the right threads.
  if (pool_) {
    for (auto& g : u_) first_touch_zero(g);
    for (auto& g : r_) first_touch_zero(g);
    first_touch_zero(v_);
  }
}

void MgSolver::first_touch_zero(Grid& g) {
  double* base = g.data();
  const long plane = g.dims().plane_stride();
  pool_->parallel_for(g.n3(), [&](long k) {
    std::fill(base + k * plane, base + (k + 1) * plane, 0.0);
  });
}

std::uint64_t MgSolver::base_of(const Grid& g) const {
  for (std::size_t i = 0; i < u_.size(); ++i) {
    if (&g == &u_[i]) return u_base_[i];
    if (&g == &r_[i]) return r_base_[i];
  }
  if (&g == &v_) return v_base_;
  // A foreign grid here means a traced access would be attributed to a
  // wrong (or overlapping) base address, silently corrupting every cache
  // measurement — fail loudly in release builds too, not just under assert.
  throw std::logic_error("MgSolver::base_of: grid not owned by solver");
}

void MgSolver::comm3_grid(Grid& g) {
  rt::obs::ScopedTimer timer(phases_.comm3);
  run_op(hier_, [](auto&&... a) { comm3(a...); }, GB{&g, base_of(g)});
}

void MgSolver::zero3_grid(Grid& g) {
  rt::obs::ScopedTimer timer(phases_.zero3);
  if (fast_path() && pool_) {
    // Plane-parallel zero of the logical region (zeros are zeros: trivially
    // bit-identical to the serial zero3, whatever thread writes them).
    double* base = g.data();
    const long s1 = g.dims().column_stride();
    const long s2 = g.dims().plane_stride();
    const long n1 = g.n1(), n2 = g.n2();
    pool_->parallel_for(g.n3(), [&](long k) {
      for (long j = 0; j < n2; ++j) {
        double* row = base + s1 * j + s2 * k;
        std::fill(row, row + n1, 0.0);
      }
    });
    return;
  }
  run_op(hier_, [](auto&&... a) { zero3(a...); }, GB{&g, base_of(g)});
}

void MgSolver::resid_level(int l, Grid& r, Grid& v, Grid& u, bool allow_tile) {
  const TilingPlan plan =
      allow_tile && l == opts_.lt ? opts_.resid_plan : TilingPlan{};
  const auto a = rt::kernels::nas_mg_a();
  {
    rt::obs::ScopedTimer timer(phases_.resid);
    if (fast_path()) {
      rt::simd::execute(exec(), plan, r, [&](const Box& x) {
        rt::simd::resid_sweep(r, v, u, a, x, lvl_);
      });
    } else {
      run_op(
          hier_,
          [&](auto&& ra, auto&& va, auto&& ua) {
            if (plan.tiled) {
              rt::kernels::resid_tiled(ra, va, ua, a, plan.tile);
            } else {
              rt::kernels::resid(ra, va, ua, a);
            }
          },
          GB{&r, base_of(r)}, GB{&v, base_of(v)}, GB{&u, base_of(u)});
    }
  }
  flops_ += 31 * interior(r);
  comm3_grid(r);
}

void MgSolver::psinv_level(int l, Grid& u, Grid& r) {
  const TilingPlan plan =
      opts_.tile_psinv && l == opts_.lt ? opts_.resid_plan : TilingPlan{};
  const auto c = nas_mg_c();
  {
    rt::obs::ScopedTimer timer(phases_.psinv);
    if (fast_path()) {
      rt::simd::execute(exec(), plan, u, [&](const Box& x) {
        rt::simd::psinv_sweep(u, r, c, x, lvl_);
      });
    } else {
      run_op(
          hier_,
          [&](auto&& ua, auto&& ra) {
            if (plan.tiled) {
              psinv_tiled(ua, ra, c, plan.tile);
            } else {
              psinv(ua, ra, c);
            }
          },
          GB{&u, base_of(u)}, GB{&r, base_of(r)});
    }
  }
  flops_ += 31 * interior(u);
  comm3_grid(u);
}

void MgSolver::rprj3_level(Grid& coarse, Grid& fine) {
  {
    rt::obs::ScopedTimer timer(phases_.rprj3);
    if (fast_path()) {
      rt::simd::execute(exec(), TilingPlan{}, coarse, [&](const Box& x) {
        rt::simd::rprj3_sweep(coarse, fine, x, lvl_);
      });
    } else {
      run_op(hier_, [](auto&& s, auto&& r) { rprj3(s, r); },
             GB{&coarse, base_of(coarse)}, GB{&fine, base_of(fine)});
    }
  }
  flops_ += 30 * interior(coarse);
  comm3_grid(coarse);
}

void MgSolver::interp_level(Grid& fine, Grid& coarse) {
  {
    rt::obs::ScopedTimer timer(phases_.interp);
    if (fast_path()) {
      rt::simd::execute(exec(), TilingPlan{}, fine, [&](const Box& x) {
        rt::simd::interp_sweep(fine, coarse, x, lvl_);
      });
    } else {
      run_op(hier_, [](auto&& u, auto&& z) { interp_add(u, z); },
             GB{&fine, base_of(fine)}, GB{&coarse, base_of(coarse)});
    }
  }
  flops_ += 8 * interior(fine);
}

double MgSolver::norm_l2(Grid& g) {
  rt::obs::ScopedTimer timer(phases_.norm);
  return norm2u3(g).l2;
}

bool MgSolver::counters_available() const {
  return pc_ != nullptr && pc_->available();
}

void MgSolver::counters_begin() {
  if (pc_) pc_->start();
}

void MgSolver::counters_end() {
  if (!pc_) return;
  pc_->stop();
  const rt::obs::CounterReadings r = pc_->read();
  for (int i = 0; i < rt::obs::kNumCounters; ++i) {
    if (!r.counts[static_cast<std::size_t>(i)].valid) continue;
    auto& slot = hw_.counts[static_cast<std::size_t>(i)];
    slot.value += r.counts[static_cast<std::size_t>(i)].value;
    slot.valid = true;
  }
  hw_.time_enabled_ns += r.time_enabled_ns;
  hw_.time_running_ns += r.time_running_ns;
}

void MgSolver::setup() {
  for (int l = 1; l <= opts_.lt; ++l) {
    zero3_grid(u_[static_cast<std::size_t>(l - 1)]);
    zero3_grid(r_[static_cast<std::size_t>(l - 1)]);
  }
  zero3_grid(v_);
  Rng rng{opts_.seed};
  const long n = level_n(opts_.lt);
  for (int q = 0; q < opts_.charges; ++q) {
    const long i = 1 + rng.uniform(n - 2);
    const long j = 1 + rng.uniform(n - 2);
    const long k = 1 + rng.uniform(n - 2);
    v_(i, j, k) = (q < opts_.charges / 2) ? -1.0 : 1.0;
  }
  comm3_grid(v_);
}

void MgSolver::mg3p() {
  const int lt = opts_.lt, lb = opts_.lb;
  // Restrict the residual down the hierarchy.
  for (int k = lt; k > lb; --k) {
    rprj3_level(r_[static_cast<std::size_t>(k - 2)],
                r_[static_cast<std::size_t>(k - 1)]);
  }
  // Coarsest level: u = S r.
  Grid& ub = u_[static_cast<std::size_t>(lb - 1)];
  zero3_grid(ub);
  psinv_level(lb, ub, r_[static_cast<std::size_t>(lb - 1)]);
  // Back up: prolongate, correct the residual, smooth.
  for (int k = lb + 1; k < lt; ++k) {
    Grid& uk = u_[static_cast<std::size_t>(k - 1)];
    Grid& rk = r_[static_cast<std::size_t>(k - 1)];
    zero3_grid(uk);
    interp_level(uk, u_[static_cast<std::size_t>(k - 2)]);
    resid_level(k, rk, rk, uk, /*allow_tile=*/false);  // r_k -= A u_k
    psinv_level(k, uk, rk);
  }
  // Finest level: correction is *added* to the existing solution.
  Grid& ut = u_[static_cast<std::size_t>(lt - 1)];
  Grid& rt_ = r_[static_cast<std::size_t>(lt - 1)];
  interp_level(ut, u_[static_cast<std::size_t>(lt - 2)]);
  resid_level(lt, rt_, v_, ut, /*allow_tile=*/true);
  psinv_level(lt, ut, rt_);
}

double MgSolver::iterate() {
  counters_begin();
  Grid& r = r_[static_cast<std::size_t>(opts_.lt - 1)];
  resid_level(opts_.lt, r, v_, u_[static_cast<std::size_t>(opts_.lt - 1)],
              /*allow_tile=*/true);
  const double before = norm_l2(r);
  flops_ += 2 * interior(r);
  mg3p();
  counters_end();
  return before;
}

double MgSolver::residual_norm() {
  counters_begin();
  Grid& r = r_[static_cast<std::size_t>(opts_.lt - 1)];
  resid_level(opts_.lt, r, v_, u_[static_cast<std::size_t>(opts_.lt - 1)],
              /*allow_tile=*/true);
  flops_ += 2 * interior(r);
  const double norm = norm_l2(r);
  counters_end();
  return norm;
}

}  // namespace rt::multigrid
