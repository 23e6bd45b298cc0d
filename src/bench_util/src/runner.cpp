#include "rt/bench/runner.hpp"

#include "rt/bench/options.hpp"

#include <chrono>
#include <cmath>
#include <fstream>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>

#include "rt/array/address_space.hpp"
#include "rt/core/cache_topology.hpp"
#include "rt/guard/fault_injector.hpp"
#include "rt/guard/watchdog.hpp"
#include "rt/array/array3d.hpp"
#include "rt/cachesim/hierarchy.hpp"
#include "rt/cachesim/traced_array.hpp"
#include "rt/kernels/jacobi2d.hpp"
#include "rt/kernels/jacobi3d.hpp"
#include "rt/kernels/oblivious.hpp"
#include "rt/kernels/redblack.hpp"
#include "rt/kernels/resid.hpp"
#include "rt/multigrid/operators.hpp"
#include "rt/par/thread_pool.hpp"
#include "rt/simd/execute.hpp"

namespace rt::bench {

namespace {

using rt::array::Array2D;
using rt::array::Array3D;
using rt::array::Dims3;
using rt::cachesim::CacheHierarchy;
using rt::cachesim::TracedArray2D;
using rt::cachesim::TracedArray3D;
using rt::core::TilingPlan;
using rt::core::Transform;
using rt::kernels::KernelId;
using rt::simd::Box;
using rt::simd::ExecPolicy;

/// Deterministic smooth-ish initialisation (values are irrelevant to the
/// cache trace; they only need to stay finite across sweeps).
void init_grid(Array3D<double>& a, double scale) {
  for (long k = 0; k < a.n3(); ++k) {
    for (long j = 0; j < a.n2(); ++j) {
      for (long i = 0; i < a.n1(); ++i) {
        a(i, j, k) = scale * (0.001 * static_cast<double>(i) +
                              0.002 * static_cast<double>(j) +
                              0.003 * static_cast<double>(k));
      }
    }
  }
}

/// Interior points of an n1 x n2 x n3 grid (one boundary layer in every
/// dimension).  All three extents matter: the old two-scalar form silently
/// squared n1 and miscounted non-cubic grids.
std::uint64_t interior(long n1, long n2, long n3) {
  return static_cast<std::uint64_t>(n1 - 2) *
         static_cast<std::uint64_t>(n2 - 2) *
         static_cast<std::uint64_t>(n3 - 2);
}

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One full measured time step of a kernel.  operator() over accessors is
/// the serial reference (native or traced): plans with
/// LoopSchedule::kRecursive (the oblivious backend) run the cache-oblivious
/// recursive forms with plan.tile as the base case, tiled flat plans the
/// paper's strip-mined nests.  exec() runs the same step through
/// rt::simd::execute on native arrays.
struct JacobiStep {
  double c = 1.0 / 6.0;
  TilingPlan plan;
  template <class A, class B>
  void operator()(A& a, B& b) const {
    if (plan.schedule == rt::core::LoopSchedule::kRecursive) {
      rt::kernels::jacobi3d_oblivious(a, b, c, plan.tile);
      rt::kernels::copy_interior_oblivious(b, a, plan.tile);
      return;
    }
    if (plan.tiled) {
      rt::kernels::jacobi3d_tiled(a, b, c, plan.tile);
    } else {
      rt::kernels::jacobi3d(a, b, c);
    }
    rt::kernels::copy_interior(b, a);
  }
  void exec(const ExecPolicy& pol, Array3D<double>& a,
            Array3D<double>& b) const {
    rt::simd::execute(pol, plan, a, [&](const Box& x) {
      rt::simd::jacobi_sweep(a, b, c, x, pol.lvl);
    });
    rt::simd::execute(pol, TilingPlan{}, b, [&](const Box& x) {
      rt::simd::copy_sweep(b, a, x, pol.lvl);
    });
  }
};

struct RedBlackStep {
  double c1 = 0.4, c2 = 0.1;
  TilingPlan plan;
  template <class A>
  void operator()(A& a) const {
    if (plan.schedule == rt::core::LoopSchedule::kRecursive) {
      rt::kernels::redblack_oblivious(a, c1, c2, plan.tile);
    } else if (plan.tiled) {
      rt::kernels::redblack_tiled(a, c1, c2, plan.tile);
    } else {
      rt::kernels::redblack_naive(a, c1, c2);
    }
  }
  void exec(const ExecPolicy& pol, Array3D<double>& a) const {
    for (long parity = 0; parity < 2; ++parity) {
      rt::simd::execute(pol, plan, a, [&](const Box& x) {
        rt::simd::redblack_sweep(a, c1, c2, parity, x, pol.lvl);
      });
    }
  }
};

struct ResidStep {
  rt::kernels::ResidCoeffs a = rt::kernels::nas_mg_a();
  TilingPlan plan;
  template <class R, class V, class U>
  void operator()(R& r, V& v, U& u) const {
    if (plan.schedule == rt::core::LoopSchedule::kRecursive) {
      rt::kernels::resid_oblivious(r, v, u, a, plan.tile);
    } else if (plan.tiled) {
      rt::kernels::resid_tiled(r, v, u, a, plan.tile);
    } else {
      rt::kernels::resid(r, v, u, a);
    }
  }
  void exec(const ExecPolicy& pol, Array3D<double>& r, Array3D<double>& v,
            Array3D<double>& u) const {
    rt::simd::execute(pol, plan, r, [&](const Box& x) {
      rt::simd::resid_sweep(r, v, u, a, x, pol.lvl);
    });
  }
};

struct PsinvStep {
  rt::multigrid::SmootherCoeffs c = rt::multigrid::nas_mg_c();
  TilingPlan plan;
  template <class U, class R>
  void operator()(U& u, R& r) const {
    if (plan.schedule == rt::core::LoopSchedule::kRecursive) {
      rt::multigrid::psinv_oblivious(u, r, c, plan.tile);
    } else if (plan.tiled) {
      rt::multigrid::psinv_tiled(u, r, c, plan.tile);
    } else {
      rt::multigrid::psinv(u, r, c);
    }
  }
  void exec(const ExecPolicy& pol, Array3D<double>& u,
            Array3D<double>& r) const {
    rt::simd::execute(pol, plan, u, [&](const Box& x) {
      rt::simd::psinv_sweep(u, r, c, x, pol.lvl);
    });
  }
};

/// Flops per time step (stencil nest(s); the Jacobi copy-back adds none).
std::uint64_t flops_per_step(KernelId id, long n1, long n2, long n3) {
  return rt::kernels::kernel_info(id).flops_per_point * interior(n1, n2, n3);
}

/// Host timing loop: run `step` until the time budget is met.  Fills in
/// res.host_mflops, the warm-up/measure phase stats, and — when
/// opts.counters resolves to enabled — the hardware-counter block over the
/// measured iterations (warm-up excluded).
template <class StepFn>
void time_host(StepFn&& step, std::uint64_t flops_per_iter,
               const RunOptions& opts, RunResult& res) {
  {
    // Warm-up iteration (page faults, cache warm-up).
    rt::obs::ScopedTimer t(res.warmup);
    step();
  }
  // requested records the *intent* (any mode but off), so a host without
  // perf-event access still reports an explicit hw block with
  // available == false instead of silently omitting it.
  res.hw.requested = opts.counters != rt::obs::CounterMode::kOff;
  std::optional<rt::obs::PerfCounters> pc;
  if (rt::obs::counters_enabled(opts.counters)) {
    pc.emplace();
    res.hw.available = pc->available();
  }
  int iters = 0;
  if (pc) pc->start();
  const double t0 = now_seconds();
  double t1 = t0;
  do {
    // Injected-hang site (rt::guard kHang): a wedged measured step, the
    // case the run watchdog exists for.  armed() is one relaxed load.
    if (rt::guard::FaultInjector::armed(rt::guard::FaultKind::kHang)) {
      rt::guard::FaultInjector::instance().hang_point();
    }
    rt::obs::ScopedTimer t(res.measure);
    step();
    ++iters;
    t1 = now_seconds();
  } while (t1 - t0 < opts.min_host_seconds);
  if (pc) {
    pc->stop();
    res.hw.readings = pc->read();
  }
  res.hw.iters = iters;
  res.host_mflops =
      static_cast<double>(flops_per_iter) * iters / (t1 - t0) / 1e6;
}

/// The body of run_kernel_with_plan, minus planning and watchdog concerns.
RunResult run_with_plan_impl(KernelId id, const rt::core::TilingPlan& plan,
                             long n, const RunOptions& opts) {
  if (n < 4) throw std::invalid_argument("run_kernel: n too small");
  const rt::kernels::KernelInfo& info = rt::kernels::kernel_info(id);
  RunResult res;
  res.plan = plan;
  if (opts.simd_align) {
    // Opt-in vector alignment: round the allocation's leading dimension up
    // after the padding search (never changes which pad the planner chose).
    res.plan.dip = rt::simd::align_leading(res.plan.dip);
  }

  const long kd = opts.k_dim;
  const Dims3 dims = Dims3::padded(n, n, kd, res.plan.dip, res.plan.djp);
  if (!dims.checked_alloc_elems()) {
    // External plans (run_kernel_with_plan callers) reach here without
    // going through plan_for_checked's overflow gate.
    res.status = rt::guard::Status::kOverflow;
    res.status_detail = "allocation size overflows long for padded dims " +
                        std::to_string(res.plan.dip) + "x" +
                        std::to_string(res.plan.djp) + "x" +
                        std::to_string(kd);
    return res;
  }

  // Allocate the kernel's arrays and place them back to back (Fortran
  // COMMON style) in the simulated address space.  Allocation failure —
  // real exhaustion at production problem sizes, or an injected fault —
  // becomes a skipped-and-recorded row, never a crash mid-sweep.
  std::vector<Array3D<double>> arrays;
  try {
    for (int i = 0; i < info.num_arrays; ++i) {
      arrays.emplace_back(dims);
      init_grid(arrays.back(), 1.0 / (1.0 + i));
    }
  } catch (const std::bad_alloc&) {
    res.status = rt::guard::Status::kAllocFailed;
    res.status_detail = "allocation failed for " +
                        std::to_string(info.num_arrays) + " arrays of " +
                        std::to_string(dims.alloc_elems()) + " doubles";
    return res;
  }
  // Injected input corruption (rt::guard kNanInput): one poisoned interior
  // element, which the stencil spreads and the --verify sweep must catch.
  // The *last* array is always a kernel input (JACOBI b, RESID u, PSINV r,
  // REDBLACK in-place); arrays[0] is the output for most kernels and the
  // first sweep would silently overwrite the poison.
  if (rt::guard::FaultInjector::armed(rt::guard::FaultKind::kNanInput) &&
      rt::guard::FaultInjector::instance().should_fail(
          rt::guard::FaultKind::kNanInput)) {
    arrays.back()(n / 2, n / 2, kd / 2) =
        std::numeric_limits<double>::quiet_NaN();
  }
  rt::array::AddressSpace space(0, 64);
  std::vector<std::uint64_t> bases;
  for (int i = 0; i < info.num_arrays; ++i) {
    bases.push_back(space.place("arr" + std::to_string(i),
                                static_cast<std::uint64_t>(dims.alloc_elems())));
  }
  res.mem_elems = static_cast<double>(dims.alloc_elems()) * info.num_arrays;

  const std::uint64_t fl_step = flops_per_step(id, n, n, kd);

  if (opts.simulate) {
    CacheHierarchy hier(opts.l1, opts.l2);
    auto run_traced = [&](auto&& stepfn, auto&&... accs) {
      for (int t = 0; t < opts.time_steps; ++t) {
        if (rt::guard::FaultInjector::armed(rt::guard::FaultKind::kHang)) {
          rt::guard::FaultInjector::instance().hang_point();
        }
        stepfn(accs...);
      }
    };
    switch (id) {
      case KernelId::kJacobi: {
        TracedArray3D<double> a(arrays[0], bases[0], hier);
        TracedArray3D<double> b(arrays[1], bases[1], hier);
        run_traced(JacobiStep{.plan = res.plan}, a, b);
        break;
      }
      case KernelId::kRedBlack: {
        TracedArray3D<double> a(arrays[0], bases[0], hier);
        run_traced(RedBlackStep{.plan = res.plan}, a);
        break;
      }
      case KernelId::kResid: {
        TracedArray3D<double> r(arrays[0], bases[0], hier);
        TracedArray3D<double> v(arrays[1], bases[1], hier);
        TracedArray3D<double> u(arrays[2], bases[2], hier);
        run_traced(ResidStep{.plan = res.plan}, r, v, u);
        break;
      }
      case KernelId::kPsinv: {
        TracedArray3D<double> u(arrays[0], bases[0], hier);
        TracedArray3D<double> r(arrays[1], bases[1], hier);
        run_traced(PsinvStep{.plan = res.plan}, u, r);
        break;
      }
    }
    rt::cachesim::HierarchyStats st = hier.stats();
    st.flops = fl_step * static_cast<std::uint64_t>(opts.time_steps);
    res.l1_miss_pct = 100.0 * st.l1.miss_rate();
    res.l2_miss_pct = 100.0 * st.l2_global_miss_rate();
    res.sim_accesses = st.l1.accesses;
    res.sim_flops = st.flops;
    res.sim_mflops = rt::cachesim::PerfModel(opts.perf).mflops(st);
  }

  if (opts.time_host) {
    // threads > 1 runs the steps through rt::simd::execute on a pool
    // (--simd=off there runs the baseline rows stamp: the accessor
    // reference is serial only); so does any serial SIMD level.  Recursive
    // (oblivious) plans run there as flat tiles of the base case — the
    // same block set the recursion bottoms out at, still bit-identical;
    // only the serial-scalar reference (and simulation) walks the true
    // recursion.
    res.threads_requested = opts.threads > 1 ? opts.threads : 1;
    res.simd_requested = opts.simd;
    std::unique_ptr<rt::par::ThreadPool> pool;
    if (opts.threads > 1) {
      pool = std::make_unique<rt::par::ThreadPool>(opts.threads);
      res.threads = pool->num_threads();
    }
    const ExecPolicy pol{pool.get(),
                         rt::simd::exec_level(opts.simd, res.threads > 1)};
    res.simd = pol.lvl;
    time_host([&] { host_step(id, res.plan, arrays, pol); }, fl_step, opts,
              res);
  }

  if (opts.verify != rt::guard::VerifyMode::kOff) {
    // Post-run guardrail: NaN/Inf anywhere in any array's logical region
    // (simulation mutates the same native arrays through the traced
    // accessors, so one sweep covers both execution paths).
    res.verify_mode = opts.verify;
    long bad = 0;
    if (opts.verify == rt::guard::VerifyMode::kPara && opts.threads > 1) {
      rt::par::ThreadPool pool(opts.threads);
      for (const auto& a : arrays) bad += rt::guard::count_nonfinite_par(pool, a);
    } else {
      for (const auto& a : arrays) bad += rt::guard::count_nonfinite(a);
    }
    res.nonfinite = bad;
    if (bad > 0 && res.status == rt::guard::Status::kOk) {
      res.status = rt::guard::Status::kNonFinite;
      res.status_detail = std::to_string(bad) +
                          " non-finite elements after the measured run";
    }
  }
  return res;
}

}  // namespace

void host_step(KernelId id, const TilingPlan& plan,
               std::vector<Array3D<double>>& a, const ExecPolicy& pol) {
  const bool ref = pol.lvl == rt::simd::SimdLevel::kScalar;
  switch (id) {
    case KernelId::kJacobi: {
      const JacobiStep s{.plan = plan};
      ref ? s(a[0], a[1]) : s.exec(pol, a[0], a[1]);
      return;
    }
    case KernelId::kRedBlack: {
      const RedBlackStep s{.plan = plan};
      ref ? s(a[0]) : s.exec(pol, a[0]);
      return;
    }
    case KernelId::kResid: {
      const ResidStep s{.plan = plan};
      ref ? s(a[0], a[1], a[2]) : s.exec(pol, a[0], a[1], a[2]);
      return;
    }
    case KernelId::kPsinv: {
      const PsinvStep s{.plan = plan};
      ref ? s(a[0], a[1]) : s.exec(pol, a[0], a[1]);
      return;
    }
  }
}

RunResult run_kernel(KernelId id, Transform tr, long n, const RunOptions& opts) {
  // Through the PlanCache when the caller provides one (pinned autotuned
  // winners are served ahead of the model search); direct otherwise.
  // Either way planning routes through opts.backend — kModel against the
  // same geometry keys and plans exactly as the historical direct path.
  const rt::core::StencilSpec& spec = rt::kernels::kernel_info(id).spec;
  const rt::core::CacheGeom geom = opts.geom();
  const rt::core::PlanReport rep =
      opts.plan_cache != nullptr
          ? opts.plan_cache->plan_backend(opts.backend, tr, geom, n, n, spec,
                                          opts.k_dim)
          : rt::core::plan_with_backend(opts.backend, tr, geom, n, n, spec,
                                        opts.k_dim);
  if (rep.status == rt::guard::Status::kOverflow) {
    // The planned allocation cannot be represented: skip-and-record, the
    // fallback plan would overflow just the same.
    RunResult res;
    res.plan = rep.plan;
    res.status = rep.status;
    res.status_detail = rep.detail;
    res.plan_status = rep.status;
    res.plan_detail = rep.detail;
    return res;
  }
  RunResult res = run_kernel_with_plan(id, rep.plan, n, opts);
  res.plan_status = rep.status;
  res.plan_detail = rep.detail;
  return res;
}

RunResult run_kernel_with_plan(KernelId id, const rt::core::TilingPlan& plan,
                               long n, const RunOptions& opts) {
  if (opts.timeout_seconds <= 0) return run_with_plan_impl(id, plan, n, opts);

  // Watchdog-supervised run: the worker closure owns every piece of state
  // it touches (the whole run context is built inside run_with_plan_impl on
  // the worker's stack; the result lands in shared heap state), so an
  // abandoned worker can never scribble on this frame — the contract
  // rt::guard::run_with_deadline requires.
  struct Shared {
    std::mutex m;
    RunResult res;
  };
  auto shared = std::make_shared<Shared>();
  const auto deadline = std::chrono::milliseconds(
      static_cast<long>(opts.timeout_seconds * 1000.0));
  const rt::guard::WatchdogResult w = rt::guard::run_with_deadline(
      [shared, id, plan, n, opts] {
        RunResult r = run_with_plan_impl(id, plan, n, opts);
        std::lock_guard<std::mutex> lk(shared->m);
        shared->res = std::move(r);
      },
      deadline);
  if (w.completed) {
    std::lock_guard<std::mutex> lk(shared->m);
    return std::move(shared->res);
  }
  RunResult res;
  res.plan = plan;
  res.status = rt::guard::Status::kTimeout;
  res.status_detail =
      "watchdog: run exceeded " + std::to_string(opts.timeout_seconds) +
      "s deadline" + (w.abandoned ? " (worker abandoned)" : "");
  return res;
}

MissRates run_jacobi2d_missrates(long n, const RunOptions& opts, long p1) {
  if (p1 <= 0) p1 = n;
  const rt::array::Dims2 d2 = rt::array::Dims2::padded(n, n, p1);
  Array2D<double> a(d2), b(d2);
  for (long j = 0; j < n; ++j) {
    for (long i = 0; i < n; ++i) {
      b(i, j) = 0.001 * static_cast<double>(i + j);
    }
  }
  rt::array::AddressSpace space(0, 64);
  // Use the allocator's own element count: a hand-computed p1 * n would
  // silently overlap the two ranges if Dims2 ever grew alignment slack.
  const std::uint64_t ba =
      space.place("a", static_cast<std::uint64_t>(d2.alloc_elems()));
  const std::uint64_t bb =
      space.place("b", static_cast<std::uint64_t>(d2.alloc_elems()));
  CacheHierarchy hier(opts.l1, opts.l2);
  TracedArray2D<double> ta(a, ba, hier), tb(b, bb, hier);
  // Stencil nest only (no copy-back): with the write-around L1 the store
  // stream cannot interfere, so the measurement isolates the intra-array
  // column reuse that Sections 1 and 2.1 reason about.
  for (int t = 0; t < opts.time_steps; ++t) {
    rt::kernels::jacobi2d(ta, tb, 0.25);
  }
  const auto st = hier.stats();
  return MissRates{100.0 * st.l1.miss_rate(), 100.0 * st.l2_global_miss_rate()};
}

MissRates run_jacobi3d_missrates(long n, long k, const RunOptions& opts) {
  const Dims3 dims = Dims3::unpadded(n, n, k);
  Array3D<double> a(dims), b(dims);
  init_grid(b, 1.0);
  rt::array::AddressSpace space(0, 64);
  const std::uint64_t ba =
      space.place("a", static_cast<std::uint64_t>(dims.alloc_elems()));
  const std::uint64_t bb =
      space.place("b", static_cast<std::uint64_t>(dims.alloc_elems()));
  CacheHierarchy hier(opts.l1, opts.l2);
  TracedArray3D<double> ta(a, ba, hier), tb(b, bb, hier);
  for (int t = 0; t < opts.time_steps; ++t) {
    rt::kernels::jacobi3d(ta, tb, 1.0 / 6.0);
    rt::kernels::copy_interior(tb, ta);
  }
  const auto st = hier.stats();
  return MissRates{100.0 * st.l1.miss_rate(), 100.0 * st.l2_global_miss_rate()};
}

rt::obs::JsonValue& append_json_record(rt::obs::MetricsWriter& w,
                                       const std::string& kernel, long n,
                                       const RunResult& r) {
  using rt::obs::CounterKind;
  using rt::obs::JsonValue;
  JsonValue& rec = w.add_record();
  rec.set("kernel", kernel)
      .set("n", n)
      .set("transform",
           std::string(rt::core::transform_name(r.plan.transform)))
      .set("backend", std::string(rt::core::backend_name(r.plan.backend)))
      .set("tile", r.plan.tiled
                       ? JsonValue(std::to_string(r.plan.tile.ti) + "x" +
                                   std::to_string(r.plan.tile.tj))
                       : JsonValue())
      .set("simd", rt::simd::simd_mode_name(r.simd_requested))
      .set("simd_level", rt::simd::simd_level_name(r.simd))
      .set("threads", r.threads)
      .set("threads_requested", r.threads_requested)
      .set("degraded", r.degraded())
      // Typed degradation reasons (rt::guard): why this row is partial, and
      // why the planner fell back, as stable tokens — "ok" on clean rows.
      .set("status", rt::guard::status_name(r.status))
      .set("plan_status", rt::guard::status_name(r.plan_status))
      // milli-MFlops precision, the rounding the jq reshape applied
      .set("mflops", std::round(r.host_mflops * 1000.0) / 1000.0);

  if (r.verify_mode != rt::guard::VerifyMode::kOff) {
    JsonValue v = JsonValue::object();
    v.set("mode", rt::guard::verify_mode_name(r.verify_mode))
        .set("nonfinite", r.nonfinite);
    rec.set("verify", std::move(v));
  } else {
    rec.set("verify", JsonValue());
  }

  if (r.sim_accesses > 0) {
    JsonValue sim = JsonValue::object();
    sim.set("l1_miss_pct", r.l1_miss_pct)
        .set("l2_miss_pct", r.l2_miss_pct)
        .set("mflops", r.sim_mflops)
        .set("accesses", static_cast<std::int64_t>(r.sim_accesses));
    rec.set("sim", std::move(sim));
  } else {
    rec.set("sim", JsonValue());
  }

  if (r.hw.requested) {
    JsonValue hw = JsonValue::object();
    hw.set("available", r.hw.available).set("iters", r.hw.iters);
    for (int i = 0; i < rt::obs::kNumCounters; ++i) {
      const auto k = static_cast<CounterKind>(i);
      const rt::obs::CounterValue& c = r.hw.readings[k];
      hw.set(rt::obs::counter_name(k),
             c.valid ? JsonValue(static_cast<std::int64_t>(c.value))
                     : JsonValue());
    }
    rec.set("hw", std::move(hw));
  } else {
    rec.set("hw", JsonValue());
  }
  return rec;
}

rt::obs::JsonValue temporal_json(const rt::core::TemporalPlan& p) {
  rt::obs::JsonValue v = rt::obs::JsonValue::object();
  v.set("mode", std::string(rt::core::temporal_mode_name(p.mode)))
      .set("tsteps", p.tsteps)
      .set("bk", p.bk)
      .set("tb", p.tb)
      .set("threads", p.threads)
      .set("team", p.team)
      .set("stages", static_cast<std::int64_t>(p.stages))
      .set("occupancy", std::round(p.occupancy * 1000.0) / 1000.0);
  return v;
}

long outer_cache_elems() {
  // Delegates to the shared rt::core probe (one sysfs parse per process,
  // one answer for every consumer — benches, temporal planner, rt::tune).
  return rt::core::host_cache_topology().outer_data_elems();
}

rt::obs::JsonValue plan_cache_json(const rt::core::PlanCacheStats& s) {
  rt::obs::JsonValue v = rt::obs::JsonValue::object();
  v.set("hits", static_cast<std::int64_t>(s.hits))
      .set("misses", static_cast<std::int64_t>(s.misses))
      .set("hit_rate", s.hit_rate())
      .set("pinned_hits", static_cast<std::int64_t>(s.pinned_hits))
      .set("evictions", static_cast<std::int64_t>(s.evictions));
  return v;
}

rt::obs::JsonValue tune_json(rt::tune::TuneMode mode,
                             const rt::tune::TuneResult& r) {
  rt::obs::JsonValue v = rt::obs::JsonValue::object();
  int skipped = 0;
  for (const auto& c : r.candidates) {
    if (!c.m.ok()) ++skipped;
  }
  const std::string origin =
      r.winner >= 0 ? r.candidates[static_cast<std::size_t>(r.winner)].origin
                    : std::string("model");
  v.set("mode", std::string(rt::tune::tune_mode_name(mode)))
      .set("key", r.key.str())
      .set("status", std::string(rt::guard::status_name(r.status)))
      .set("origin", origin)
      .set("candidates", static_cast<std::int64_t>(r.candidates.size()))
      .set("skipped", skipped)
      .set("winner_mflops", r.mflops_at(r.winner))
      .set("model_mflops", r.mflops_at(r.model))
      .set("worst_mflops", r.mflops_at(r.worst));
  return v;
}

std::string apply_tune_options(const BenchOptions& bo,
                               rt::core::PlanCache& cache) {
  const std::string mode = rt::tune::tune_mode_name(bo.tune);
  if (bo.tune == rt::tune::TuneMode::kOff) return "tune: off (model plans)";
  const std::string path = bo.resolved_plan_store();
  const rt::guard::Expected<rt::tune::PlanStore> loaded = rt::tune::load_store(
      path, rt::core::host_cache_topology().fingerprint());
  if (!loaded.ok()) {
    return "tune: " + mode + " — store " + path + " " +
           rt::guard::status_name(loaded.status()) + " (" + loaded.detail() +
           "); serving model plans";
  }
  const std::size_t n = rt::tune::install(loaded.value(), cache);
  return "tune: " + mode + " — pinned " + std::to_string(n) +
         " tuned winners from " + path;
}

rt::obs::JsonValue phases_json(
    const std::vector<std::pair<std::string, rt::obs::PhaseStats>>& phases) {
  rt::obs::JsonValue v = rt::obs::JsonValue::object();
  for (const auto& [name, p] : phases) {
    rt::obs::JsonValue ph = rt::obs::JsonValue::object();
    ph.set("count", p.count).set("total_s", p.total_s).set("mean_s",
                                                           p.mean_s());
    v.set(name, std::move(ph));
  }
  return v;
}

}  // namespace rt::bench
