#pragma once
// Experiment runner shared by the paper-reproduction benches and the
// integration tests: builds the (transform, kernel, size) configuration,
// allocates (possibly padded) arrays, runs the kernel trace-driven through
// the simulated UltraSparc2 hierarchy and/or natively for host timing, and
// reports the paper's metrics.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "rt/cachesim/config.hpp"
#include "rt/cachesim/perf_model.hpp"
#include "rt/core/plan.hpp"
#include "rt/core/plan_cache.hpp"
#include "rt/guard/status.hpp"
#include "rt/guard/verify.hpp"
#include "rt/kernels/kernel_info.hpp"
#include "rt/obs/metrics_writer.hpp"
#include "rt/obs/perf_counters.hpp"
#include "rt/obs/phase_timer.hpp"
#include "rt/simd/execute.hpp"
#include "rt/tune/autotuner.hpp"

namespace rt::bench {

struct RunOptions {
  bool simulate = true;    ///< trace-driven cache simulation
  bool time_host = false;  ///< wall-clock host timing (secondary signal)
  int time_steps = 2;      ///< time-step iterations measured in simulation
  double min_host_seconds = 0.05;
  /// Execution width for *host* timing: > 1 runs the steps through the
  /// executor (rt/simd/execute.hpp) on a pool.  Trace-driven simulation always
  /// executes serially — TracedArray3D accessors mutate the shared cache
  /// hierarchy, and serial execution is what keeps traces deterministic.
  int threads = 1;
  /// SIMD fast path for *host* timing: kOff runs the serial accessor
  /// kernels (the baseline rows stamp when threads > 1), kAuto/kAvx2 the
  /// rt::simd row sweeps through the executor (bit-identical; see
  /// rt/simd/execute.hpp).  Trace-driven simulation always uses the
  /// accessor kernels — TracedArray3D *is* the accessor concept.
  rt::simd::SimdMode simd = rt::simd::SimdMode::kOff;
  /// Opt-in: round the planned leading dimension up to the vector width
  /// (rt::simd::align_leading) after the padding search.
  bool simd_align = false;
  /// Hardware counters (rt::obs::PerfCounters) around the measured host
  /// loop: kOff never opens them, kAuto opens them when the capability
  /// probe succeeds, kOn always tries (reporting unavailable on failure).
  /// Only meaningful with time_host; simulation has exact counts already.
  rt::obs::CounterMode counters = rt::obs::CounterMode::kOff;
  /// Post-run NaN/Inf sweep over every array's logical region (--verify=):
  /// kPost sweeps serially, kPara splits K planes over a thread pool of
  /// `threads` workers.  A non-zero count marks the run kNonFinite.
  rt::guard::VerifyMode verify = rt::guard::VerifyMode::kOff;
  /// Watchdog deadline for the whole run (--timeout=SECS): > 0 runs the
  /// configuration on a supervised worker thread, and a run that exceeds
  /// the deadline returns a recorded Status::kTimeout row instead of
  /// wedging the sweep.  0 disables the watchdog.
  double timeout_seconds = 0;
  /// When set, run_kernel plans through this cache instead of calling
  /// plan_for_checked directly — so pinned (autotuned) winners installed by
  /// rt::tune are served ahead of the model plan.  nullptr (the default)
  /// keeps the direct planner path.
  rt::core::PlanCache* plan_cache = nullptr;
  /// Planner backend (rt/core/backend.hpp) run_kernel routes planning
  /// through: kModel (the default) is the paper's searches and the
  /// historical behaviour; kLattice plans conflict-aware tiles for the
  /// set-associative geometry of `l1`; kOblivious ignores the geometry and
  /// emits the recursive schedule.
  rt::core::Backend backend = rt::core::Backend::kModel;
  /// Whether the cache geometry is real (probed / configured) rather than
  /// a fallback guess.  Only consulted by --backend=auto style selection
  /// (rt::core::auto_backend) and recorded into CacheGeom::probed.
  bool cache_probed = true;
  long k_dim = 30;  ///< third array dimension (paper fixes it at 30)
  rt::cachesim::CacheConfig l1 = rt::cachesim::CacheConfig::ultrasparc2_l1();
  rt::cachesim::CacheConfig l2 = rt::cachesim::CacheConfig::ultrasparc2_l2();
  rt::cachesim::PerfModelParams perf =
      rt::cachesim::PerfModelParams::ultrasparc2_360();

  /// Planner target: L1 capacity in doubles (2048 for the 16K L1).
  long cs_elems() const { return static_cast<long>(l1.size_bytes / 8); }

  /// Backend planning geometry, derived from `l1` (elements of double).
  rt::core::CacheGeom geom() const {
    rt::core::CacheGeom g;
    g.cs_elems = cs_elems();
    g.line_elems = static_cast<long>(l1.line_bytes / 8);
    g.assoc = static_cast<long>(l1.assoc);
    g.probed = cache_probed;
    return g;
  }
};

/// Hardware-counter measurements of the host timing loop (rt::obs).
struct HwStats {
  bool requested = false;  ///< counters were enabled for this run
  bool available = false;  ///< the counter group actually opened
  /// Counter totals over the measured loop (warm-up excluded), already
  /// multiplex-scaled; slots that failed to open read invalid.
  rt::obs::CounterReadings readings;
  int iters = 0;  ///< measured step() iterations the totals cover
};

struct RunResult {
  rt::core::TilingPlan plan;
  double l1_miss_pct = 0;   ///< simulated L1 miss rate (percent)
  /// Simulated *global* L2 miss rate: L2 misses / all references, the
  /// convention consistent with the paper's Table 3 (local L2 ratios would
  /// rise as tiling removes easy L2 hits, which is not what it reports).
  double l2_miss_pct = 0;
  double sim_mflops = 0;    ///< perf-model MFlops (simulated machine)
  double host_mflops = 0;   ///< wall-clock MFlops on this host (0 if off)
  int threads = 1;          ///< execution width used for host timing
  /// Resolved SIMD level the host timing actually ran (kScalar when the
  /// serial accessor kernels ran; kRows for --simd=off on a pool).
  rt::simd::SimdLevel simd = rt::simd::SimdLevel::kScalar;
  /// What the caller asked for, before capability fallbacks (e.g. a
  /// requested SIMD level the host cannot execute resolves lower; a
  /// degraded run would otherwise print rows that look like real data
  /// points).  degraded() flags that case so benches can annotate or skip
  /// the duplicates.
  int threads_requested = 1;
  rt::simd::SimdMode simd_requested = rt::simd::SimdMode::kOff;
  bool degraded() const {
    return threads < threads_requested ||
           simd < rt::simd::resolve(simd_requested) ||
           status != rt::guard::Status::kOk ||
           plan_status != rt::guard::Status::kOk;
  }
  /// Run-level outcome: kOk for a normal run; kOverflow / kAllocFailed when
  /// the configuration was skipped-and-recorded instead of run; kNonFinite
  /// when the verify sweep found NaN/Inf; kTimeout when the watchdog fired.
  /// Metrics of a non-kOk row are partial or zero — record, don't compare.
  rt::guard::Status status = rt::guard::Status::kOk;
  std::string status_detail;  ///< human-readable reason when status != kOk
  /// Planner outcome from plan_for_checked (run_kernel only): records the
  /// typed reason when the requested transform degraded (kFellBackUntiled,
  /// kInvalidArgument, kInfeasible) while the run itself proceeded on the
  /// fallback plan.
  rt::guard::Status plan_status = rt::guard::Status::kOk;
  std::string plan_detail;
  /// Verify sweep results (all-zero when RunOptions::verify was kOff).
  rt::guard::VerifyMode verify_mode = rt::guard::VerifyMode::kOff;
  long nonfinite = 0;  ///< non-finite elements found across all arrays
  std::uint64_t sim_accesses = 0;
  std::uint64_t sim_flops = 0;
  double mem_elems = 0;  ///< total allocated elements across all arrays
  /// Host-timing phase breakdown: the single warm-up step and every
  /// measured step (count == HwStats::iters when counters ran).
  rt::obs::PhaseStats warmup;
  rt::obs::PhaseStats measure;
  HwStats hw;  ///< hardware counters (all-off unless RunOptions::counters)
};

/// Run one (kernel, transform, N) configuration on N x N x k_dim arrays.
RunResult run_kernel(rt::kernels::KernelId id, rt::core::Transform tr, long n,
                     const RunOptions& opts);

/// Same, but with an explicit externally computed tiling/padding plan
/// (used by the ablation benches to explore off-policy plans).
RunResult run_kernel_with_plan(rt::kernels::KernelId id,
                               const rt::core::TilingPlan& plan, long n,
                               const RunOptions& opts);

/// One host time step of kernel @p id under @p plan on its
/// kernel_info(id).num_arrays native arrays (equal dims): the serial
/// accessor reference when pol.lvl is kScalar, otherwise the row sweeps
/// through rt::simd::execute.  The runner's measured step; exported so
/// microbenchmarks time exactly the same code.
void host_step(rt::kernels::KernelId id, const rt::core::TilingPlan& plan,
               std::vector<rt::array::Array3D<double>>& arrays,
               const rt::simd::ExecPolicy& pol);

/// Simulated L1/L2 miss rates of the 2D Jacobi stencil nest on an n x n
/// array — used by the 2D-vs-3D motivation study (no copy-back, so the
/// intra-array column reuse is isolated).
struct MissRates {
  double l1_pct = 0;
  double l2_pct = 0;
};
/// @param p1  optional padded leading dimension (0 = unpadded)
MissRates run_jacobi2d_missrates(long n, const RunOptions& opts, long p1 = 0);

/// Same for 3D Jacobi on n x n x k arrays without tiling.
MissRates run_jacobi3d_missrates(long n, long k, const RunOptions& opts);

/// Append one flat record in the results/BENCH_*.json schema to @p w:
/// identification (kernel, n, transform, tile, simd, threads, requested
/// axes), host throughput, and nested "sim" / "hw" blocks (JSON null when
/// that signal was off).  This is the C++ replacement for the jq
/// reshaping in scripts/bench_to_json.sh.  Returns the record so callers
/// can append bench-specific blocks (e.g. "temporal") after the standard
/// fields.
rt::obs::JsonValue& append_json_record(rt::obs::MetricsWriter& w,
                                       const std::string& kernel, long n,
                                       const RunResult& r);

/// "temporal" block for temporal-blocking records: the executed
/// TemporalPlan as {mode, tsteps, bk, tb, threads, team, stages,
/// occupancy} (stable key order; golden-pinned).
rt::obs::JsonValue temporal_json(const rt::core::TemporalPlan& p);

/// Capacity in doubles of this host's outermost (largest) data cache,
/// probed from sysfs — the level a temporal plane window must stay
/// resident in.  Falls back to 32MB when the sysfs cache directory is
/// unavailable (containers, non-Linux).
long outer_cache_elems();

/// "plan_cache" block for app-level records: rt::core::PlanCache counters
/// as {hits, misses, hit_rate, pinned_hits, evictions} (stable key order;
/// golden-pinned).
rt::obs::JsonValue plan_cache_json(const rt::core::PlanCacheStats& s);

/// "tune" block for autotuned records: the calibration outcome as {mode,
/// key, status, origin, candidates, skipped, winner_mflops, model_mflops,
/// worst_mflops} (stable key order; golden-pinned).
rt::obs::JsonValue tune_json(rt::tune::TuneMode mode,
                             const rt::tune::TuneResult& r);

struct BenchOptions;  // options.hpp

/// Apply the --tune flags to @p cache: load the resolved plan store and pin
/// its winners, so subsequent cache.plan()/temporal() lookups serve the
/// measured plans ahead of the model search.  Returns a one-line summary
/// for bench headers.  A corrupt/stale/missing store installs nothing and
/// reports the typed reason — the bench keeps running on model plans.
std::string apply_tune_options(const BenchOptions& bo,
                               rt::core::PlanCache& cache);

/// "phases" block for app-level records: named per-operator wall-clock
/// phases in caller order, each as {count, total_s, mean_s}.
rt::obs::JsonValue phases_json(
    const std::vector<std::pair<std::string, rt::obs::PhaseStats>>& phases);

}  // namespace rt::bench
