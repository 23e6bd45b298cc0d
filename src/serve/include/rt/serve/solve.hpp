#pragma once
// Request execution for the solve server: the bridge between a parsed
// SolveParams and the repo's kernel/app machinery.
//
// Bit-identity contract (the acceptance bar for serving at all): a served
// JACOBI/REDBLACK/RESID result is bit-identical to the batch-binary path —
// same deterministic grid init as rt::bench's runner, same step structure
// (jacobi3d(+copy_interior) / redblack / resid, tiled when the plan says
// so), checksummed over the logical region only so the plan's padding
// cannot leak into the witness.  MGRID/SOR go through MgSolver/SorSolver
// with the same options the app benches use.
//
// Batching model: requests with equal BatchKey (kernel, n, k, transform)
// share one plan lookup and one padded allocation set; requests with fully
// equal SolveParams additionally share the computed result (dedup).  The
// server owns that grouping; this layer just exposes the key, the plan
// lookup, the allocation shape, and a run function whose only inputs are
// values and caller-owned buffers — nothing in here touches server state,
// which is what makes it safe to run under the abandoning deadline
// watchdog.

#include <vector>

#include "rt/array/array3d.hpp"
#include "rt/core/plan.hpp"
#include "rt/core/plan_cache.hpp"
#include "rt/guard/status.hpp"
#include "rt/par/thread_pool.hpp"
#include "rt/serve/protocol.hpp"

namespace rt::serve {

/// The batching equivalence class: requests that can share a plan lookup
/// and a padded allocation.
struct BatchKey {
  ServeKernel kernel = ServeKernel::kJacobi;
  long n = 0;
  long k = 0;
  rt::core::Transform transform = rt::core::Transform::kOrig;
  friend bool operator==(const BatchKey&, const BatchKey&) = default;
};

BatchKey batch_key_of(const SolveParams& p);

/// Grid arrays the kernel paths allocate (JACOBI 2, REDBLACK 1, RESID 3);
/// 0 for the apps, which allocate inside their solvers.
int num_arrays_for(ServeKernel k);

/// Planning cache-size heuristic for the serving host: the innermost data
/// cache's capacity in doubles (falls back to 32 KB when sysfs is silent).
/// The paper plans against a known cache; a server plans against the
/// machine it landed on.
long serve_cs_elems();

/// One plan lookup per batch through the shared cache (or plan_for_checked
/// when @p cache is null).  Kernel paths plan their own stencil; MGRID
/// plans RESID at the finest level; SOR plans the red-black sweep.
rt::core::PlanReport plan_for_batch(const BatchKey& key, long cs,
                                    rt::core::PlanCache* cache);

/// Allocation shape of one kernel-path grid under @p plan (logical n x n x
/// k padded to dip x djp).  Apps have no shared allocation; returns the
/// unpadded dims for them.
rt::array::Dims3 batch_dims(const BatchKey& key,
                            const rt::core::TilingPlan& plan);

struct SolveOutcome {
  rt::guard::Status status = rt::guard::Status::kOk;
  std::string detail;
  std::uint64_t checksum = 0;  ///< FNV-1a of the result's logical region
  int iters = 0;               ///< sweeps / V-cycles executed
  double residual = 0;         ///< final residual (apps; 0 for kernels)
};

/// Execute one solve.  Kernel paths run on @p arrays — at least
/// num_arrays_for(kernel) buffers shaped batch_dims(), contents stale
/// (this function initializes every logical element before reading).  Apps
/// ignore @p arrays.  Kernel sweeps run the rt::simd row sweeps at the
/// SimdMode::kAuto level through the executor (rt/simd/execute.hpp), on
/// @p pool (optional, also used for init) — results stay bit-identical to
/// the serial accessor kernels, every grid point is computed independently
/// with the same FP order.  @p app_threads sizes the MGRID/SOR solvers'
/// internal pools; both run their row-sweep fast paths at SimdMode::kAuto.
///
/// Deadline safety: reads/writes only its arguments; checks the rt::guard
/// hang-injection point each sweep so tests can wedge a solve under a
/// deadline.  Never throws — allocation failure inside the apps comes back
/// as kAllocFailed.
SolveOutcome run_solve(const SolveParams& p, const rt::core::TilingPlan& plan,
                       std::vector<rt::array::Array3D<double>>* arrays,
                       rt::par::ThreadPool* pool, int app_threads = 1);

}  // namespace rt::serve
