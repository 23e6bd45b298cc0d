#pragma once
// The three workloads and the probes the traced run adds.  Each workload
// reaches the program only through rt::serve::Server/Client,
// rt::core::PlanCache and rt::multigrid::MgSolver.

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"

namespace pb {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Self-test hook: flip one reference checksum so the run must fail.
  bool corrupt_reference = false;
  int nproc = 1;
  /// Measured STREAM-triad bandwidth (traced runs; 0 = not measured).
  double triad_gbs = 0;
};

struct RunResult {
  bool correct = true;
  long attempted = 0;
  long failed = 0;
  Metrics e2e;    ///< end-to-end metrics (reported by untraced runs)
  Metrics layer;  ///< per-layer metrics (reported by traced runs)
  /// What actually ran: thread counts, resolved SIMD level, offered rate.
  JsonValue ran = JsonValue::object();
  std::vector<std::string> errors;  ///< first few correctness failures

  void mismatch(const std::string& what) {
    correct = false;
    if (errors.size() < 8) errors.push_back(what);
  }
};

/// Run one workload by name ("serve-small", "serve-large", "mgrid"); false
/// for an unknown name.  @p tr is null for an untraced run.
bool run_workload(const RunConfig& cfg, Trace* tr, RunResult* out);
const std::vector<std::string>& workload_names();

// --- probes (probes.cpp) ---------------------------------------------------

/// STREAM triad a = b + s*c over arrays of at least 4x the last-level
/// cache, on @p threads threads; best of @p reps passes, GB/s with bytes
/// computed as 3 x 8 x elements per pass (no write-allocate term).
double triad_gbs(int threads, int reps, Trace* tr, JsonValue* note);

/// Host provenance: CPU model, ISA flags of interest, nproc and the sysfs
/// cache sizes.
JsonValue provenance(int nproc);

/// Restart the peak-resident-set count (Linux clear_refs).
void reset_peak_rss();

/// Peak resident set of this process since the last reset_peak_rss(), in
/// MiB (since process start where the reset is unavailable).
double peak_rss_mb();

/// CPU seconds (user, system) of this process so far.
void cpu_seconds(double* user_s, double* sys_s);

}  // namespace pb
