#pragma once
// Seeded request schedules.  Every schedule is generated in full before
// its run starts — arrival times, solve parameters, deadline flags and
// stats slots — so the program sees only the generated requests and the
// same seed always offers the same load.

#include <cstdint>
#include <string>
#include <vector>

#include "reference.hpp"

namespace pb {

/// serve-small: open-loop offered rate (requests/s), about two-thirds of
/// the measured capacity of this mix on the reference host (README.md).
inline constexpr double kSmallRate = 300.0;
/// serve-small: a solve counts toward serve.slo_frac when answered ok
/// within this many ms of its scheduled send.
inline constexpr double kSmallSloMs = 25.0;
/// serve-small: the deadline a quarter of the solves carry, far above any
/// expected latency, so it exercises the watchdog path without firing.
inline constexpr int kSmallDeadlineMs = 30000;

struct SmallOp {
  double t_s = 0;     ///< scheduled send time from the start of the run
  bool stats = false; ///< a "stats" read instead of a solve
  Kernel kernel = Kernel::kJacobi;
  long n = 0;
  int tsteps = 0;
  bool gcdpad = false;  ///< transform gcdpad (else orig)
  int deadline_ms = 0;  ///< 0 = none
};

/// Poisson arrivals at @p rate over @p seconds: about 1 op in 20 is a
/// stats read; solves cycle through shuffled blocks of every (kernel,
/// n in {32, 48, 64}, tsteps in {2, 3, 4}, transform) combination, 1 in 4
/// of them carrying a deadline.
std::vector<SmallOp> small_schedule(std::uint64_t seed, double rate,
                                    double seconds);

/// serve-large: one (kernel, n) cell of the closed-loop sequence.  Every
/// request uses transform gcdpad and kLargeTsteps sweeps.
struct LargeCell {
  Kernel kernel = Kernel::kJacobi;
  long n = 0;
};
inline constexpr int kLargeTsteps = 2;
inline constexpr long kLargeSizes[] = {200, 448};

/// @p rounds rounds; each round is a seeded permutation of all six cells,
/// so every complete round weights each cell equally.
std::vector<LargeCell> large_schedule(std::uint64_t seed, int rounds);

/// Canonical text of a schedule (the determinism self-test compares it).
std::string dump(const std::vector<SmallOp>& ops);
std::string dump(const std::vector<LargeCell>& cells);

}  // namespace pb
