#pragma once
// Independent reference results for served JACOBI / REDBLACK / RESID
// solves.  The server's answer is checked against a checksum computed here
// without the server and without any of the library's sweep code: the
// grid init, every stencil expression (in the same floating-point order)
// and the FNV-1a witness are restated in this file.
//
// The reference streams the grid plane by plane.  Each sweep (JACOBI step,
// red or black half-sweep) is one stage that turns three input planes into
// one output plane, so T sweeps form a pipeline of T stages holding three
// planes each; memory is O(T n^2) instead of O(n^3), which keeps the n=448
// references cheap next to the served 720 MB grids.

#include <string>

namespace pb {

enum class Kernel { kJacobi, kRedBlack, kResid };

const char* kernel_name(Kernel k);

/// Analytic flops of one served solve: interior points x sweeps x flops
/// per point (JACOBI 5 add + 1 mul; REDBLACK 6 add + 2 mul; RESID 23 add +
/// 4 mul + 4 sub).
double solve_flops(Kernel k, long n, int tsteps);

/// Computed (not measured) bytes one served solve moves if every array
/// pass streams its array once: grid init writes, per-sweep array reads
/// and writes, and the checksum read.  Labelled "computed" wherever shown.
double solve_bytes(Kernel k, long n, int tsteps);

/// The checksum a served solve of (kernel, n x n x n, tsteps) must return,
/// as the 16-hex-digit wire string.  Independent of the transform: padding
/// is excluded from the witness and tiling never changes result bits.
std::string reference_checksum(Kernel k, long n, int tsteps);

}  // namespace pb
