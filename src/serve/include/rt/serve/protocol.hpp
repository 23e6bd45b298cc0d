#pragma once
// Wire protocol of the rt::serve solve server: length-prefixed JSON frames
// over a byte stream.  A frame is a 4-byte big-endian payload length
// followed by exactly that many bytes of JSON, parsed with the strict
// rt::obs::json_parse (the same reader the rt::tune plan store trusts for
// durable state — truncated or trailing-garbage documents are rejected,
// never half-parsed).
//
// Hostile-input contract (tested in tests/serve_test.cpp): every malformed
// input — truncated length prefix, oversized length, bad JSON, unknown
// kernel, overflowing N — produces a *typed* error response (or a clean
// close when no response channel is left), never a crash, a hang, or a
// leaked connection.
//
// Request document (op "solve"):
//   {"id": 7, "op": "solve", "kernel": "JACOBI", "n": 48, "k": 48,
//    "tsteps": 2, "tol": 0.0, "transform": "gcdpad", "deadline_ms": 250,
//    "seed": 42}
// `id` is echoed in the response (default -1), `op` defaults to "solve"
// (also: "ping", "stats", "health"), `k` defaults to n (cubic), `tol` > 0
// turns the
// MGRID/SOR apps into convergence-driven solves, `deadline_ms` > 0 runs
// the solve under rt::guard::run_with_deadline.
//
// Response document:
//   {"id": 7, "op": "solve", "status": "ok", "detail": "", "kernel": ...,
//    "plan": {...}, "plan_status": "ok", "checksum": "9f86d081...",
//    "iters": 2, "residual": 0.0, "batch_size": 3, "shared": false,
//    "queue_ms": 0.1, "solve_ms": 2.4, "total_ms": 2.7}
// `status` is a stable rt::guard token ("ok", "invalid_argument",
// "overloaded", "timeout", ...); `checksum` is the FNV-1a hash of the
// result grid's logical region, the bit-identity witness the tests and the
// load bench compare against the batch-binary solve paths.

#include <cstddef>
#include <cstdint>
#include <string>

#include "rt/array/array3d.hpp"
#include "rt/core/plan.hpp"
#include "rt/guard/status.hpp"
#include "rt/obs/metrics_writer.hpp"

namespace rt::par {
class ThreadPool;
}  // namespace rt::par

namespace rt::serve {

/// Hard cap on one frame's payload: a hostile 4 GB length prefix must be
/// rejected before any allocation happens.
inline constexpr std::uint32_t kMaxFrameBytes = 1u << 20;

/// The workloads the server can run: the three paper kernels plus the two
/// whole applications built on them.
enum class ServeKernel { kJacobi, kRedBlack, kResid, kMgrid, kSor };

/// Stable request token ("JACOBI", "REDBLACK", "RESID", "MGRID", "SOR").
const char* serve_kernel_name(ServeKernel k);
bool parse_serve_kernel(const std::string& s, ServeKernel* out);

/// Lower-case transform token ("orig", "tile", "euc3d", "gcdpad", "pad",
/// "gcdpadnt") to rt::core::Transform; also accepts the display names
/// rt::core::transform_name emits.
bool parse_transform_token(const std::string& s, rt::core::Transform* out);

enum class Op { kSolve, kPing, kStats, kHealth };
const char* op_name(Op op);

/// Everything that determines a solve's *result bits*.  Two requests with
/// equal SolveParams produce bit-identical grids, which is what lets the
/// batcher compute a deduplicated group once and share the outcome.
struct SolveParams {
  ServeKernel kernel = ServeKernel::kJacobi;
  long n = 0;       ///< grid points per side (MGRID: must be 2^l + 2)
  long k = 0;       ///< third dimension (kernel paths; 0 = n, cubic)
  int tsteps = 2;   ///< sweeps / iterations (apps: iteration cap)
  double tol = 0;   ///< > 0: convergence target for MGRID/SOR residual
  rt::core::Transform transform = rt::core::Transform::kGcdPad;
  std::uint64_t seed = 42;  ///< charge-placement seed (MGRID/SOR)
  friend bool operator==(const SolveParams&, const SolveParams&) = default;
};

struct Request {
  std::int64_t id = -1;
  Op op = Op::kSolve;
  SolveParams params;
  int deadline_ms = 0;  ///< 0 = no per-request deadline
};

/// Parse + validate one request document.  kOk fills @p out; otherwise the
/// typed reason (kInvalidArgument for unknown kernels / mistyped fields /
/// out-of-range values, kOverflow when n*n*k cannot be represented) with a
/// one-line @p detail.  On failure @p out->id still carries the request's
/// id when it parsed before the rejection, so error responses can echo it
/// (pipelining clients match responses to requests by id).  Limits that
/// are *server policy* (max n, queue depth) are enforced by the server,
/// not here.
rt::guard::Status parse_request(const rt::obs::JsonValue& doc, Request* out,
                                std::string* detail);

/// json_parse + parse_request over raw payload text.
rt::guard::Status parse_request_text(const std::string& text, Request* out,
                                     std::string* detail);

/// Read one frame from @p fd into @p payload.
enum class FrameResult {
  kOk,
  kEof,        ///< clean close before any prefix byte
  kTruncated,  ///< stream ended mid-prefix or mid-payload
  kOversized,  ///< prefix length exceeds kMaxFrameBytes (payload unread)
  kError,      ///< recv failed (errno text in detail)
  kTimeout,    ///< an SO_RCVTIMEO deadline expired mid-read; after a
               ///< timeout the stream position is unknown — the caller
               ///< must treat the connection as unsynced and hang up
};
FrameResult read_frame(int fd, std::string* payload,
                       std::string* detail = nullptr);

/// Write one frame (prefix + payload).  kOk, kTimeout (an SO_SNDTIMEO
/// send deadline expired mid-frame — connection unsynced), or kIoError
/// (short write, closed peer — with SIGPIPE ignored this is EPIPE, not
/// process death).  This is the chaos-injection choke point for both
/// directions of the wire: rt::guard kSockDrop tears the stream after a
/// torn prefix, kPartialWrite leaves a short frame behind (the reader
/// sees kTruncated once the writer hangs up).
rt::guard::Status write_frame(int fd, const std::string& payload,
                              std::string* detail = nullptr);

/// FNV-1a 64-bit over raw bytes, one byte at a time: the definition, the
/// reference every faster path is tested against, and the fallback.
std::uint64_t fnv1a64(const void* data, std::size_t bytes,
                      std::uint64_t h = 14695981039346656037ull);

/// Bit-exact witness of a solve result: FNV-1a over the byte patterns of
/// every element of the *logical* region (padding excluded — two plans
/// with different pads must hash equal when the answers are equal), in
/// storage order (i fastest).  Always equal to fnv1a64 over those bytes.
/// On hosts with AVX-512BW and PCLMULQDQ it runs without the byte-serial
/// dependency chain (src/serve/src/checksum.cpp), and spreads the work
/// over @p pool's threads when one is given; elsewhere it is fnv1a64.
std::uint64_t checksum_region(const rt::array::Array3D<double>& a,
                              rt::par::ThreadPool* pool = nullptr);

/// Which checksum_region path this process runs: "avx512" or "serial".
const char* checksum_path_name();

/// 16-hex-digit form used on the wire (JSON integers are signed 64-bit;
/// a hash is not).
std::string checksum_hex(std::uint64_t h);

namespace detail {

/// fnv1a64(data, bytes) through checksum_region's dispatch: the test entry
/// point for byte-granular lengths and unaligned starts.
std::uint64_t fnv1a64_dispatched(const void* data, std::size_t bytes,
                                 rt::par::ThreadPool* pool = nullptr);

/// Test hook: while on, checksum_region runs the byte-serial fnv1a64 (and
/// checksum_path_name() says "serial") on every host.
void force_serial_checksum(bool on);

/// Fast-path results whose seam self-check failed (each was rehashed
/// serially, so the answer stayed right); zero unless the kernel is wrong.
std::uint64_t checksum_seam_faults();

}  // namespace detail

}  // namespace rt::serve
