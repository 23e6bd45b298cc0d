#pragma once
// rt::serve::Server — a long-lived, multi-tenant solve server over the
// length-prefixed JSON protocol (protocol.hpp).
//
// Threading model:
//   * one acceptor thread (listen socket, 127.0.0.1 only),
//   * one handler thread per connection (reads frames, parses, admits),
//   * `executors` executor threads draining a bounded admission queue.
// Responses are written by whichever thread finishes the work, under a
// per-connection write mutex — so a connection can pipeline requests and
// receive responses out of order (matched by `id`).
//
// Admission: the queue holds at most `queue_depth` requests.  A request
// arriving at a full queue — or after drain began — is rejected
// immediately with status "overloaded"; nothing about an overloaded server
// is slow, which is the point of bounding the queue.
//
// Batching: an executor pops the head request, then pulls every queued
// request with the same BatchKey (kernel, n, k, transform), up to
// `batch_max`.  The batch shares ONE PlanCache/plan-store lookup and ONE
// padded allocation set from the buffer arena; members whose full
// SolveParams are equal additionally share the computed result (dedup).
// Batching changes scheduling, never results: served checksums are
// bit-identical with batching on or off.
//
// Deadlines and abandonment: a batch containing any deadline runs under
// rt::guard::run_with_deadline with the minimum remaining member deadline.
// Everything the watchdog closure touches is owned by a heap-held batch
// context (arrays, a batch-private thread pool, outcome slots behind a
// mutex) — never server members — so an abandoned thread can outlive the
// batch, the connection, even stop(), without touching freed state.  The
// price of abandonment is paid in resources, visibly: the context's
// buffers never return to the arena, and stats report both the process-wide
// abandoned-thread count and how many abandoned contexts are still alive.
//
// Self-healing (rt::resil, PR 9): a supervisor thread watches the
// executors.  A no-deadline batch runs its work inline on the executor
// thread, so a wedge there (injected hang, pathological solve) eats the
// executor itself; when one stays busy past `executor_wedge_ms` the
// supervisor retires it (the thread exits on its own once the wedge
// clears — wedges here are cooperative, same contract as the watchdog)
// and respawns a replacement, up to `max_respawns`.  Every wedge and
// every watchdog abandonment is an event in a sliding window; when
// `breaker_threshold` events accumulate inside `breaker_window_ms` the
// circuit breaker trips into explicit *degraded* mode — solves rejected
// as overloaded with a `retry_after_ms` hint, ping/stats/health still
// answered — and resets once the window clears.  The "health" op reports
// healthy/degraded/draining plus readiness for clients and supervisors.
//
// Backpressure: every kOverloaded rejection caused by queue pressure
// carries a server-supplied `retry_after_ms` hint (breaker rejections a
// larger one); `queue_watermark` < 1.0 sheds load before the queue is
// hard-full.  rt::resil::RetryingClient honors the hint.
//
// Shutdown: stop() closes the listener, flips to draining (new requests
// rejected as overloaded), lets executors finish every admitted request,
// then shuts down connections and joins every thread it owns — including
// retired executors, whose wedges must have cleared (cancel_hangs() in
// tests) by then.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "rt/core/plan_cache.hpp"
#include "rt/guard/status.hpp"
#include "rt/obs/metrics_writer.hpp"
#include "rt/obs/phase_timer.hpp"
#include "rt/par/thread_pool.hpp"
#include "rt/serve/arena.hpp"
#include "rt/serve/protocol.hpp"
#include "rt/serve/solve.hpp"
#include "rt/simd/simd.hpp"

namespace rt::serve {

struct ServerOptions {
  int port = 0;           ///< 0 = ephemeral (read back via Server::port())
  int executors = 2;      ///< executor threads draining the queue
  std::size_t queue_depth = 64;  ///< admission bound; beyond = kOverloaded
  bool batching = true;   ///< coalesce same-BatchKey requests
  int batch_max = 8;      ///< max requests fused into one batch
  int solver_threads = 1; ///< threads per solve (kernel sweeps + app pools)
  int default_deadline_ms = 0;   ///< applied when a request sends none
  int watchdog_grace_ms = 500;   ///< grace before a timed-out batch is abandoned
  long max_n = 1024;      ///< policy cap on n (and k): larger = rejected
  std::size_t arena_max_bytes = 1u << 30;  ///< idle buffer-pool cap
  long cs_elems = 0;      ///< planning cache size (0 = serve_cs_elems())
  std::string plan_store; ///< optional rt::tune store to pin at startup

  // Self-healing knobs (see file header).
  int retry_after_ms = 50;   ///< backpressure hint on queue rejections
  double queue_watermark = 1.0;  ///< shed load at this fraction of depth
  int supervise_interval_ms = 20;  ///< supervisor poll period
  int executor_wedge_ms = 0; ///< busy longer than this = wedged (0 = off)
  int max_respawns = 4;      ///< lifetime cap on replacement executors
  int breaker_threshold = 0; ///< events in window that trip (0 = off)
  int breaker_window_ms = 2000;    ///< abandonment/wedge sliding window
  int breaker_retry_after_ms = 250;  ///< hint while degraded
};

class Server {
 public:
  explicit Server(ServerOptions opts = {});
  ~Server();  ///< calls stop()

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind, listen, spawn acceptor + executors.  kOk or the typed reason
  /// (kIoError: socket/bind/listen failed).  Ignores SIGPIPE process-wide:
  /// a peer closing mid-response must surface as EPIPE on the write, not
  /// kill the server.
  rt::guard::Status start(std::string* detail = nullptr);

  /// Graceful drain (see file header).  Idempotent.
  void stop();

  int port() const { return port_; }
  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Point-in-time server statistics as a JSON object — the same document
  /// the "stats" op returns on the wire.
  rt::obs::JsonValue stats_json() const;

  /// The "health" op's document: state ("healthy"/"degraded"/"draining"),
  /// readiness, queue occupancy, executor liveness, breaker state.
  rt::obs::JsonValue health_json() const;

  /// True while the circuit breaker holds the server in degraded mode.
  bool degraded() const { return degraded_.load(std::memory_order_acquire); }

  /// Outcome of the optional plan-store load at start() (kOk also when no
  /// store was configured; kStale/kCorrupt/... mirror rt::tune).
  rt::guard::Status plan_store_status() const { return store_status_; }

 private:
  struct Conn;
  struct Pending;
  struct BatchCtx;

  /// Heartbeat the supervisor reads: busy_since_ms >= 0 while the thread
  /// is inside run_batch; retired tells the thread to exit at the next
  /// loop turn (a wedged thread observes it once its wedge clears).
  struct ExecState {
    std::atomic<bool> retired{false};
    std::atomic<long long> busy_since_ms{-1};
  };
  struct ExecSlot {
    std::thread th;
    std::shared_ptr<ExecState> state;
  };

  void acceptor_loop();
  void handler_loop(std::shared_ptr<Conn> conn);
  void executor_loop(std::shared_ptr<ExecState> state);
  void supervisor_loop();
  void spawn_executor();  ///< callers hold exec_m_
  void handle_payload(const std::shared_ptr<Conn>& conn,
                      const std::string& payload);
  void admit(const std::shared_ptr<Conn>& conn, const Request& req);
  void run_batch(std::vector<std::unique_ptr<Pending>> batch);
  void respond(const std::shared_ptr<Conn>& conn,
               const rt::obs::JsonValue& doc);
  void respond_error(const std::shared_ptr<Conn>& conn, std::int64_t id,
                     rt::guard::Status st, const std::string& detail,
                     int retry_after_ms = 0);
  void record_latency(double queue_s, double solve_s, double total_s);

  ServerOptions opts_;
  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> draining_{false};
  rt::guard::Status store_status_ = rt::guard::Status::kOk;
  std::string store_detail_;

  rt::core::PlanCache cache_;
  BufferArena arena_;
  /// SimdMode::kAuto resolved once for this host: the row-sweep level every
  /// kernel batch and app solve runs at (reported by the stats op).
  const rt::simd::SimdLevel simd_lvl_ =
      rt::simd::resolve(rt::simd::SimdMode::kAuto);
  /// Shared solver pool for batches WITHOUT a deadline (deadline batches
  /// build their own pool inside the owned context — see file header).
  std::unique_ptr<rt::par::ThreadPool> pool_;

  std::thread acceptor_;

  mutable std::mutex exec_m_;  ///< executors_ / retired_executors_ (never nested
                       ///< inside stats_m_; take it first when both)
  std::vector<ExecSlot> executors_;
  /// Handles of retired (wedged) executors, joined at stop() once their
  /// wedges clear.  Never detached: a wedged executor touches server
  /// members, so its thread must not outlive the Server.
  std::vector<std::thread> retired_executors_;

  std::thread supervisor_;
  std::mutex sup_m_;
  std::condition_variable sup_cv_;
  bool sup_stop_ = false;
  std::atomic<bool> degraded_{false};

  std::mutex conns_m_;
  std::vector<std::shared_ptr<Conn>> conns_;
  std::vector<std::thread> handlers_;

  mutable std::mutex q_m_;
  std::condition_variable q_cv_;
  std::deque<std::unique_ptr<Pending>> queue_;
  bool stop_executors_ = false;

  mutable std::mutex stats_m_;
  struct Counters {
    std::uint64_t connections = 0;
    std::uint64_t requests = 0;
    std::uint64_t admitted = 0;
    std::uint64_t rejected_overloaded = 0;
    std::uint64_t protocol_errors = 0;
    std::uint64_t io_errors = 0;
    std::uint64_t responses_ok = 0;
    std::uint64_t responses_error = 0;
    std::uint64_t timeouts = 0;
    std::uint64_t batches = 0;
    std::uint64_t batched_requests = 0;  ///< members of size->1 batches
    std::uint64_t max_batch = 0;
    std::uint64_t dedup_shared = 0;  ///< members served from a group-mate
    std::uint64_t abandoned_batches = 0;
    std::uint64_t retry_hints = 0;   ///< rejections carrying retry_after_ms
    std::uint64_t degraded_rejections = 0;  ///< rejected by the breaker
    std::uint64_t executors_wedged = 0;
    std::uint64_t executors_respawned = 0;
    std::uint64_t breaker_trips = 0;
    std::uint64_t breaker_resets = 0;
  } counters_;
  /// Abandonment/wedge event timestamps (steady ms) for the breaker's
  /// sliding window; guarded by stats_m_.
  std::deque<long long> breaker_events_ms_;
  rt::obs::PhaseStats queue_phase_;
  rt::obs::PhaseStats solve_phase_;
  std::vector<double> latencies_s_;  ///< per-request total, capped
  long abandoned_baseline_ = 0;  ///< guard counter at start()
  /// Contexts abandoned to their detached threads; expired entries mean
  /// the thread finished and the context died with it.
  std::vector<std::weak_ptr<void>> abandoned_ctxs_;
};

}  // namespace rt::serve
