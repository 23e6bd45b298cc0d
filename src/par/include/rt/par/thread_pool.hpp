#pragma once
// Small reusable thread pool with a fork-join `parallel_for`: the work
// distributor underneath the host executor (rt/simd/execute.hpp).
//
// Design constraints, in order:
//  * deterministic results — work items must write disjoint data, so any
//    index-to-thread assignment is valid; indices are handed out with an
//    atomic counter (dynamic self-scheduling, good load balance for tile
//    grids whose edge tiles are smaller);
//  * a pool of 1 thread degenerates to a plain sequential loop in index
//    order on the calling thread (no worker threads are ever spawned), so
//    single-threaded execution is bit-for-bit and trace-for-trace identical
//    to the serial kernels;
//  * `parallel_for` is a barrier: it returns only after every index has
//    completed, which is what gives the executor its inter-sweep
//    ordering guarantees (e.g. red before black);
//  * concurrent entry is safe: a multi-tenant caller (rt::serve request
//    threads sharing one pool) may call `parallel_for` from many threads at
//    once.  Jobs are serialized on an internal job mutex — one job runs at
//    a time, the rest queue on the lock — instead of racing on the shared
//    body_/count_/generation_ dispatch state (the historical behaviour was
//    a documented-but-unchecked data race).  Entry from *inside* a running
//    body on the same pool (reentrancy) cannot wait for the pool — that
//    would deadlock the barrier — so it degrades to the sequential
//    index-order loop on the calling thread, which is always correct.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace rt::par {

class ThreadPool {
 public:
  /// @p threads total workers including the calling thread; <= 0 picks
  /// default_threads().  A pool of 1 spawns no threads at all.
  explicit ThreadPool(int threads = 0);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total execution width: worker threads + the calling thread.
  int num_threads() const { return static_cast<int>(workers_.size()) + 1; }

  /// Run body(i) for every i in [0, count) exactly once, distributed over
  /// the pool; the calling thread participates.  Blocks until all indices
  /// complete (full barrier).  Safe to call concurrently from multiple
  /// threads: concurrent jobs are serialized (one at a time) on an internal
  /// mutex.  Calling it from inside a body running on the same pool runs
  /// the nested loop sequentially on the calling thread instead (a nested
  /// job cannot wait for the pool it is executing on).
  void parallel_for(long count, const std::function<void(long)>& body);

  /// std::thread::hardware_concurrency() clamped to >= 1.
  static int default_threads();

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  /// Serializes whole parallel_for jobs from concurrent external callers;
  /// held for the full fork-join span of one job.  m_ below only guards the
  /// dispatch handshake inside a job.
  std::mutex job_m_;
  std::mutex m_;
  std::condition_variable cv_start_;
  std::condition_variable cv_done_;
  // Current job; body_/count_/running_/generation_ are guarded by m_,
  // next_ is the lock-free index dispenser.
  const std::function<void(long)>* body_ = nullptr;
  long count_ = 0;
  std::atomic<long> next_{0};
  std::uint64_t generation_ = 0;
  int running_ = 0;
  bool stop_ = false;
};

}  // namespace rt::par
