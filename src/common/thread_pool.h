// Deterministic worker pool for the daemon's push threads (PT2, §6/§7.2).
//
// The only entry point is a blocking parallel-for over an index range. Tasks
// must be pure with respect to shared state and write only to slots owned by
// their index, so the result of a ParallelFor is identical for every pool
// size — including 1, where the loop runs inline on the caller with no
// threads involved. This is what lets the migration pipeline use real
// parallelism for wall-clock speed while keeping virtual-time results
// byte-identical across thread counts (the determinism invariant guarded by
// DriverTest.DeterministicAcrossThreadsAndCache).
//
// One process-wide pool (Shared()) serves every parallel stage: bench grid
// cells, multi-tenant shards, the migration compress fan-out and the cost
// model's ratio sweep. ParallelFor is reentrant: a task may call it, and so
// may several threads at once. Each call opens a batch, drains it on the
// calling thread, then waits for the indices other threads claimed. Idle
// workers claim from the newest open batch, so the fan-out of a straggler
// cell runs on cores that finished cells freed. No batch can deadlock: a
// caller waits only on its own batch, which it can always finish alone.
#ifndef SRC_COMMON_THREAD_POOL_H_
#define SRC_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "src/common/status.h"

namespace tierscape {

class ThreadPool {
 public:
  // `threads` is the total worker count including the calling thread:
  // 1 means fully serial (no threads are spawned), N > 1 spawns N - 1
  // workers that participate alongside the caller.
  explicit ThreadPool(int threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // The process-wide pool, built on first use with one thread per hardware
  // thread.
  static ThreadPool& Shared();

  // Resizes Shared() to `threads` (>= 1). For benches and tests only: the
  // {1, 4, 8} identity checks and TIERSCAPE_BENCH_THREADS. Refused with
  // FailedPrecondition while any ParallelFor on the pool is running.
  static Status SetSharedThreadsForTesting(int threads);

  int threads() const { return threads_.load(std::memory_order_relaxed); }

  // Runs fn(0) .. fn(n - 1), returning only when every index has completed.
  // Indices are claimed dynamically, so execution order across workers is
  // arbitrary — callers must not let it influence results.
  void ParallelFor(std::size_t n, const std::function<void(std::size_t)>& fn);

 private:
  // One ParallelFor call's work. Lives on the caller's stack; the caller
  // returns only once every index has run and no worker still holds it.
  struct Batch {
    const std::function<void(std::size_t)>* fn = nullptr;
    std::size_t size = 0;
    std::atomic<std::size_t> next{0};
    std::size_t completed = 0;  // guarded by ThreadPool::mu_
    int workers = 0;            // workers inside the batch; guarded by mu_
  };

  Status Resize(int threads);
  void Spawn(int threads);           // requires mu_
  Batch* NewestClaimable() const;    // requires mu_
  void WorkerLoop(std::uint64_t epoch);
  static std::size_t Drain(Batch& batch);

  std::atomic<int> threads_{1};
  std::atomic<int> in_flight_{0};  // running ParallelFor calls, any path
  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::vector<Batch*> open_;  // guarded by mu_; oldest first
  std::uint64_t epoch_ = 0;   // guarded by mu_; bumped to retire workers
  std::vector<std::thread> workers_;
};

}  // namespace tierscape

#endif  // SRC_COMMON_THREAD_POOL_H_
