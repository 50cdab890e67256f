#include "src/common/thread_pool.h"

#include <algorithm>
#include <string>

namespace tierscape {

namespace {

// `threads` only sizes the pool on first use. The pool is never destroyed, so
// its workers outlive every static destructor that might still submit work.
ThreadPool& SharedPool(int threads) {
  static ThreadPool* const pool = new ThreadPool(threads);
  return *pool;
}

}  // namespace

ThreadPool::ThreadPool(int threads) {
  std::lock_guard<std::mutex> lock(mu_);
  Spawn(threads);
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++epoch_;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) {
    worker.join();
  }
}

ThreadPool& ThreadPool::Shared() {
  return SharedPool(static_cast<int>(std::max(1u, std::thread::hardware_concurrency())));
}

Status ThreadPool::SetSharedThreadsForTesting(int threads) {
  if (threads < 1) {
    return InvalidArgument("ThreadPool: thread count must be >= 1, got " +
                           std::to_string(threads));
  }
  return SharedPool(threads).Resize(threads);
}

Status ThreadPool::Resize(int threads) {
  std::vector<std::thread> retired;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (in_flight_.load() > 0) {
      return FailedPrecondition("ThreadPool: cannot resize while a ParallelFor is running");
    }
    if (threads == this->threads()) {
      return OkStatus();
    }
    retired.swap(workers_);
    ++epoch_;
  }
  work_cv_.notify_all();
  for (std::thread& worker : retired) {
    worker.join();
  }
  std::lock_guard<std::mutex> lock(mu_);
  Spawn(threads);
  return OkStatus();
}

void ThreadPool::Spawn(int threads) {
  const int total = std::max(1, threads);
  threads_.store(total);
  workers_.reserve(static_cast<std::size_t>(total - 1));
  for (int i = 1; i < total; ++i) {
    workers_.emplace_back([this, epoch = epoch_] { WorkerLoop(epoch); });
  }
}

void ThreadPool::ParallelFor(std::size_t n, const std::function<void(std::size_t)>& fn) {
  in_flight_.fetch_add(1);
  if (n <= 1 || threads() == 1) {
    for (std::size_t i = 0; i < n; ++i) {
      fn(i);
    }
    in_flight_.fetch_sub(1);
    return;
  }
  Batch batch;
  batch.fn = &fn;
  batch.size = n;
  {
    std::lock_guard<std::mutex> lock(mu_);
    open_.push_back(&batch);
  }
  work_cv_.notify_all();
  const std::size_t done = Drain(batch);  // the caller is one of the workers
  {
    std::unique_lock<std::mutex> lock(mu_);
    batch.completed += done;
    done_cv_.wait(lock, [&] { return batch.completed == batch.size && batch.workers == 0; });
    open_.erase(std::find(open_.begin(), open_.end(), &batch));
  }
  in_flight_.fetch_sub(1);
}

ThreadPool::Batch* ThreadPool::NewestClaimable() const {
  for (auto it = open_.rbegin(); it != open_.rend(); ++it) {
    if ((*it)->next.load(std::memory_order_relaxed) < (*it)->size) {
      return *it;
    }
  }
  return nullptr;
}

void ThreadPool::WorkerLoop(std::uint64_t epoch) {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    Batch* batch = nullptr;
    work_cv_.wait(lock, [&] {
      return epoch_ != epoch || (batch = NewestClaimable()) != nullptr;
    });
    if (epoch_ != epoch) {
      return;
    }
    ++batch->workers;
    lock.unlock();
    const std::size_t done = Drain(*batch);
    lock.lock();
    batch->completed += done;
    --batch->workers;
    if (batch->completed == batch->size && batch->workers == 0) {
      done_cv_.notify_all();
    }
  }
}

std::size_t ThreadPool::Drain(Batch& batch) {
  std::size_t done = 0;
  for (std::size_t i = batch.next.fetch_add(1, std::memory_order_relaxed); i < batch.size;
       i = batch.next.fetch_add(1, std::memory_order_relaxed)) {
    (*batch.fn)(i);
    ++done;
  }
  return done;
}

}  // namespace tierscape
