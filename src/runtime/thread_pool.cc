#include "runtime/thread_pool.h"

#include <algorithm>

#include "math/check.h"

namespace bslrec::runtime {

size_t ResolveNumThreads(size_t requested) {
  if (requested > 0) return std::min(requested, kMaxThreads);
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<size_t>(hw) : 1;
}

size_t ResolveEvalThreads(const RuntimeConfig& config) {
  if (config.eval_threads > 0) {
    return std::min(config.eval_threads, kMaxThreads);
  }
  return std::max<size_t>(1, ResolveNumThreads(config.num_threads) / 2);
}

ThreadPool::ThreadPool(size_t num_threads) {
  const size_t n = ResolveNumThreads(num_threads);
  workers_.reserve(n - 1);
  for (size_t w = 1; w < n; ++w) {
    workers_.emplace_back([this, w] { WorkerLoop(w); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::DrainTasks(size_t worker_id) {
  for (;;) {
    const size_t t = next_task_.fetch_add(1, std::memory_order_relaxed);
    if (t >= job_tasks_) return;
    try {
      (*job_)(t, worker_id);
    } catch (...) {
      std::lock_guard<std::mutex> lk(mu_);
      if (!first_error_) first_error_ = std::current_exception();
      // Fast-forward the counter so workers stop claiming new tasks.
      next_task_.store(job_tasks_, std::memory_order_relaxed);
    }
  }
}

void ThreadPool::WorkerLoop(size_t worker_id) {
  uint64_t seen_epoch = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lk(mu_);
      work_cv_.wait(lk,
                    [&] { return shutdown_ || job_epoch_ != seen_epoch; });
      if (shutdown_) return;
      seen_epoch = job_epoch_;
    }
    DrainTasks(worker_id);
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (--active_workers_ == 0) done_cv_.notify_one();
    }
  }
}

void ThreadPool::Run(size_t num_tasks,
                     const std::function<void(size_t, size_t)>& fn) {
  if (num_tasks == 0) return;
  if (workers_.empty() || num_tasks == 1) {
    // A serial pool, or a job of one task (which one worker would run
    // anyway): execute inline without waking the pool; exceptions
    // propagate directly.
    for (size_t t = 0; t < num_tasks; ++t) fn(t, 0);
    return;
  }
  {
    std::lock_guard<std::mutex> lk(mu_);
    job_ = &fn;
    job_tasks_ = num_tasks;
    next_task_.store(0, std::memory_order_relaxed);
    first_error_ = nullptr;
    active_workers_ = workers_.size();
    ++job_epoch_;
  }
  work_cv_.notify_all();
  DrainTasks(0);  // the caller is worker 0
  std::unique_lock<std::mutex> lk(mu_);
  done_cv_.wait(lk, [&] { return active_workers_ == 0; });
  job_ = nullptr;
  if (first_error_) {
    std::exception_ptr e = first_error_;
    first_error_ = nullptr;
    lk.unlock();
    std::rethrow_exception(e);
  }
}

void ParallelFor(
    ThreadPool& pool, size_t begin, size_t end, size_t grain,
    const std::function<void(size_t, size_t, size_t, size_t)>& fn) {
  BSLREC_CHECK(grain > 0);
  if (begin >= end) return;
  const size_t n = end - begin;
  const size_t num_shards = (n + grain - 1) / grain;
  pool.Run(num_shards, [&](size_t shard, size_t worker) {
    const size_t lo = begin + shard * grain;
    const size_t hi = std::min(end, lo + grain);
    fn(lo, hi, shard, worker);
  });
}

}  // namespace bslrec::runtime
