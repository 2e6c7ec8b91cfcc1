// Reusable worker pool and deterministic parallel-for.
//
// ============================ Design notes ============================
//
// The pool is the library's single parallel-execution primitive. It is
// built for *deterministic* data parallelism: heavy loops are split into
// fixed-size shards and the shards — not the threads — are the unit of
// work, so the numeric result of a parallel section is a pure function
// of the input and the shard grain, never of the worker count or of OS
// scheduling.
//
// Threading contract
//   * A `ThreadPool(n)` owns `n - 1` background threads; the thread that
//     calls `Run` always participates as worker 0, so `n = 1` spawns no
//     threads at all and executes every task inline on the caller. A
//     job of one task also runs inline on the caller, as worker 0,
//     without waking the background threads.
//   * `Run(num_tasks, fn)` invokes `fn(task, worker)` for every task
//     index in [0, num_tasks) exactly once and blocks until all calls
//     have returned. Tasks are claimed from a shared atomic counter, so
//     any worker may execute any task.
//   * A pool must be driven from one thread at a time: concurrent `Run`
//     calls on the same pool are not supported. Nested `Run` from inside
//     a task deadlocks — don't.
//   * If a task throws, the first exception is captured and rethrown
//     from `Run` on the calling thread; remaining unclaimed tasks may be
//     skipped. (Library code itself aborts on programmer error via
//     BSLREC_CHECK and never throws; this path exists so user-supplied
//     callbacks fail loudly instead of terminating a worker.)
//
// Determinism guarantee (how callers get bit-identical results)
//   * `ParallelFor(pool, begin, end, grain, fn)` splits [begin, end)
//     into ceil((end-begin)/grain) contiguous shards of `grain`
//     iterations each. The shard boundaries depend only on (begin, end,
//     grain) — never on the worker count.
//   * Callers keep *per-worker scratch* (indexed by the `worker` id) for
//     temporaries, but emit results into *per-shard* output slots
//     (indexed by the `shard` id). After the loop, the caller reduces
//     the shard outputs serially in shard order. Since every shard's
//     output is computed by identical floating-point operations in
//     iteration order, and the reduction order is fixed, the final
//     result is bit-identical for any `num_threads` — including 1.
//   * The trainer (per-shard loss sums), the evaluator (per-user metric
//     slots) and the benches all follow this pattern; new subsystems
//     (sharding, batching, async pipelines) should too.
//   * Row owners need no reduction at all: when every output row is
//     written by exactly one task, which sums that row's terms in an
//     order fixed by the input, the result cannot depend on the worker
//     count either. The trainer's gradient in both sampling modes
//     (phase B) and the optimizer step (disjoint element ranges) work
//     this way.
//   * Selection under a strict total order over exact per-item values
//     needs neither: when every candidate's value is computed the same
//     way wherever it is computed, and the result is the unique set of
//     the k candidates that rank first under a strict total order, any
//     split of the candidates, merged in any order, selects the same
//     set. No floating-point value is reduced across the split, so it
//     may depend on the worker count. `serve::CatalogScorer::BatchTopK`
//     splits the catalog by the pool's worker count this way; every
//     score it returns is `vec::Dot`'s and its order is `ScoredBefore`
//     (see serve/topk_scorer.h).
//
// How to pin the worker count
//   * `RuntimeConfig{.num_threads = N}` threads through `TrainConfig`,
//     the `Evaluator` constructor and `tools/bslrec_train --threads=N`.
//     0 means "one worker per hardware thread"; 1 means serial.
// ======================================================================
#ifndef BSLREC_RUNTIME_THREAD_POOL_H_
#define BSLREC_RUNTIME_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "runtime/runtime_config.h"

namespace bslrec::runtime {

class ThreadPool {
 public:
  // Creates a pool with `ResolveNumThreads(num_threads)` workers in
  // total (the calling thread counts as one).
  explicit ThreadPool(size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Total worker count, including the calling thread. Always >= 1.
  size_t num_workers() const { return workers_.size() + 1; }

  // Runs fn(task, worker) for every task in [0, num_tasks); blocks until
  // done. `worker` is in [0, num_workers()). See the header comment for
  // the full contract.
  void Run(size_t num_tasks, const std::function<void(size_t, size_t)>& fn);

 private:
  void WorkerLoop(size_t worker_id);
  // Claims and executes tasks of the current job until none remain.
  void DrainTasks(size_t worker_id);

  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable work_cv_;  // signals workers: new job / shutdown
  std::condition_variable done_cv_;  // signals caller: job drained
  const std::function<void(size_t, size_t)>* job_ = nullptr;
  size_t job_tasks_ = 0;
  std::atomic<size_t> next_task_{0};
  size_t active_workers_ = 0;  // background workers still on current job
  uint64_t job_epoch_ = 0;
  std::exception_ptr first_error_;
  bool shutdown_ = false;
};

// Deterministic sharded loop over [begin, end): splits the range into
// fixed shards of `grain` iterations (the last may be shorter) and calls
//   fn(shard_begin, shard_end, shard_index, worker_id)
// once per shard. Shard boundaries depend only on (begin, end, grain),
// so per-shard outputs reduced in shard order are bit-identical for any
// pool size. Requires grain > 0.
void ParallelFor(
    ThreadPool& pool, size_t begin, size_t end, size_t grain,
    const std::function<void(size_t, size_t, size_t, size_t)>& fn);

}  // namespace bslrec::runtime

#endif  // BSLREC_RUNTIME_THREAD_POOL_H_
