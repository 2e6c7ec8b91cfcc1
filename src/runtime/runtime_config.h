// Execution-runtime configuration.
//
// Every parallel section in the library (trainer batches, evaluator
// ranking, benches) is driven by a `ThreadPool` sized from this config.
// The contract — enforced by the deterministic sharding in
// runtime/thread_pool.h — is that *results never depend on the worker
// count*: `num_threads = 8` produces bit-identical training histories and
// metrics to `num_threads = 1`, only faster.
#ifndef BSLREC_RUNTIME_RUNTIME_CONFIG_H_
#define BSLREC_RUNTIME_RUNTIME_CONFIG_H_

#include <cstddef>

namespace bslrec::runtime {

struct RuntimeConfig {
  // Worker count for parallel sections, including the calling thread.
  // 0 = one worker per hardware thread (std::thread::hardware_concurrency);
  // 1 = fully serial execution on the calling thread (no threads spawned).
  size_t num_threads = 0;

  // Worker count for the *background* evaluation pool when asynchronous
  // evaluation is enabled (TrainConfig::async_eval: the trainer ranks
  // each snapshot on a std::async thread through an Evaluator owning
  // this pool). The overlapped pass runs on its own pool so the trainer
  // keeps its full `num_threads` budget; the two pools timeshare the
  // machine through the OS scheduler. 0 = share/steal policy: the eval
  // pool is sized to half the resolved training worker count (at least
  // 1), so an overlapped pass mostly soaks up the cycles the trainer
  // leaves idle (its serial per-batch bookkeeping between the pooled
  // phases, and the workers' waits at each phase's end) instead of
  // doubling the thread count. Results never depend on this value —
  // evaluation is thread-count invariant — so the knob is purely about
  // wall time.
  size_t eval_threads = 0;
};

// Hard ceiling on the worker count. Requests beyond it (including
// negative values laundered through size_t) are clamped; a pool this
// wide is never useful for our workloads and an unchecked request
// would try to spawn it.
inline constexpr size_t kMaxThreads = 1024;

// Resolves a requested worker count: returns `requested` clamped to
// [1, kMaxThreads], or the hardware concurrency (at least 1) when
// `requested` is 0.
size_t ResolveNumThreads(size_t requested);

// Resolves the background evaluation pool's worker count:
// `config.eval_threads` clamped to [1, kMaxThreads] when non-zero,
// otherwise half of ResolveNumThreads(config.num_threads), at least 1
// (the share/steal policy documented on RuntimeConfig::eval_threads).
size_t ResolveEvalThreads(const RuntimeConfig& config);

}  // namespace bslrec::runtime

#endif  // BSLREC_RUNTIME_RUNTIME_CONFIG_H_
