// Snapshot-bound batched ranking core.
//
// `RankingEngine` is the request-to-ranking machinery shared by every
// serving entry point: it binds one immutable `ModelSnapshot` to a
// `CatalogScorer` plus a per-user cached-ranking table and answers
// single or batched `TopKRequest`s. The two front ends layer ownership
// and threading policy on top:
//
//   * `InferenceService` (inference_service.h) — synchronous: owns a
//     pool + snapshot + one engine, driven by one calling thread.
//   * `ServingFrontEnd` (serving_frontend.h) — concurrent: many
//     producers feed a queue; a dispatcher thread owns the pool and
//     drives one engine *per published snapshot* (the cache is part of
//     the engine, so cached rankings can never mix snapshots).
//
// Request semantics
//   * `filter_seen` (default on) masks the user's training positives —
//     a recommendation list must never contain already-consumed items.
//     `extra_seen` masks additional per-request ids (sorted ascending),
//     e.g. items the user saw since the snapshot was taken.
//   * Responses are ordered by (score descending, item id ascending),
//     a strict total order, so every answer is unique and
//     bit-identical for any worker count and any batch packing:
//     HandleBatch(reqs)[i] == Handle(reqs[i]), always.
//
// Cutoff prefix reuse
//   * Default-filtered requests with k <= `ServeConfig::max_k` are
//     served from a per-user cached top-max_k ranking (computed on
//     first touch); smaller cutoffs are prefixes of it (the total
//     order gives rankings the prefix property). Custom-filtered or
//     deeper requests bypass the cache and are scored directly.
//
// Threading: `Handle`/`HandleBatch` drive the engine's pool from the
// calling thread and mutate the cache — one call at a time, from
// whichever single thread owns the engine (the pool's own one-driver
// contract, see runtime/thread_pool.h).
#ifndef BSLREC_SERVE_RANKING_ENGINE_H_
#define BSLREC_SERVE_RANKING_ENGINE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "data/dataset.h"
#include "runtime/thread_pool.h"
#include "serve/model_snapshot.h"
#include "serve/topk_scorer.h"

namespace bslrec::serve {

struct ServeConfig {
  // Depth of the per-user cached ranking; requests with k <= max_k and
  // default filtering share one cached computation per user.
  uint32_t max_k = 100;
  // Disable to score every request from scratch (benchmarks).
  bool cache_rankings = true;
  // With exact = false, serve through the snapshot's IVF index (built
  // automatically): probe the top-nprobe coarse lists and keep the exact
  // top-k of their items. See topk_scorer.h.
  bool exact = true;
  uint32_t nprobe = kDefaultNprobe;
  // Index shape for ANN serving (ivf.build is forced on when !exact; set
  // ivf.build directly to build the index without serving through it).
  IvfBuildOptions ivf;
  // The scoring pool. An exact batch's item split follows its worker
  // count (CatalogScorer::BatchTopK); no response does.
  runtime::RuntimeConfig runtime;
};

// The snapshot/scorer option sets a ServeConfig implies — shared by
// every serving entry point (InferenceService, ServingFrontEnd, tools,
// benches) so they all freeze and score identically. The snapshot
// options are SnapshotOptionsFor(ScorerOptionsFor(config), config.ivf),
// the same mapping the evaluator freezes its passes with.
SnapshotOptions SnapshotOptionsFor(const ServeConfig& config);
ScorerOptions ScorerOptionsFor(const ServeConfig& config);

// Admission-control priority lane (serving_frontend.h). Interactive
// traffic is drained ahead of bulk under the front door's weighted-fair
// policy; the direct engine paths ignore the lane entirely.
enum class RequestLane : uint8_t { kInteractive = 0, kBulk = 1 };
inline constexpr size_t kNumLanes = 2;
inline const char* LaneName(RequestLane lane) {
  return lane == RequestLane::kBulk ? "bulk" : "interactive";
}

struct TopKRequest {
  uint32_t user = 0;
  uint32_t k = 10;
  bool filter_seen = true;               // mask the user's train positives
  std::span<const uint32_t> extra_seen;  // sorted extra ids to mask
  // ---- front-door admission fields (serving_frontend.h) ----
  // Ignored by RankingEngine / InferenceService, which score
  // unconditionally: deadlines and lanes are queueing policy, and only
  // the queue (ServingFrontEnd) enforces them.
  // Relative SLO in microseconds, measured from Submit time; 0 = use
  // FrontEndConfig::default_deadline_us (which may itself be 0 = none).
  // A request past its deadline fails with DeadlineExceededError
  // instead of being scored.
  uint32_t deadline_us = 0;
  RequestLane lane = RequestLane::kInteractive;
};

struct TopKResponse {
  std::vector<uint32_t> items;  // best first, at most k
  std::vector<float> scores;    // cosine scores, parallel to items
};

class RankingEngine {
 public:
  // Binds `snapshot` to a scorer + cache. `data` provides the
  // seen-item (train positive) lists; `data`, `snapshot`, and `pool`
  // must outlive the engine. Construction never drives `pool` — it is
  // safe while another thread is inside a Run (the front end publishes
  // fresh engines from the trainer thread mid-traffic).
  RankingEngine(const Dataset& data, const ModelSnapshot& snapshot,
                runtime::ThreadPool& pool, const ServeConfig& config);

  const ModelSnapshot& snapshot() const { return snapshot_; }
  const ServeConfig& config() const { return config_; }
  // Per-tier scan statistics (CatalogScorer::Stats).
  const CatalogScorer& scorer() const { return scorer_; }

  TopKResponse Handle(const TopKRequest& request);
  // Answers every request; responses[i] answers requests[i] and is
  // identical to Handle(requests[i]).
  std::vector<TopKResponse> HandleBatch(
      std::span<const TopKRequest> requests);

 private:
  const Dataset& data_;
  ServeConfig config_;
  const ModelSnapshot& snapshot_;
  CatalogScorer scorer_;
  std::vector<uint8_t> cache_valid_;            // per user
  std::vector<std::vector<ScoredItem>> cache_;  // per user, top-max_k
};

}  // namespace bslrec::serve

#endif  // BSLREC_SERVE_RANKING_ENGINE_H_
