// Batched top-k inference service (synchronous, single-driver).
//
// `InferenceService` is the online counterpart of the offline
// `Evaluator`: it freezes a model into a read-only `ModelSnapshot` at
// construction and then answers single or batched top-k requests
// through a `RankingEngine` (ranking_engine.h — request semantics,
// cutoff-prefix reuse, and the bit-identity contracts live there).
// Because the snapshot is an immutable copy, the source model may keep
// training while the service answers traffic.
//
// Threading: the service drives its pool from the calling thread and is
// strictly *single-driver* — one thread, one Handle/HandleBatch at a
// time. Driving it from two threads used to race silently; it now
// aborts with a diagnostic. For concurrent producers use
// `serve::ServingFrontEnd` (serving_frontend.h), the documented
// concurrent entry point: a request queue + adaptive micro-batcher in
// front of this same engine, with live snapshot hot-swap.
#ifndef BSLREC_SERVE_INFERENCE_SERVICE_H_
#define BSLREC_SERVE_INFERENCE_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "data/dataset.h"
#include "models/model.h"
#include "runtime/thread_pool.h"
#include "serve/model_snapshot.h"
#include "serve/ranking_engine.h"
#include "serve/topk_scorer.h"

namespace bslrec::serve {

class InferenceService {
 public:
  // Snapshots `model` (Forward must have run); `data` provides the
  // seen-item (train positive) lists and must outlive the service.
  InferenceService(const Dataset& data, const EmbeddingModel& model,
                   ServeConfig config = {});

  const ModelSnapshot& snapshot() const { return snapshot_; }
  const ServeConfig& config() const { return config_; }
  // Per-tier scan statistics (CatalogScorer::Stats).
  const CatalogScorer& scorer() const { return engine_->scorer(); }

  TopKResponse Handle(const TopKRequest& request);
  // Answers every request; responses[i] answers requests[i] and is
  // identical to Handle(requests[i]).
  std::vector<TopKResponse> HandleBatch(
      std::span<const TopKRequest> requests);

 private:
  ServeConfig config_;
  std::unique_ptr<runtime::ThreadPool> pool_;
  ModelSnapshot snapshot_;
  std::unique_ptr<RankingEngine> engine_;
  // Catches a second thread entering Handle/HandleBatch while a call is
  // in flight (the single-driver contract above): aborts loudly instead
  // of racing the scorer scratch and the ranking cache.
  std::atomic<bool> busy_{false};
};

}  // namespace bslrec::serve

#endif  // BSLREC_SERVE_INFERENCE_SERVICE_H_
