// Read-only model snapshot for scoring.
//
// A `ModelSnapshot` freezes the state an inference request needs: the
// L2-normalized final user and item tables copied out of an
// `EmbeddingModel` at a single point in time. Once built, the snapshot
// is immutable and fully self-contained — the source model may keep
// training, be checkpointed, or be destroyed without invalidating
// outstanding readers.
//
// Both the `InferenceService` (serving traffic) and the `Evaluator`
// (offline metrics) consume the same snapshot type, so "what the
// evaluator measured" and "what the service returns" are the same
// numbers by construction: cosine scores are Dot(user_row, item_row)
// over rows normalized by the identical `vec::Normalize` kernel.
//
// Construction normalizes both tables in parallel over a
// `runtime::ThreadPool`; rows are independent, so the fill is
// bit-identical for any worker count.
//
// Freeze also records `item_norm_bound()`, the largest `vec::NormBound`
// of a normalized item row (rows with a NaN left out). Normalized rows
// are unit up to rounding, but not all of them: a zero row stays zero and
// a row too small to normalize keeps a norm below 1, so the exact scan
// (topk_scorer.h) bounds its single-precision error with this recorded
// maximum rather than assuming unit rows. A maximum of exact per-row
// bounds is the same for every worker count.
//
// With `SnapshotOptions::ivf` the snapshot also carries an IVF coarse
// index (ivf_index.h) built over the normalized item table at freeze
// time. It trades exactness for speed, driving true ANN retrieval
// (`ScorerOptions::exact = false`; topk_scorer.h documents the scan and
// its determinism guarantees).
// `serve::SnapshotOptionsFor` maps scorer options to the tables they
// read.
#ifndef BSLREC_SERVE_MODEL_SNAPSHOT_H_
#define BSLREC_SERVE_MODEL_SNAPSHOT_H_

#include <cstdint>
#include <memory>

#include "math/matrix.h"
#include "models/model.h"
#include "runtime/thread_pool.h"
#include "serve/ivf_index.h"

namespace bslrec::serve {

struct SnapshotOptions {
  // With ivf.build, also build the IVF coarse index over the item table
  // (enables ScorerOptions::exact = false). See ivf_index.h.
  IvfBuildOptions ivf;
};

class ModelSnapshot {
 public:
  // Copies and normalizes `model`'s final embeddings (the model must
  // have run Forward). `pool` is only used during construction.
  ModelSnapshot(const EmbeddingModel& model, runtime::ThreadPool& pool,
                SnapshotOptions options = {});

  uint32_t num_users() const { return num_users_; }
  uint32_t num_items() const { return num_items_; }
  size_t dim() const { return dim_; }

  // Unit-norm embedding rows (zero vectors stay zero).
  const float* UserVec(uint32_t u) const { return user_normed_.Row(u); }
  const float* ItemVec(uint32_t i) const { return item_normed_.Row(i); }

  // An upper bound on ||ItemVec(i)||_2 over every item row without a NaN
  // (0 for an empty catalog; +inf if a row has an infinity).
  double item_norm_bound() const { return item_norm_bound_; }

  // IVF coarse index (non-null iff built with ivf.build).
  const IvfIndex* ivf() const { return ivf_.get(); }

 private:
  uint32_t num_users_;
  uint32_t num_items_;
  size_t dim_;
  Matrix user_normed_;
  Matrix item_normed_;
  double item_norm_bound_ = 0.0;
  std::unique_ptr<const IvfIndex> ivf_;
};

}  // namespace bslrec::serve

#endif  // BSLREC_SERVE_MODEL_SNAPSHOT_H_
