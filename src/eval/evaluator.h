// Full-ranking top-K evaluator.
//
// Implements the paper's protocol: for every user with test interactions,
// rank the *entire* catalog by cosine score, mask the user's training
// positives, and average Recall@K / NDCG@K / Precision@K / HitRate@K over
// users. Also provides the popularity-group NDCG decomposition behind the
// fairness figures and raw top-K lists for analysis.
//
// Ranking fans out across a runtime::ThreadPool. Test users are
// assigned to fixed shards of serve::kQueryBlock users and every
// per-user result lands in its own output slot before a serial
// reduction, so all metrics are bit-identical for any worker count (see
// runtime/thread_pool.h).
//
// An evaluation *pass* (`BeginPass`) freezes the model's current final
// embeddings into a read-only `serve::ModelSnapshot` (the same snapshot
// type the inference service ships to production) and shares it, along
// with per-worker scan buffers, across every query on the pass. Each
// user shard is ranked as one block by the serving stack's own block
// kernel, `serve::BlockTopK`, so offline metrics and served responses
// agree bit-for-bit by construction. On the exact tier a block scores
// the catalog in single-precision vec::DotTileF32 tiles and re-scores
// with vec::Dot only the items that can still reach a user's k-th (see
// serve/topk_scorer.h); `TopKForUser` runs the same scan for one user.
// Every ranked item carries vec::Dot's bits, and selection runs under
// the same strict total order, so each user's ranking, and hence every
// metric, is the same whatever the block — the metrics are the sums of
// the per-user kernels over those rankings in test-user order. The
// single-shot `Evaluate`/`GroupNdcg`/... wrappers each open a one-query
// pass; callers issuing several queries against the same model state
// should hold a pass instead.
//
// `BeginPassOn(snapshot)` opens a pass over an *already frozen*
// snapshot instead of freezing one itself. That is the seam async
// evaluation rides: the trainer freezes the snapshot on its own pool,
// then a second Evaluator, on a std::async thread, scores it on a
// different pool — and because ranking is thread-count invariant, the
// metrics are bit-identical to a synchronous pass over the same
// snapshot.
//
// The `scoring` options pick the tier BlockTopK runs per pass:
//   * default — exact full-catalog scan, tiled per user block
//     (about 2% of the (user, item) pairs re-scored in double at the
//     benchmark's 4k x 8k shape);
//   * `exact = false` — ANN through the snapshot's IVF index at
//     `nprobe` probes, per user: the *approximate evaluation pass*,
//     measuring exactly the lists ANN serving would return (with
//     nprobe >= nlist it degenerates to the exact metrics bitwise).
// Every tier runs serially per block inside the parallel user loop, so
// all metric variants are bit-identical for any worker count.
#ifndef BSLREC_EVAL_EVALUATOR_H_
#define BSLREC_EVAL_EVALUATOR_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "data/dataset.h"
#include "eval/metrics.h"
#include "models/model.h"
#include "runtime/thread_pool.h"
#include "serve/model_snapshot.h"
#include "serve/topk_scorer.h"

namespace bslrec {

// One completed evaluation, tagged with the epoch whose model state it
// measured. The trainer records these in epoch order — identically for
// synchronous and asynchronous evaluation.
struct EvalRecord {
  int epoch = 0;
  TopKMetrics metrics;
};

class Evaluator {
 public:
  // `data` must outlive the evaluator. The evaluator owns a pool sized
  // from `runtime` (default: one worker per hardware thread).
  // `scoring` selects the ranking tier (see above and topk_scorer.h);
  // each pass aborts on options its snapshot cannot serve
  // (serve::CheckScorerOptions).
  Evaluator(const Dataset& data, uint32_t k,
            runtime::RuntimeConfig runtime = {},
            serve::ScorerOptions scoring = {});
  // Borrows an external pool (e.g. the trainer's) instead of owning
  // one; `pool` must be non-null and outlive the evaluator.
  Evaluator(const Dataset& data, uint32_t k, runtime::ThreadPool* pool,
            serve::ScorerOptions scoring = {});

  uint32_t k() const { return k_; }

  // One evaluation pass over a fixed model state. The pass copies the
  // final embeddings into its snapshot at construction, so the model
  // may keep training while the pass is queried.
  class Pass {
   public:
    // Aggregate metrics at cutoff evaluator k() / an arbitrary cutoff.
    TopKMetrics Evaluate();
    TopKMetrics EvaluateAtK(uint32_t k);

    // Mean per-group NDCG contributions over test users; summing the
    // vector gives overall NDCG@k(). Larger group id = more popular.
    std::vector<double> GroupNdcg(uint32_t num_groups);

    // Top-k()-ranked items for one user (train positives masked).
    std::vector<uint32_t> TopKForUser(uint32_t user);

    // How often each item appears in the top-k() lists across all test
    // users ("exposure"). Feed to GiniCoefficient for a concentration
    // summary of the recommendation policy.
    std::vector<double> ItemExposure();

    // The frozen embeddings this pass scores against — the same
    // snapshot type serve::InferenceService answers traffic from.
    const serve::ModelSnapshot& snapshot() const { return *snapshot_; }

   private:
    friend class Evaluator;
    Pass(const Evaluator& eval, const EmbeddingModel& model);
    Pass(const Evaluator& eval,
         std::shared_ptr<const serve::ModelSnapshot> snapshot);

    struct WorkerScratch {
      serve::ShardScratch scan;
      std::vector<serve::ScoreQuery> queries;  // one block
      std::vector<std::vector<serve::ScoredItem>> tops;
    };

    // Writes the top-k ids of users[j] (train positives masked) into
    // rankings[j], ranking the users as one serve::BlockTopK block under
    // the evaluator's scoring options.
    void RankUsers(std::span<const uint32_t> users, uint32_t k,
                   WorkerScratch& ws, std::vector<uint32_t>* rankings);
    // Parallel score+rank of every test user at cutoff k.
    std::vector<std::vector<uint32_t>> ComputeRankings(uint32_t k);
    // Cached ComputeRankings(k()): Evaluate/GroupNdcg/ItemExposure all
    // consume the same rankings, so the O(users x items x dim) scoring
    // runs once per pass no matter how many queries follow.
    const std::vector<std::vector<uint32_t>>& RankingsAtDefaultK();
    TopKMetrics MetricsOverRankings(
        const std::vector<std::vector<uint32_t>>& rankings, uint32_t k);

    const Evaluator& eval_;
    // Normalized tables, frozen once (shared so an in-flight async pass
    // keeps its snapshot alive however long the producer lives).
    std::shared_ptr<const serve::ModelSnapshot> snapshot_;
    std::vector<WorkerScratch> scratch_;  // one per pool worker
    std::vector<std::vector<uint32_t>> rankings_k_;  // per test user
    bool rankings_cached_ = false;
  };

  Pass BeginPass(const EmbeddingModel& model) const;
  // Opens a pass over a snapshot frozen elsewhere (possibly on another
  // pool). The snapshot's shape must match this evaluator's dataset.
  Pass BeginPassOn(
      std::shared_ptr<const serve::ModelSnapshot> snapshot) const;

  // Single-shot conveniences; each opens a fresh pass.
  TopKMetrics Evaluate(const EmbeddingModel& model) const;
  TopKMetrics EvaluateAtK(const EmbeddingModel& model, uint32_t k) const;
  std::vector<double> GroupNdcg(const EmbeddingModel& model,
                                uint32_t num_groups) const;
  std::vector<uint32_t> TopKForUser(const EmbeddingModel& model,
                                    uint32_t user) const;
  std::vector<double> ItemExposure(const EmbeddingModel& model) const;

 private:
  friend class Pass;

  const Dataset& data_;
  uint32_t k_;
  serve::ScorerOptions scoring_;
  std::vector<uint32_t> test_users_;  // users with >= 1 test item
  std::unique_ptr<runtime::ThreadPool> owned_pool_;
  runtime::ThreadPool* pool_;  // owned_pool_.get() or the borrowed pool
};

}  // namespace bslrec

#endif  // BSLREC_EVAL_EVALUATOR_H_
