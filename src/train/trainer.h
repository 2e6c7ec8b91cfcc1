// Mini-batch training loop.
//
// One training sample is one observed edge (u, i+) plus N- negatives from
// the configured sampler (paper Algorithm 1). Per batch the trainer:
//   1. re-propagates the model (Forward),
//   2. scores samples with cosine similarity of the final embeddings,
//   3. applies the loss to get dL/dscore,
//   4. chain-rules through the cosine into final-embedding gradients,
//   5. adds contrastive aux gradients (SGL/SimGCL/LightGCL),
//   6. backpropagates into parameters and steps the optimizer.
//
// Steps 2-4 — the per-sample sampling/score/gradient work that dominates
// the epoch — fan out across a runtime::ThreadPool, and the batch is
// split into fixed-size sample shards either way. The two sampling modes
// then build the gradient differently:
//   * Sampled negatives (Algorithm 1): every worker accumulates its
//     shard's gradients into per-shard sparse buffers, and the shards
//     are reduced into the model's gradient tables serially in shard
//     order.
//   * In-batch negatives (Algorithm 2) score, then scatter. Phase A,
//     per shard: one vec::DotTile scores the shard's users against every
//     positive item in the batch, the loss runs row by row, each user's
//     terms are summed into that shard's user partial, and every pair's
//     loss coefficient and score is written item-major. Phase B gives
//     each distinct user and item row one owner on the pool. An item's
//     owner sums the row's terms per shard (per sample, its positive
//     term first, then its other occurrences in batch order) into a
//     partial that starts at +0.0f; a user's owner takes its phase-A
//     partials. Both add the partials into the gradient table in shard
//     order. No row has two writers and nothing is reduced serially.
//     That summation tree is the one per-shard first-touch buffers
//     build, which test_runtime keeps as this path's bitwise oracle.
//
// In sampled mode, negative sampling runs *inside* the shards from
// counter-based per-sample streams: sample s of epoch e draws from
// StreamRng(stream_seed, e, s), a pure function of the sample's
// epoch-global index, so the drawn items do not depend on which worker
// processes the shard or when. Training results are therefore
// bit-identical for any `TrainConfig::runtime.num_threads` in either
// mode, with no serial pre-draw stage at all (see runtime/thread_pool.h
// for the sharding contract and math/rng.h for the stream discipline).
// Negative scoring is fused: the shard gathers + normalizes a sample's
// negatives as one block (vec::GatherNormalize) and scores it with one
// blocked batch kernel (vec::DotBatch) instead of N- strided dots.
//
// The trainer also hands its pool to the model (`SetRuntime`), so graph
// backbones run steps 1 and 6 — propagation in Forward/Backward and the
// contrastive aux pass — through the same worker budget (the sharded
// kernels in graph/propagation.h keep those bit-identical too). The
// pool is detached again when the trainer is destroyed. Step 6's
// optimizer step runs on the pool as well (`Optimizer::SetRuntime`):
// every parameter tensor is stepped as fixed-size element shards, and
// the update is elementwise, so its bits do not depend on the worker
// count either.
//
// Evaluation runs every `eval_every` epochs on the held-out test split;
// the best checkpoint metrics (by NDCG) are reported, emulating the
// paper's early-stopping/grid protocol without storing weights.
//
// With `TrainConfig::async_eval` the trainer stops stopping the world
// for those evaluations: at an eval epoch it freezes a
// `serve::ModelSnapshot` on its own pool (the cheap step) and submits
// the full ranking pass to a background `AsyncEvaluator`, then
// immediately starts the next epoch. Pending passes are joined at the
// next eval epoch (pipeline depth 1) and at the end of Train. Because
// passes score only their frozen snapshot and ranking is thread-count
// invariant, the recorded `TrainResult::evals` history is bit-identical
// to synchronous evaluation — asynchrony changes wall time, never
// numbers. The one control-flow coupling is early stopping: the stop
// decision consumes each eval's metrics, so when
// `early_stop_patience > 0` the trainer joins each pass right after
// submitting it (the pass still runs on the background pool, but
// without overlap) to keep the epoch trajectory identical to sync.
#ifndef BSLREC_TRAIN_TRAINER_H_
#define BSLREC_TRAIN_TRAINER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/losses.h"
#include "data/dataset.h"
#include "eval/async_evaluator.h"
#include "eval/evaluator.h"
#include "models/model.h"
#include "runtime/thread_pool.h"
#include "sampling/negative_sampler.h"
#include "train/optimizer.h"

namespace bslrec {

// How negatives are obtained for each (user, positive) sample:
//  * kSampledNegatives — N- draws from the configured sampler
//    (paper Algorithm 1, used for MF).
//  * kInBatch — the other samples' positive items in the mini-batch act
//    as negatives with only the diagonal masked (paper Algorithm 2,
//    used for NGCF/LightGCN). Duplicate items inside a batch therefore
//    occasionally serve as false negatives, exactly as in the paper —
//    the robustness the softmax family provides covers this.
enum class SamplingMode { kSampledNegatives, kInBatch };

struct TrainConfig {
  int epochs = 30;
  size_t batch_size = 1024;
  SamplingMode sampling_mode = SamplingMode::kSampledNegatives;
  size_t num_negatives = 64;  // ignored in kInBatch mode
  // In-batch negatives are drawn proportionally to item popularity, which
  // biases the sampled softmax (Bengio & Senecal, 2003 — the paper's
  // reference [12]). Setting this to the softmax temperature applies the
  // standard logQ correction, subtracting tau*log q(item) from each
  // in-batch negative score before the loss sees it. 0 disables the
  // correction; leave 0 for non-softmax losses.
  double inbatch_logq_tau = 0.0;
  double lr = 0.05;
  double weight_decay = 1e-6;
  bool use_adam = true;
  int eval_every = 5;           // epochs between evaluations (>=1)
  uint32_t metric_k = 20;       // Recall@K / NDCG@K cutoff
  int early_stop_patience = 0;  // consecutive non-improving evals; 0 = off
  uint64_t seed = 123;
  // Seed of the counter-based negative-sampling streams (kSampledNegatives
  // mode). 0 derives it from `seed`, which is what experiments want: one
  // knob reproduces the whole run. Set it explicitly to hold the sampled
  // negatives fixed while varying `seed` (init/shuffle), or vice versa —
  // the stream family is keyed (stream_seed, epoch, sample_index), fully
  // decoupled from the trainer's sequential Rng.
  uint64_t sampling_stream_seed = 0;
  // Overlap evaluation with the next training epoch (see the header
  // comment). Metrics and histories are bit-identical either way; the
  // background pool is sized by `runtime.eval_threads`.
  bool async_eval = false;
  // Worker count for batch processing and evaluation. Results are
  // bit-identical for any value; 1 runs fully serial.
  runtime::RuntimeConfig runtime;
};

struct EpochStats {
  int epoch = 0;
  double avg_loss = 0.0;      // mean recommendation loss per sample
  double avg_aux_loss = 0.0;  // mean contrastive aux loss per batch
};

struct TrainResult {
  TopKMetrics best;    // best eval by NDCG
  int best_epoch = 0;
  TopKMetrics final_metrics;  // metrics at the last executed eval
  std::vector<EpochStats> history;
  // Every evaluation in epoch order — the same sequence whether
  // evaluation ran synchronously or overlapped (async_eval).
  std::vector<EvalRecord> evals;
};

class Trainer {
 public:
  // All referenced objects must outlive the trainer.
  Trainer(const Dataset& data, EmbeddingModel& model,
          const LossFunction& loss, const NegativeSampler& sampler,
          const TrainConfig& config);
  // Detaches the trainer's pool from the model (the pool dies with the
  // trainer; the model may outlive it).
  ~Trainer();

  // Runs the configured number of epochs with periodic evaluation.
  TrainResult Train();

  // Runs a single epoch; returns its stats. Exposed for custom loops
  // (benches that need per-epoch probes).
  EpochStats RunEpoch(int epoch_index);

  // Evaluates the current model on the test split. Reuses the snapshot
  // frozen for the current optimizer step when one exists (e.g. the one
  // the last eval epoch just froze), instead of rebuilding it; external
  // parameter mutation between calls is not detected.
  TopKMetrics Evaluate() const;

  // How many ModelSnapshots this trainer has frozen — observability for
  // the snapshot-reuse contract (tests and benches assert on it).
  size_t snapshots_frozen() const { return snapshots_frozen_; }

  Rng& rng() { return rng_; }

 private:
  // Fixed samples-per-shard grains for the parallel batch loops. Shard
  // boundaries must depend only on the batch size — never on the worker
  // count — or results would change with num_threads.
  static constexpr size_t kSampledGrain = 32;
  static constexpr size_t kInBatchGrain = 16;
  // Rows per task of the in-batch row owners. Each row is computed by
  // one owner alone, so the grain moves only load balance, never bits.
  static constexpr size_t kOwnerGrain = 8;

  // Sparse partial gradients produced by one sampled-mode shard: the
  // embedding rows its samples touched, in first-touch order, each with
  // a d-wide accumulated gradient. Reduced into the model serially in
  // shard order, which is what makes training thread-count invariant.
  struct ShardGrad {
    std::vector<uint32_t> user_rows, item_rows;
    std::vector<float> user_vals, item_vals;  // rows.size() x dim, packed
    double loss_sum = 0.0;
  };

  // Epoch-tagged row -> shard-slot map (no O(rows) clearing per shard).
  struct SlotMap {
    std::vector<uint64_t> tag;
    std::vector<uint32_t> slot;
  };

  // One in-batch pair's loss coefficient (dL/dscore over the batch size)
  // and the score its gradient term uses.
  struct PairTerm {
    float coeff;
    float score;
  };

  // The terms of one vec::AccumulateCosineGradRun call: other row,
  // score and CosineGradScale multiplier per term.
  struct GradRun {
    std::vector<uint32_t> idx;
    std::vector<float> score, scale;
    size_t size = 0;
    void Reserve(size_t cap);
    void Add(size_t row, float s, float sc) {
      idx[size] = static_cast<uint32_t>(row);
      score[size] = s;
      scale[size++] = sc;
    }
    // grad += the run's terms, with rows of `others` d floats apart.
    void AccumulateInto(const float* self_hat, const float* others,
                        size_t d, float* grad) const;
  };

  // Per-worker temporaries, reused across shards and batches.
  struct WorkerScratch {
    // Sampled mode only (the tag arrays are O(users + items)).
    SlotMap users, items;
    uint64_t shard_tag = 0;
    std::vector<float> u_hat, i_hat;
    std::vector<uint32_t> negs;  // this sample's drawn negatives, N- wide
    Matrix j_hat;                // gathered normalized negatives, N- x d
    std::vector<float> j_norm, neg_scores, d_neg;
    // In-batch mode: the shard's score and coefficient rows
    // (kInBatchGrain x tile_stride), one gradient run, one item partial.
    std::vector<float> tile, coeff, partial;
    GradRun run;
    void PrepareInBatch(size_t b, size_t run_cap, size_t tile_size);
  };

  // One in-batch batch's shared state, reused across batches. Rows are
  // indexed by sample position s in [0, b).
  struct InBatchBuffers {
    std::vector<float> u_hat, i_hat;     // b x d normalized rows
    std::vector<double> u_wide, i_wide;  // the same, widened for DotTile
    std::vector<float> u_norm, i_norm, logq_shift;
    // (row << 32 | s) sorted, and the offsets where each row's run of
    // sample positions starts (plus the end): the phase-B owners.
    std::vector<uint64_t> user_occ, item_occ;
    std::vector<uint32_t> user_runs, item_runs;
    // user_head[s]: the first sample of s's shard with s's user; that
    // (user, shard)'s partial gradient is row user_head[s] of user_part.
    std::vector<uint32_t> user_head;
    std::vector<float> user_part;  // b x d
    // Item-major pairs: pairs[t * pair_stride + s] is the pair (user of
    // s, item of t); the diagonal holds each sample's positive.
    std::vector<PairTerm> pairs;
    std::vector<double> shard_loss;
    size_t b = 0;  // the batch size
    size_t tile_stride = 0, pair_stride = 0;
    void Resize(size_t batch, size_t d);
  };

  // Returns the shard-local accumulator row for `row`, creating (and
  // zero-filling) it on first touch. Rows register in first-touch order,
  // which is deterministic because samples inside a shard run in order.
  // Must be re-called per use: growing `vals` may reallocate.
  static float* GradSlot(SlotMap& map, uint64_t shard_tag,
                         std::vector<uint32_t>& rows,
                         std::vector<float>& vals, uint32_t row, size_t d);
  static void BeginShard(WorkerScratch& ws, ShardGrad& out);

  // Processes one batch of edges [begin, end); returns (sum loss, aux).
  // `epoch` keys the batch's negative-sampling streams.
  std::pair<double, double> RunBatch(const std::vector<Edge>& edges,
                                     size_t begin, size_t end,
                                     uint64_t epoch);
  // Sampled-negatives (Algorithm 1) and in-batch (Algorithm 2) loss
  // accumulation over the final embeddings; both only write into the
  // model's final-embedding gradient buffers (the sampled path via the
  // shard reduction, the in-batch path via its row owners). Sample s of
  // the batch draws negatives from the counter-based stream keyed
  // (stream_seed_, epoch, begin + s) — `begin` doubles as the batch's
  // epoch-global sample offset.
  double AccumulateSampledLoss(const std::vector<Edge>& edges, size_t begin,
                               size_t end, uint64_t epoch);
  double AccumulateInBatchLoss(const std::vector<Edge>& edges, size_t begin,
                               size_t end);
  // The in-batch phases (see the header comment). Phase A for samples
  // [lo, hi) of `batch`: returns the shard's loss sum. Phase B: the
  // owners of the batch's r-th distinct item row and u-th user row.
  double InBatchShard(const Edge* batch, size_t lo, size_t hi,
                      WorkerScratch& ws);
  void OwnItemRow(size_t r, WorkerScratch& ws);
  void OwnUserRow(size_t u);
  // Sorts (row << 32 | sample) keys and writes where each row's run
  // starts, plus the end; returns the longest run.
  static size_t SortIntoRuns(std::vector<uint64_t>& occ,
                             std::vector<uint32_t>& runs);
  // Adds every sampled-mode shard's partial gradients into the model's
  // gradient tables in shard order; returns the summed loss.
  double ReduceShards(size_t num_shards);

  // Freezes (or reuses — see Evaluate) a snapshot of the model's
  // current state: re-runs Forward exactly as a synchronous eval would,
  // then copies+normalizes the final tables on the trainer's pool.
  std::shared_ptr<const serve::ModelSnapshot> FreezeSnapshot() const;
  // Folds one completed evaluation into `result` (best/final/evals) and
  // the early-stop counter; returns true when training should stop.
  bool ApplyEvalRecord(TrainResult& result, const EvalRecord& rec,
                       int* evals_without_improvement);
  // Joins every pending background pass, applying each record in epoch
  // order; returns true when any of them tripped early stopping.
  bool JoinAsyncEvals(TrainResult& result, int* evals_without_improvement);

  const Dataset& data_;
  EmbeddingModel& model_;
  const LossFunction& loss_;
  const NegativeSampler& sampler_;
  TrainConfig config_;
  std::unique_ptr<runtime::ThreadPool> pool_;
  std::vector<WorkerScratch> scratch_;   // one per pool worker
  std::vector<ShardGrad> shards_;        // sampled mode: one per shard
  InBatchBuffers in_batch_;              // in-batch mode
  Evaluator evaluator_;
  std::unique_ptr<AsyncEvaluator> async_eval_;  // null unless async_eval
  std::unique_ptr<Optimizer> optimizer_;
  Rng rng_;
  uint64_t stream_seed_;  // keys the per-sample negative-draw streams

  // Snapshot-reuse bookkeeping: the optimizer-step counter, the last
  // frozen snapshot and the step it captured. Evaluate() and the async
  // submit path share a freeze when no step happened in between.
  uint64_t step_count_ = 0;
  mutable std::shared_ptr<const serve::ModelSnapshot> frozen_snapshot_;
  mutable uint64_t frozen_snapshot_step_ = 0;
  mutable size_t snapshots_frozen_ = 0;
};

}  // namespace bslrec

#endif  // BSLREC_TRAIN_TRAINER_H_
