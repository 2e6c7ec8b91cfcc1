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
// the epoch — fan out across a runtime::ThreadPool. Both sampling modes
// score, then scatter, over fixed-size sample shards:
//   * Before phase A, on the pool: normalize each item row the batch can
//     touch once. Sampled negatives (Algorithm 1) normalize the whole
//     item table (see BatchBuffers::item_hat); in-batch negatives
//     (Algorithm 2) normalize the batch's positives.
//   * Phase A, per shard: score the shard's samples, run the loss, and
//     sum each user's terms into that shard's user partial, which lives
//     at the row of the user's first sample in the shard. Keep every
//     (sample, item) term's loss coefficient and score, and each shard's
//     loss sum. Sampled negatives: a sample scores its positive and its
//     N- draws by item id against the normalized table with one
//     vec::DotRows, and its user's terms read the same rows. In-batch
//     negatives: one vec::DotTile scores the shard's users against every
//     positive item in the batch, and the terms are written item-major.
//   * Between the phases, on the calling thread: if a shard's loss sum is
//     not finite, the batch stops here (see EpochStats::non_finite).
//     Otherwise the terms are grouped by row: the samples are sorted by
//     user in both modes, and sampled mode sorts its item terms by item
//     id (a stable counting sort). In-batch mode sorted its samples by
//     item before phase A.
//   * Phase B gives each distinct user and item row one owner on the
//     pool. An item's owner reads its row as normalized before phase A,
//     then sums its terms shard by shard, in (sample, slot) order, into
//     a partial that starts at +0.0f; a user's owner takes its phase-A
//     partials. Both add the partials into the gradient table in shard
//     order. No row has two writers and nothing is reduced serially but
//     the shard losses. That summation tree is the one per-shard
//     first-touch slot buffers build, which test_runtime keeps as the
//     bitwise oracle of both modes.
//   * An item owner writes its terms as one run per shard (the grouping
//     pass packs each sampled term's score and coefficient beside its
//     sample) and hands all of them to one vec::AccumulateCosineGradRuns
//     call, which keeps the row and the partial in registers across the
//     runs; an in-batch item that occurs many times passes its runs in
//     several calls, with the same bits. Every run, one-term runs
//     included, goes through its +0.0f partial. Adding a lone term t
//     straight into the table instead would give the same bits, because
//     ZeroGrad starts the table at +0.0f and a float sum never turns it
//     into -0.0f, so g + (+0.0f + t) == g + t; one kernel call per row
//     makes that shortcut pointless, so it is gone.
//
// In sampled mode, negative sampling runs *inside* the shards from
// counter-based per-sample streams: sample s of epoch e draws from
// StreamRng(stream_seed, e, s), a pure function of the sample's
// epoch-global index, so the drawn items do not depend on which worker
// processes the shard or when. Training results are therefore
// bit-identical for any `TrainConfig::runtime.num_threads` in either
// mode, with no serial pre-draw stage at all (see runtime/thread_pool.h
// for the sharding contract and math/rng.h for the stream discipline).
//
// The trainer also hands its pool to the model (`SetRuntime`), so graph
// backbones run steps 1 and 6 — propagation in Forward/Backward and the
// contrastive aux pass — through the same worker budget (the sharded
// kernels in graph/propagation.h keep those bit-identical too). The
// pool is detached again when the trainer is destroyed. Step 6's
// optimizer step runs on the pool as well (`AdamOptimizer::SetRuntime`):
// every parameter tensor is stepped as fixed-size element shards, and
// the update is elementwise, so its bits do not depend on the worker
// count either.
//
// Evaluation runs every `eval_every` epochs on the held-out test split;
// the best checkpoint metrics (by NDCG) are reported, emulating the
// paper's protocol of reporting the best epoch without storing weights.
//
// With `TrainConfig::async_eval` the trainer stops stopping the world
// for those evaluations: at an eval epoch it freezes a
// `serve::ModelSnapshot` on its own pool (the cheap step), then ranks it
// on one std::async thread through a second Evaluator, which owns
// `runtime::ResolveEvalThreads` workers, while the next epoch trains.
// At most one pass is in flight: the next eval epoch, and the end of
// Train, join it before anything else. So only the pass's thread ever
// drives the second pool, as ThreadPool's one-driver contract requires.
// Because a pass scores only its frozen snapshot and ranking is
// thread-count invariant, the recorded `TrainResult::evals` history is
// bit-identical to synchronous evaluation — asynchrony changes wall
// time, never numbers.
#ifndef BSLREC_TRAIN_TRAINER_H_
#define BSLREC_TRAIN_TRAINER_H_

#include <cstdint>
#include <future>
#include <memory>
#include <optional>
#include <vector>

#include "core/losses.h"
#include "data/dataset.h"
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
  int eval_every = 5;      // epochs between evaluations (>=1)
  uint32_t metric_k = 20;  // Recall@K / NDCG@K cutoff
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

// Where training met a loss that is not finite: the first shard, in shard
// order, of the first batch whose phase-A loss sum is NaN or infinite.
// That batch wrote no gradient and stepped nothing, so the parameters are
// the ones the previous batch left.
struct NonFiniteLoss {
  int epoch = 0;
  size_t batch = 0;  // batch index within the epoch
  // Shard index within the batch, in shards of the mode's grain
  // (Trainer::kSampledGrain or Trainer::kInBatchGrain samples).
  size_t shard = 0;
  double shard_loss = 0.0;  // that shard's loss sum
};

struct EpochStats {
  int epoch = 0;
  double avg_loss = 0.0;      // mean recommendation loss per sample
  double avg_aux_loss = 0.0;  // mean contrastive aux loss per batch
  // Set when the epoch stopped early at a non-finite loss; avg_loss then
  // includes that batch and is not finite either.
  std::optional<NonFiniteLoss> non_finite;
};

struct TrainResult {
  TopKMetrics best;    // best eval by NDCG
  int best_epoch = 0;
  TopKMetrics final_metrics;  // metrics at the last executed eval
  std::vector<EpochStats> history;
  // Every evaluation in epoch order — the same sequence whether
  // evaluation ran synchronously or overlapped (async_eval).
  std::vector<EvalRecord> evals;
  // Set when training stopped at a non-finite loss (the last history
  // entry's record). No evaluation runs after it.
  std::optional<NonFiniteLoss> non_finite;
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

  // An overlapped evaluation pass holds `this` on its own thread.
  Trainer(const Trainer&) = delete;
  Trainer& operator=(const Trainer&) = delete;

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

  // Samples per shard of the batch loops, per sampling mode. Shard
  // boundaries depend only on the batch size — never on the worker count
  // — or results would change with num_threads; a NonFiniteLoss names
  // its shard by this grain.
  static constexpr size_t kSampledGrain = 32;
  static constexpr size_t kInBatchGrain = 16;

 private:
  // Rows per task of the phase-B row owners and of the sampled mode's
  // item-table pass. Each row is computed by one owner alone, so the
  // grains move only load balance, never bits.
  static constexpr size_t kOwnerGrain = 8;
  static constexpr size_t kItemTableGrain = 128;

  // One in-batch pair's loss coefficient (dL/dscore over the batch size)
  // and the score its gradient term uses.
  struct PairTerm {
    float coeff;
    float score;
  };

  // One sampled item term: the sample, and the score and loss
  // coefficient of its slot, packed beside it by the grouping pass so an
  // item's owner reads its terms from one array.
  struct ItemTerm {
    uint32_t sample;
    float score;
    float coeff;
  };

  // The terms of one vec::AccumulateCosineGradRun call (phase A's user
  // runs) or of one vec::AccumulateCosineGradRuns call (phase B's item
  // owners): other row, score and CosineGradScale multiplier per term,
  // and where each run ends.
  struct GradRun {
    std::vector<uint32_t> idx;
    std::vector<float> score, scale;
    std::vector<uint32_t> ends;
    size_t size = 0, num_runs = 0;
    // Room for `terms` terms in `runs` runs; grows, never shrinks.
    void Reserve(size_t terms, size_t runs);
    size_t capacity() const { return idx.size(); }
    void Clear() { size = num_runs = 0; }
    void Add(size_t row, float s, float sc) {
      idx[size] = static_cast<uint32_t>(row);
      score[size] = s;
      scale[size++] = sc;
    }
    // Closes the current run at the last added term.
    void EndRun() { ends[num_runs++] = static_cast<uint32_t>(size); }
    // Turns every scale, added as a loss coefficient, into its
    // CosineGradScale multiplier: one tight loop that GCC vectorizes
    // (IEEE division has the same bits packed or scalar).
    void CoeffsToScales(float norm);
    // grad += the terms as one run, with rows of `others` d floats
    // apart (phase A).
    void AccumulateInto(const float* self_hat, const float* others,
                        size_t d, float* grad) const;
    // grad += each closed run through its own +0.0f partial, in run
    // order (phase B).
    void AccumulateRunsInto(const float* self_hat, const float* others,
                            size_t d, float* grad) const;
  };

  // Per-worker temporaries, reused across shards and batches.
  struct WorkerScratch {
    // One gradient run (phase A) or one row's runs (phase B).
    GradRun run;
    // In-batch mode: one sample's negative scores and coefficients, and
    // the shard's score and coefficient rows (kInBatchGrain x
    // tile_stride).
    std::vector<float> neg_scores, d_neg, tile, coeff;
    void PrepareInBatch(size_t b, size_t tile_size);
  };

  // One batch's shared state, reused across batches. Rows are indexed by
  // sample position s in [0, b).
  struct BatchBuffers {
    size_t b = 0;  // the batch size
    // Both modes: the normalized user rows, each shard's loss sum, and
    // the user owners' work. user_occ holds (user << 32 | s) sorted, and
    // user_runs the offsets where each user's run starts (plus the end).
    // user_head[s] is the first sample of s's shard with s's user; that
    // (user, shard)'s partial gradient is row user_head[s] of user_part.
    std::vector<float> u_hat;  // b x d
    std::vector<double> shard_loss;
    std::vector<uint64_t> user_occ;
    std::vector<uint32_t> user_runs, user_head;
    std::vector<float> user_part;  // b x d
    // Sampled mode: per sample, `slots` = 1 + N- item ids (the positive,
    // then the draws in draw order) with each one's score and loss
    // coefficient. The phase-B owners: the touched items in id order and
    // their terms, grouped by item in (sample, slot) order; touched item
    // r's terms are item_terms[term_runs[r] .. term_runs[r + 1]).
    // item_cursor is the counting sort's per-item cursor (num_items wide).
    //
    // item_hat and item_norm are the batch's item table: every item row,
    // normalized once per batch before phase A, and its norm. Phase A
    // scores and differentiates by item id against it, and phase B's
    // item owners read their row and norm from it, so no item is
    // normalized twice in a batch. A batch of b samples has b * (1 + N-)
    // slots (66,560 at b = 1024, N- = 64), several times the catalog of
    // the benchmark's 8k items, and every batch already pays the dense
    // ZeroGrad and optimizer step over the same num_items rows. The
    // table costs num_items * (d + 1) floats (2.0 MiB at 8k items,
    // d = 64). It is allocated on the first sampled batch, not in the
    // constructor, so a trainer that never trains (benches build several
    // to time one stage) never holds it.
    size_t slots = 0;
    std::vector<uint32_t> slot_item;
    std::vector<float> slot_score, slot_coeff;
    std::vector<uint32_t> touched, term_runs, item_cursor;
    std::vector<ItemTerm> item_terms;
    std::vector<float> item_hat;  // num_items x d
    std::vector<float> item_norm;
    // In-batch mode: the positives' normalized rows; both tables widened
    // for DotTile; the norms and logQ shifts; the item owners' runs of
    // sample positions (like user_occ); and the item-major pairs:
    // pairs[t * pair_stride + s] is the pair (user of s, item of t), the
    // diagonal holding each sample's positive.
    std::vector<float> i_hat;            // b x d
    std::vector<double> u_wide, i_wide;  // b x d
    std::vector<float> u_norm, i_norm, logq_shift;
    std::vector<uint64_t> item_occ;
    std::vector<uint32_t> item_runs;
    std::vector<PairTerm> pairs;
    size_t tile_stride = 0, pair_stride = 0;
    void Resize(size_t batch, size_t d);
    void ResizeInBatch(size_t d);
  };

  // One batch's outcome: its loss and aux sums, or the first shard whose
  // phase-A loss sum was not finite (then nothing was written or stepped).
  struct BatchOutcome {
    double loss = 0.0;
    double aux = 0.0;
    std::optional<size_t> non_finite_shard;
  };

  // Processes one batch of edges [begin, end). `epoch` keys the batch's
  // negative-sampling streams.
  BatchOutcome RunBatch(const std::vector<Edge>& edges, size_t begin,
                        size_t end, uint64_t epoch);
  // Sampled-negatives (Algorithm 1) and in-batch (Algorithm 2) loss
  // accumulation over the final embeddings: phase A fills
  // batch_.shard_loss; then, unless a shard's sum is not finite (that
  // shard is returned and nothing is written), phase B adds the batch's
  // gradient into the model's final-embedding gradient tables. Sample s
  // of the batch draws negatives from the counter-based stream keyed
  // (stream_seed_, epoch, begin + s) — `begin` doubles as the batch's
  // epoch-global sample offset.
  std::optional<size_t> AccumulateSampledLoss(const std::vector<Edge>& edges,
                                              size_t begin, size_t end,
                                              uint64_t epoch);
  std::optional<size_t> AccumulateInBatchLoss(const std::vector<Edge>& edges,
                                              size_t begin, size_t end);
  // Phase A for samples [lo, hi) of the batch: returns the shard's loss
  // sum. The sampled form draws sample s's negatives from stream
  // (stream_seed_, epoch, begin + s) through `draw`.
  double SampledShard(const Edge* batch, size_t lo, size_t hi,
                      const SamplerDispatch& draw, uint64_t epoch, size_t begin,
                      WorkerScratch& ws);
  double InBatchShard(const Edge* batch, size_t lo, size_t hi,
                      WorkerScratch& ws);
  // The partial gradient sample s adds its user's terms to (phase A of
  // either mode, for the shard starting at sample lo): the row of the
  // user's first sample in the shard, zeroed when that is s.
  float* UserPartial(const Edge* batch, size_t lo, size_t s);
  // The first shard whose phase-A loss sum is not finite, if any.
  std::optional<size_t> FirstNonFiniteShard() const;
  // Between the phases: sorts (row << 32 | sample) keys and writes where
  // each row's run starts, plus the end; returns the longest run.
  static size_t SortIntoRuns(std::vector<uint64_t>& occ,
                             std::vector<uint32_t>& runs);
  // Sampled mode: groups the batch's item terms by item; returns the
  // most terms one item has.
  size_t GroupSampledItemTerms();
  // Sorts the batch's samples by user (between the phases), then runs
  // phase B on the pool: the owners of the batch's `num_items` item rows,
  // then of its distinct user rows. An item owner's gradient runs hold at
  // most `max_terms` terms in `max_runs` runs per kernel call.
  void OwnRows(const Edge* batch, size_t num_items, size_t max_terms,
               size_t max_runs);
  // The owners of the batch's r-th touched item row (per mode) and u-th
  // distinct user row (both modes).
  void OwnSampledItemRow(size_t r, WorkerScratch& ws);
  void OwnInBatchItemRow(size_t r, WorkerScratch& ws);
  void OwnUserRow(size_t u);

  // Freezes (or reuses — see Evaluate) a snapshot of the model's
  // current state: re-runs Forward exactly as a synchronous eval would,
  // then copies+normalizes the final tables on the trainer's pool.
  std::shared_ptr<const serve::ModelSnapshot> FreezeSnapshot() const;

  const Dataset& data_;
  EmbeddingModel& model_;
  const LossFunction& loss_;
  const NegativeSampler& sampler_;
  TrainConfig config_;
  std::unique_ptr<runtime::ThreadPool> pool_;
  std::vector<WorkerScratch> scratch_;  // one per pool worker
  BatchBuffers batch_;
  Evaluator evaluator_;
  AdamOptimizer optimizer_;
  Rng rng_;
  uint64_t stream_seed_;  // keys the per-sample negative-draw streams

  // Snapshot-reuse bookkeeping: the optimizer-step counter, the last
  // frozen snapshot and the step it captured. Evaluate() and the async
  // launch share a freeze when no step happened in between.
  uint64_t step_count_ = 0;
  mutable std::shared_ptr<const serve::ModelSnapshot> frozen_snapshot_;
  mutable uint64_t frozen_snapshot_step_ = 0;
  mutable size_t snapshots_frozen_ = 0;

  // async_eval: the evaluator the overlapped passes rank through (null
  // otherwise) and the pass in flight. The future is the last member, so
  // it dies first: if Train left by exception with a pass in flight, the
  // future's destructor waits for that pass before its evaluator dies.
  std::unique_ptr<Evaluator> background_eval_;
  std::future<EvalRecord> eval_in_flight_;
};

}  // namespace bslrec

#endif  // BSLREC_TRAIN_TRAINER_H_
