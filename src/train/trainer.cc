#include "train/trainer.h"

#include <algorithm>
#include <cmath>

#include "math/check.h"
#include "math/vec.h"

namespace bslrec {

namespace {

// Decouples the negative-draw streams from every other consumer of
// TrainConfig::seed (init, shuffling, augmentations) when the user
// leaves sampling_stream_seed = 0.
constexpr uint64_t kSamplingStreamSalt = 0x4E45474154495645ULL;  // "NEGATIVE"

// Folds one completed evaluation into `result`: best (by NDCG), final
// and the evals history.
void ApplyEvalRecord(const EvalRecord& rec, TrainResult& result) {
  result.final_metrics = rec.metrics;
  result.evals.push_back(rec);
  if (rec.metrics.ndcg > result.best.ndcg) {
    result.best = rec.metrics;
    result.best_epoch = rec.epoch;
  }
}

}  // namespace

Trainer::Trainer(const Dataset& data, EmbeddingModel& model,
                 const LossFunction& loss, const NegativeSampler& sampler,
                 const TrainConfig& config)
    : data_(data),
      model_(model),
      loss_(loss),
      sampler_(sampler),
      config_(config),
      pool_(std::make_unique<runtime::ThreadPool>(
          config.runtime.num_threads)),
      scratch_(pool_->num_workers()),
      evaluator_(data, config.metric_k, pool_.get()),
      optimizer_(config.lr, config.weight_decay),
      rng_(config.seed),
      stream_seed_(config.sampling_stream_seed != 0
                       ? config.sampling_stream_seed
                       : config.seed ^ kSamplingStreamSalt) {
  BSLREC_CHECK(config.epochs >= 0);
  BSLREC_CHECK(config.batch_size > 0 && config.num_negatives > 0);
  BSLREC_CHECK(config.eval_every >= 1);
  if (config.async_eval) {
    background_eval_ = std::make_unique<Evaluator>(
        data, config.metric_k,
        runtime::RuntimeConfig{
            .num_threads = runtime::ResolveEvalThreads(config.runtime)});
  }
  // Route the model's own heavy compute (graph propagation, contrastive
  // views) and the optimizer step through the trainer's pool as well.
  model_.SetRuntime(pool_.get());
  optimizer_.SetRuntime(pool_.get());
  const size_t slots = 1 + config.num_negatives;
  if (config.sampling_mode == SamplingMode::kSampledNegatives) {
    // Item terms index a batch's (sample, slot) pairs in 32 bits.
    BSLREC_CHECK_MSG(config.batch_size <= UINT32_MAX / slots,
                     "batch_size x (1 + num_negatives) exceeds 2^32");
    batch_.slots = slots;
    batch_.item_cursor.resize(data.num_items());
  }
}

Trainer::~Trainer() { model_.SetRuntime(nullptr); }

void Trainer::GradRun::Reserve(size_t terms, size_t runs) {
  if (idx.size() < terms) {
    idx.resize(terms);
    score.resize(terms);
    scale.resize(terms);
  }
  if (ends.size() < runs) ends.resize(runs);
}

void Trainer::GradRun::CoeffsToScales(float norm) {
  float* s = scale.data();
  for (size_t j = 0; j < size; ++j) s[j] = vec::CosineGradScale(s[j], norm);
}

void Trainer::GradRun::AccumulateInto(const float* self_hat,
                                      const float* others, size_t d,
                                      float* grad) const {
  vec::AccumulateCosineGradRun(self_hat, others, d, idx.data(), score.data(),
                               scale.data(), size, grad, d);
}

void Trainer::GradRun::AccumulateRunsInto(const float* self_hat,
                                          const float* others, size_t d,
                                          float* grad) const {
  vec::AccumulateCosineGradRuns(self_hat, others, d, idx.data(), score.data(),
                                scale.data(), ends.data(), num_runs, grad, d);
}

void Trainer::WorkerScratch::PrepareInBatch(size_t b, size_t tile_size) {
  if (neg_scores.size() < b) {
    neg_scores.resize(b);
    d_neg.resize(b);
  }
  if (tile.size() < tile_size) {
    tile.resize(tile_size);
    coeff.resize(tile_size);
  }
}

void Trainer::BatchBuffers::Resize(size_t batch, size_t d) {
  b = batch;
  u_hat.resize(b * d);
  user_occ.resize(b);
  user_head.resize(b);
  user_part.resize(b * d);
  if (slots > 0) {
    slot_item.resize(b * slots);
    slot_score.resize(b * slots);
    slot_coeff.resize(b * slots);
    item_terms.resize(b * slots);
  }
}

void Trainer::BatchBuffers::ResizeInBatch(size_t d) {
  // Row strides of 16 floats (or 8 pairs) past a multiple of 16: at
  // b = 1024 an unpadded stride is exactly 4 KiB, and the item-major
  // copy's column walks would keep landing in the same L1 cache sets.
  const size_t padded = (b + 15) / 16 * 16;
  tile_stride = padded + 16;
  pair_stride = padded + 8;
  i_hat.resize(b * d);
  u_wide.resize(b * d);
  i_wide.resize(b * d);
  u_norm.resize(b);
  i_norm.resize(b);
  logq_shift.resize(b);
  item_occ.resize(b);
  pairs.resize(b * pair_stride);
}

std::optional<size_t> Trainer::FirstNonFiniteShard() const {
  for (size_t sh = 0; sh < batch_.shard_loss.size(); ++sh) {
    if (!std::isfinite(batch_.shard_loss[sh])) return sh;
  }
  return std::nullopt;
}

std::optional<size_t> Trainer::AccumulateSampledLoss(
    const std::vector<Edge>& edges, size_t begin, size_t end, uint64_t epoch) {
  BatchBuffers& buf = batch_;
  const size_t d = model_.dim();
  const size_t b = end - begin;
  buf.Resize(b, d);
  const Edge* batch = edges.data() + begin;

  // Normalize every item row once: phase A scores the positives and the
  // draws by id from this table, and phase B's item owners read their
  // rows from it. Each row has one owner, so the pass has the bits of
  // any per-row Normalize. Allocated here, on the first sampled batch.
  const size_t num_items = data_.num_items();
  buf.item_hat.resize(num_items * d);
  buf.item_norm.resize(num_items);
  runtime::ParallelFor(
      *pool_, 0, num_items, kItemTableGrain,
      [&](size_t lo, size_t hi, size_t /*shard*/, size_t /*worker*/) {
        for (size_t i = lo; i < hi; ++i) {
          buf.item_norm[i] =
              vec::Normalize(model_.ItemEmb(static_cast<uint32_t>(i)),
                             buf.item_hat.data() + i * d, d);
        }
      });

  // Phase A. Negatives are drawn inside the shards: sample s reads the
  // counter-based stream keyed (stream_seed_, epoch, begin + s), a pure
  // function of the sample's epoch-global index, so the drawn items —
  // and therefore the whole training run — do not depend on the worker
  // count. The virtual sampler lookup is hoisted out of the loop here.
  const SamplerDispatch draw = sampler_.Dispatch();
  buf.shard_loss.assign((b + kSampledGrain - 1) / kSampledGrain, 0.0);
  runtime::ParallelFor(
      *pool_, 0, b, kSampledGrain,
      [&](size_t lo, size_t hi, size_t shard, size_t worker) {
        WorkerScratch& ws = scratch_[worker];
        ws.run.Reserve(buf.slots, 0);
        buf.shard_loss[shard] =
            SampledShard(batch, lo, hi, draw, epoch, begin, ws);
      });
  if (const auto bad = FirstNonFiniteShard()) return bad;

  // An item owner makes one kernel call: all of its terms, in at most
  // one run per shard.
  const size_t longest = GroupSampledItemTerms();
  OwnRows(batch, buf.touched.size(), longest, buf.shard_loss.size());
  return std::nullopt;
}

double Trainer::SampledShard(const Edge* batch, size_t lo, size_t hi,
                             const SamplerDispatch& draw, uint64_t epoch,
                             size_t begin, WorkerScratch& ws) {
  BatchBuffers& buf = batch_;
  const size_t d = model_.dim();
  const size_t m = buf.slots;
  const float inv_batch = 1.0f / static_cast<float>(buf.b);
  const float* item_hat = buf.item_hat.data();
  double loss_sum = 0.0;
  for (size_t s = lo; s < hi; ++s) {
    const uint32_t u = batch[s].user;
    uint32_t* ids = buf.slot_item.data() + s * m;
    float* score = buf.slot_score.data() + s * m;
    float* coeff = buf.slot_coeff.data() + s * m;
    ids[0] = batch[s].item;
    StreamRng stream(stream_seed_, epoch, begin + s);
    draw(u, stream, {ids + 1, m - 1});

    // Score the positive (slot 0) and the draws by id against the
    // batch's normalized item table.
    float* u_hat = buf.u_hat.data() + s * d;
    const float u_norm = vec::Normalize(model_.UserEmb(u), u_hat, d);
    vec::DotRows(u_hat, item_hat, d, ids, m, d, score);
    loss_sum += loss_.Compute(score[0], {score + 1, m - 1}, coeff,
                              {coeff + 1, m - 1});

    // Chain rule through the cosine head (mean batch reduction). The
    // user's run: the positive first (kept even at coefficient 0), then
    // every draw with a nonzero coefficient, in draw order.
    GradRun& run = ws.run;
    run.Clear();
    for (size_t k = 0; k < m; ++k) {
      coeff[k] *= inv_batch;
      if (k == 0 || coeff[k] != 0.0f) {
        run.Add(ids[k], score[k], vec::CosineGradScale(coeff[k], u_norm));
      }
    }
    run.AccumulateInto(u_hat, item_hat, d, UserPartial(batch, lo, s));
  }
  return loss_sum;
}

float* Trainer::UserPartial(const Edge* batch, size_t lo, size_t s) {
  BatchBuffers& buf = batch_;
  const size_t d = model_.dim();
  size_t head = lo;
  while (batch[head].user != batch[s].user) ++head;
  buf.user_head[s] = static_cast<uint32_t>(head);
  float* partial = buf.user_part.data() + head * d;
  if (head == s) std::fill(partial, partial + d, 0.0f);
  return partial;
}

size_t Trainer::GroupSampledItemTerms() {
  // A stable counting sort of the item terms by item id: every positive,
  // and every draw with a nonzero coefficient. Each item's terms come
  // out in (sample, slot) order, the order its per-shard slot took them,
  // each with its slot's score and coefficient.
  BatchBuffers& buf = batch_;
  const size_t m = buf.slots;
  const size_t n = buf.b * m;
  const uint32_t* item = buf.slot_item.data();
  const float* score = buf.slot_score.data();
  const float* coeff = buf.slot_coeff.data();
  uint32_t* cursor = buf.item_cursor.data();
  std::fill(buf.item_cursor.begin(), buf.item_cursor.end(), 0u);
  for (size_t f = 0; f < n; f += m) {
    ++cursor[item[f]];
    for (size_t k = f + 1; k < f + m; ++k) {
      if (coeff[k] != 0.0f) ++cursor[item[k]];
    }
  }
  buf.touched.clear();
  buf.term_runs.clear();
  uint32_t total = 0, longest = 0;
  for (size_t i = 0; i < buf.item_cursor.size(); ++i) {
    const uint32_t count = cursor[i];
    if (count == 0) continue;
    buf.touched.push_back(static_cast<uint32_t>(i));
    buf.term_runs.push_back(total);
    cursor[i] = total;
    total += count;
    longest = std::max(longest, count);
  }
  buf.term_runs.push_back(total);
  ItemTerm* terms = buf.item_terms.data();
  uint32_t sample = 0;
  for (size_t f = 0; f < n; f += m, ++sample) {
    terms[cursor[item[f]]++] = {sample, score[f], coeff[f]};
    for (size_t k = f + 1; k < f + m; ++k) {
      if (coeff[k] != 0.0f) {
        terms[cursor[item[k]]++] = {sample, score[k], coeff[k]};
      }
    }
  }
  return longest;
}

void Trainer::OwnSampledItemRow(size_t r, WorkerScratch& ws) {
  // The item's terms in (sample, slot) order, one run per shard that
  // has any, in one kernel call: each run is summed into a partial that
  // starts at +0.0f, and the partials are added into the gradient table
  // in shard order (see the header comment).
  const BatchBuffers& buf = batch_;
  const size_t d = model_.dim();
  const uint32_t item = buf.touched[r];
  const ItemTerm* term = buf.item_terms.data() + buf.term_runs[r];
  const ItemTerm* const end = buf.item_terms.data() + buf.term_runs[r + 1];
  GradRun& run = ws.run;
  run.Clear();
  size_t shard = term->sample / kSampledGrain;
  for (; term < end; ++term) {
    if (term->sample / kSampledGrain != shard) {
      run.EndRun();
      shard = term->sample / kSampledGrain;
    }
    run.Add(term->sample, term->score, term->coeff);
  }
  run.EndRun();
  run.CoeffsToScales(buf.item_norm[item]);
  run.AccumulateRunsInto(buf.item_hat.data() + size_t{item} * d,
                         buf.u_hat.data(), d, model_.ItemGrad(item));
}

void Trainer::OwnRows(const Edge* batch, size_t num_items, size_t max_terms,
                      size_t max_runs) {
  // Each distinct user's sample positions in ascending order: the work
  // lists of the user owners.
  BatchBuffers& buf = batch_;
  for (size_t s = 0; s < buf.b; ++s) {
    buf.user_occ[s] = uint64_t{batch[s].user} << 32 | s;
  }
  SortIntoRuns(buf.user_occ, buf.user_runs);

  // Every distinct row has one owner, so the gradient tables take no
  // shared writes (items first, then users).
  const bool sampled =
      config_.sampling_mode == SamplingMode::kSampledNegatives;
  const size_t num_users = buf.user_runs.size() - 1;
  runtime::ParallelFor(
      *pool_, 0, num_items + num_users, kOwnerGrain,
      [&](size_t lo, size_t hi, size_t /*shard*/, size_t worker) {
        WorkerScratch& ws = scratch_[worker];
        ws.run.Reserve(max_terms, max_runs);
        for (size_t r = lo; r < hi; ++r) {
          if (r >= num_items) {
            OwnUserRow(r - num_items);
          } else if (sampled) {
            OwnSampledItemRow(r, ws);
          } else {
            OwnInBatchItemRow(r, ws);
          }
        }
      });
}

std::optional<size_t> Trainer::AccumulateInBatchLoss(
    const std::vector<Edge>& edges, size_t begin, size_t end) {
  BatchBuffers& buf = batch_;
  const size_t d = model_.dim();
  const size_t b = end - begin;
  buf.shard_loss.clear();
  if (b < 2) return std::nullopt;  // no in-batch negatives available
  buf.Resize(b, d);
  buf.ResizeInBatch(d);
  const Edge* batch = edges.data() + begin;

  // Normalize every sample's user and item embedding once (Algorithm 2
  // computes the full pairwise similarity matrix), and widen the rows
  // to double for DotTile. Rows are independent, so the parallel fill
  // is bit-identical for any worker count.
  runtime::ParallelFor(
      *pool_, 0, b, 128,
      [&](size_t lo, size_t hi, size_t /*shard*/, size_t /*worker*/) {
        for (size_t s = lo; s < hi; ++s) {
          float* u_hat = buf.u_hat.data() + s * d;
          float* i_hat = buf.i_hat.data() + s * d;
          buf.u_norm[s] = vec::Normalize(model_.UserEmb(batch[s].user),
                                         u_hat, d);
          buf.i_norm[s] = vec::Normalize(model_.ItemEmb(batch[s].item),
                                         i_hat, d);
          vec::Widen(u_hat, d, buf.u_wide.data() + s * d);
          vec::Widen(i_hat, d, buf.i_wide.data() + s * d);
        }
      });

  // Optional sampled-softmax logQ correction: in-batch negatives appear
  // with probability proportional to popularity; subtracting
  // tau*log q(item) from their scores de-biases the softmax. The shift
  // is a data constant, so the gradient chain is unchanged.
  std::fill(buf.logq_shift.begin(), buf.logq_shift.end(), 0.0f);
  if (config_.inbatch_logq_tau > 0.0) {
    const double total =
        static_cast<double>(data_.num_train()) + data_.num_items();
    for (size_t t = 0; t < b; ++t) {
      const double pop = data_.item_popularity()[batch[t].item];
      const double q = (pop + 1.0) / total;
      buf.logq_shift[t] =
          static_cast<float>(config_.inbatch_logq_tau * std::log(q));
    }
  }

  // Each distinct item's sample positions in ascending order: the work
  // lists of phase B's item owners.
  for (size_t s = 0; s < b; ++s) {
    buf.item_occ[s] = uint64_t{batch[s].item} << 32 | s;
  }
  const size_t max_item_count = SortIntoRuns(buf.item_occ, buf.item_runs);

  // Phase A: score, run the loss and sum the user terms, per shard. A
  // user's run holds at most b terms.
  buf.shard_loss.assign((b + kInBatchGrain - 1) / kInBatchGrain, 0.0);
  runtime::ParallelFor(
      *pool_, 0, b, kInBatchGrain,
      [&](size_t lo, size_t hi, size_t shard, size_t worker) {
        WorkerScratch& ws = scratch_[worker];
        ws.PrepareInBatch(b, kInBatchGrain * buf.tile_stride);
        ws.run.Reserve(b, 0);
        buf.shard_loss[shard] = InBatchShard(batch, lo, hi, ws);
      });
  if (const auto bad = FirstNonFiniteShard()) return bad;

  // An item's shard adds at most 16 terms per occurrence; an item owner
  // passes its runs in calls of at most max(b, that) terms (one call for
  // an item that occurs once).
  OwnRows(batch, buf.item_runs.size() - 1,
          std::max(b, kInBatchGrain * max_item_count), buf.shard_loss.size());
  return std::nullopt;
}

size_t Trainer::SortIntoRuns(std::vector<uint64_t>& occ,
                             std::vector<uint32_t>& runs) {
  std::sort(occ.begin(), occ.end());
  runs.clear();
  size_t longest = 0;
  for (size_t k = 0; k < occ.size(); ++k) {
    if (k == 0 || occ[k] >> 32 != occ[k - 1] >> 32) {
      if (!runs.empty()) longest = std::max<size_t>(longest, k - runs.back());
      runs.push_back(static_cast<uint32_t>(k));
    }
  }
  longest = std::max<size_t>(longest, occ.size() - runs.back());
  runs.push_back(static_cast<uint32_t>(occ.size()));
  return longest;
}

double Trainer::InBatchShard(const Edge* batch, size_t lo, size_t hi,
                             WorkerScratch& ws) {
  BatchBuffers& buf = batch_;
  const size_t d = model_.dim();
  const size_t b = buf.b;
  const size_t ld = buf.tile_stride;
  const float inv_batch = 1.0f / static_cast<float>(b);
  vec::DotTile(buf.u_wide.data() + lo * d, hi - lo, buf.i_wide.data(), b, d,
               ws.tile.data(), ld);
  double loss_sum = 0.0;
  for (size_t s = lo; s < hi; ++s) {
    // Row s - lo of the tile: the scores, then the scores the gradient
    // uses; beside it the loss coefficients. The diagonal holds the
    // positive.
    float* score_row = ws.tile.data() + (s - lo) * ld;
    float* coeff_row = ws.coeff.data() + (s - lo) * ld;
    const float pos_score = score_row[s];
    // Other samples' positives are this sample's negatives
    // (diagonal masked, duplicates kept — see SamplingMode docs).
    size_t idx = 0;
    for (size_t t = 0; t < b; ++t) {
      if (t == s) continue;
      ws.neg_scores[idx++] = score_row[t] - buf.logq_shift[t];
    }
    float d_pos = 0.0f;
    loss_sum += loss_.Compute(pos_score, {ws.neg_scores.data(), b - 1},
                              &d_pos, {ws.d_neg.data(), b - 1});
    const float d_pos_scaled = d_pos * inv_batch;
    coeff_row[s] = d_pos_scaled;

    // The user's run: the positive first, then every negative with a
    // nonzero coefficient, in batch order.
    const float u_norm = buf.u_norm[s];
    GradRun& run = ws.run;
    run.Clear();
    run.Add(s, pos_score, vec::CosineGradScale(d_pos_scaled, u_norm));
    idx = 0;
    for (size_t t = 0; t < b; ++t) {
      if (t == s) continue;
      const float g = ws.d_neg[idx] * inv_batch;
      // Undo the logQ shift: the chain rule needs the raw score.
      const float score = ws.neg_scores[idx] + buf.logq_shift[t];
      ++idx;
      score_row[t] = score;
      coeff_row[t] = g;
      if (g != 0.0f) run.Add(t, score, vec::CosineGradScale(g, u_norm));
    }
    run.AccumulateInto(buf.u_hat.data() + s * d, buf.i_hat.data(), d,
                       UserPartial(batch, lo, s));
  }
  // Item-major copy: pair (s, t) lands at pairs[t][s], so an item row's
  // owner reads its terms as contiguous runs.
  for (size_t t = 0; t < b; ++t) {
    PairTerm* dst = buf.pairs.data() + t * buf.pair_stride + lo;
    for (size_t r = 0; r < hi - lo; ++r) {
      dst[r] = {ws.coeff[r * ld + t], ws.tile[r * ld + t]};
    }
  }
  return loss_sum;
}

void Trainer::OwnInBatchItemRow(size_t r, WorkerScratch& ws) {
  // Shard by shard, collects the item's terms (per sample, its positive
  // term first, then its other occurrences in batch order; zero
  // coefficients skipped) as one run per shard that has any, and passes
  // the runs to the kernel: each run is summed into a partial that
  // starts at +0.0f, and the partials are added into the gradient table
  // in shard order. That summation tree fixes the training bits (see the
  // header comment). When the next shard might not fit, the runs so far
  // go first: a row split across calls keeps its bits.
  const BatchBuffers& buf = batch_;
  const size_t d = model_.dim();
  const size_t b = buf.b;
  const uint64_t* occ = buf.item_occ.data() + buf.item_runs[r];
  const size_t count = buf.item_runs[r + 1] - buf.item_runs[r];
  const size_t first = static_cast<uint32_t>(occ[0]);
  const float* self = buf.i_hat.data() + first * d;
  const float i_norm = buf.i_norm[first];
  float* grad = model_.ItemGrad(static_cast<uint32_t>(occ[0] >> 32));
  GradRun& run = ws.run;
  const auto flush = [&] {
    run.CoeffsToScales(i_norm);
    run.AccumulateRunsInto(self, buf.u_hat.data(), d, grad);
    run.Clear();
  };
  run.Clear();
  size_t next = 0;  // the item's first occurrence at or after s
  for (size_t lo = 0; lo < b; lo += kInBatchGrain) {
    const size_t hi = std::min(b, lo + kInBatchGrain);
    if (run.size + (hi - lo) * count > run.capacity()) flush();
    const size_t run_begin = run.size;
    for (size_t s = lo; s < hi; ++s) {
      const bool own = next < count && static_cast<uint32_t>(occ[next]) == s;
      if (own) {
        const PairTerm& p = buf.pairs[s * buf.pair_stride + s];
        run.Add(s, p.score, p.coeff);
        ++next;
      }
      for (size_t k = 0; k < count; ++k) {
        const size_t t = static_cast<uint32_t>(occ[k]);
        const PairTerm& p = buf.pairs[t * buf.pair_stride + s];
        if (t == s || p.coeff == 0.0f) continue;
        run.Add(s, p.score, p.coeff);
      }
    }
    if (run.size > run_begin) run.EndRun();
  }
  flush();
}

void Trainer::OwnUserRow(size_t u) {
  // Adds the user's phase-A partials in shard order: one per shard, at
  // the row of the user's first sample in that shard.
  const BatchBuffers& buf = batch_;
  const size_t d = model_.dim();
  const uint32_t begin = buf.user_runs[u], end = buf.user_runs[u + 1];
  const uint32_t row = static_cast<uint32_t>(buf.user_occ[begin] >> 32);
  float* grad = model_.UserGrad(row);
  for (uint32_t k = begin; k < end; ++k) {
    const size_t s = static_cast<uint32_t>(buf.user_occ[k]);
    if (buf.user_head[s] == s) {
      vec::Axpy(1.0f, buf.user_part.data() + s * d, grad, d);
    }
  }
}

Trainer::BatchOutcome Trainer::RunBatch(const std::vector<Edge>& edges,
                                        size_t begin, size_t end,
                                        uint64_t epoch) {
  model_.Forward(rng_);
  model_.ZeroGrad();

  BatchOutcome out;
  out.non_finite_shard =
      config_.sampling_mode == SamplingMode::kInBatch
          ? AccumulateInBatchLoss(edges, begin, end)
          : AccumulateSampledLoss(edges, begin, end, epoch);
  for (const double shard_loss : batch_.shard_loss) out.loss += shard_loss;
  // A diverged batch steps nothing: no aux, Backward or optimizer step.
  if (out.non_finite_shard) return out;

  // Contrastive regularizer on the batch's distinct nodes.
  std::vector<uint32_t> batch_users, batch_items;
  batch_users.reserve(end - begin);
  batch_items.reserve(end - begin);
  for (size_t s = begin; s < end; ++s) {
    batch_users.push_back(edges[s].user);
    batch_items.push_back(edges[s].item);
  }
  std::sort(batch_users.begin(), batch_users.end());
  batch_users.erase(std::unique(batch_users.begin(), batch_users.end()),
                    batch_users.end());
  std::sort(batch_items.begin(), batch_items.end());
  batch_items.erase(std::unique(batch_items.begin(), batch_items.end()),
                    batch_items.end());
  out.aux = model_.AuxLossAndGrad(batch_users, batch_items, rng_);

  model_.Backward();
  optimizer_.Step(model_.Params());
  ++step_count_;  // invalidates any snapshot frozen before this batch
  return out;
}

EpochStats Trainer::RunEpoch(int epoch_index) {
  std::vector<Edge> edges = data_.train_edges();
  BSLREC_CHECK_MSG(!edges.empty(), "empty training split");
  rng_.Shuffle(edges);

  EpochStats stats;
  stats.epoch = epoch_index;
  double loss_sum = 0.0;
  double aux_sum = 0.0;
  size_t num_batches = 0;
  for (size_t begin = 0; begin < edges.size();
       begin += config_.batch_size) {
    const size_t end = std::min(edges.size(), begin + config_.batch_size);
    const BatchOutcome batch =
        RunBatch(edges, begin, end, static_cast<uint64_t>(epoch_index));
    loss_sum += batch.loss;
    if (batch.non_finite_shard) {
      const size_t shard = *batch.non_finite_shard;
      stats.non_finite = NonFiniteLoss{epoch_index, num_batches, shard,
                                       batch_.shard_loss[shard]};
      break;
    }
    aux_sum += batch.aux;
    ++num_batches;
  }
  stats.avg_loss = loss_sum / static_cast<double>(edges.size());
  stats.avg_aux_loss =
      num_batches > 0 ? aux_sum / static_cast<double>(num_batches) : 0.0;
  return stats;
}

std::shared_ptr<const serve::ModelSnapshot> Trainer::FreezeSnapshot() const {
  if (frozen_snapshot_ != nullptr && frozen_snapshot_step_ == step_count_) {
    return frozen_snapshot_;  // tables have not stepped since the freeze
  }
  // Refresh the final embeddings from the current parameters. The main
  // propagation path is deterministic for every backbone, so the const
  // cast only re-runs a pure function of the parameters.
  Rng eval_rng(config_.seed ^ 0xE7A15A17ULL);
  const_cast<EmbeddingModel&>(static_cast<const EmbeddingModel&>(model_))
      .Forward(eval_rng);
  frozen_snapshot_ =
      std::make_shared<const serve::ModelSnapshot>(model_, *pool_);
  frozen_snapshot_step_ = step_count_;
  ++snapshots_frozen_;
  return frozen_snapshot_;
}

TopKMetrics Trainer::Evaluate() const {
  return evaluator_.BeginPassOn(FreezeSnapshot()).Evaluate();
}

TrainResult Trainer::Train() {
  TrainResult result;
  for (int epoch = 1; epoch <= config_.epochs; ++epoch) {
    result.history.push_back(RunEpoch(epoch));
    if (result.history.back().non_finite) {
      result.non_finite = result.history.back().non_finite;
      break;
    }
    if (epoch % config_.eval_every != 0 && epoch != config_.epochs) continue;
    if (background_eval_ == nullptr) {
      ApplyEvalRecord({epoch, Evaluate()}, result);
      continue;
    }
    // Pipeline depth 1: join the pass in flight, then rank this epoch's
    // snapshot while the next epoch trains. The snapshot freezes here,
    // on the trainer's pool; only the ranking runs on the async thread.
    if (eval_in_flight_.valid()) ApplyEvalRecord(eval_in_flight_.get(), result);
    eval_in_flight_ = std::async(
        std::launch::async, [this, epoch, snapshot = FreezeSnapshot()] {
          return EvalRecord{
              epoch, background_eval_->BeginPassOn(snapshot).Evaluate()};
        });
  }
  if (eval_in_flight_.valid()) ApplyEvalRecord(eval_in_flight_.get(), result);
  if (result.evals.empty() && !result.non_finite) {
    // epochs == 0, so no eval ran: report the untrained model. (Keyed
    // on the recorded evals, not on best.num_users — an empty test
    // split legitimately yields zero-user metrics from real evals. A
    // run stopped by a non-finite loss ranks nothing with its model.)
    result.best = Evaluate();
    result.final_metrics = result.best;
    result.evals.push_back({0, result.best});
  }
  return result;
}

}  // namespace bslrec
