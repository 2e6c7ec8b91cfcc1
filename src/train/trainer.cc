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

}  // namespace

float* Trainer::GradSlot(SlotMap& map, uint64_t shard_tag,
                         std::vector<uint32_t>& rows,
                         std::vector<float>& vals, uint32_t row, size_t d) {
  if (map.tag[row] != shard_tag) {
    map.tag[row] = shard_tag;
    map.slot[row] = static_cast<uint32_t>(rows.size());
    rows.push_back(row);
    vals.resize(vals.size() + d, 0.0f);
  }
  return vals.data() + static_cast<size_t>(map.slot[row]) * d;
}

void Trainer::BeginShard(WorkerScratch& ws, ShardGrad& out) {
  ++ws.shard_tag;
  out.user_rows.clear();
  out.item_rows.clear();
  out.user_vals.clear();
  out.item_vals.clear();
  out.loss_sum = 0.0;
}

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
      rng_(config.seed),
      stream_seed_(config.sampling_stream_seed != 0
                       ? config.sampling_stream_seed
                       : config.seed ^ kSamplingStreamSalt) {
  BSLREC_CHECK(config.epochs >= 0);
  BSLREC_CHECK(config.batch_size > 0 && config.num_negatives > 0);
  BSLREC_CHECK(config.eval_every >= 1);
  if (config.use_adam) {
    optimizer_ =
        std::make_unique<AdamOptimizer>(config.lr, config.weight_decay);
  } else {
    optimizer_ =
        std::make_unique<SgdOptimizer>(config.lr, config.weight_decay);
  }
  if (config.async_eval) {
    async_eval_ = std::make_unique<AsyncEvaluator>(data, config.metric_k,
                                                   config.runtime);
  }
  // Route the model's own heavy compute (graph propagation, contrastive
  // views) and the optimizer step through the trainer's pool as well.
  model_.SetRuntime(pool_.get());
  optimizer_->SetRuntime(pool_.get());
  const size_t d = model.dim();
  const size_t n_neg = config.num_negatives;
  for (WorkerScratch& ws : scratch_) {
    ws.users.tag.assign(data.num_users(), 0);
    ws.users.slot.assign(data.num_users(), 0);
    ws.items.tag.assign(data.num_items(), 0);
    ws.items.slot.assign(data.num_items(), 0);
    ws.u_hat.resize(d);
    ws.i_hat.resize(d);
    ws.negs.resize(n_neg);
    ws.j_hat = Matrix(n_neg, d);
    ws.j_norm.resize(n_neg);
    ws.neg_scores.resize(n_neg);
    ws.d_neg.resize(n_neg);
  }
}

Trainer::~Trainer() { model_.SetRuntime(nullptr); }

double Trainer::ReduceShards(size_t num_shards) {
  const size_t d = model_.dim();
  double loss_sum = 0.0;
  for (size_t sh = 0; sh < num_shards; ++sh) {
    const ShardGrad& g = shards_[sh];
    for (size_t r = 0; r < g.user_rows.size(); ++r) {
      vec::Axpy(1.0f, g.user_vals.data() + r * d,
                model_.UserGrad(g.user_rows[r]), d);
    }
    for (size_t r = 0; r < g.item_rows.size(); ++r) {
      vec::Axpy(1.0f, g.item_vals.data() + r * d,
                model_.ItemGrad(g.item_rows[r]), d);
    }
    loss_sum += g.loss_sum;
  }
  return loss_sum;
}

double Trainer::AccumulateSampledLoss(const std::vector<Edge>& edges,
                                      size_t begin, size_t end,
                                      uint64_t epoch) {
  const size_t d = model_.dim();
  const size_t n_neg = config_.num_negatives;
  const size_t b = end - begin;
  const float inv_batch = 1.0f / static_cast<float>(b);

  // Negatives are drawn inside the shards: sample s reads the
  // counter-based stream keyed (stream_seed_, epoch, begin + s), a pure
  // function of the sample's epoch-global index, so the drawn items —
  // and therefore the whole training run — do not depend on the worker
  // count. The virtual sampler lookup is hoisted out of the loop here.
  const SamplerDispatch sample = sampler_.Dispatch();
  const Matrix& item_table = model_.FinalItemMatrix();

  const size_t num_shards = (b + kSampledGrain - 1) / kSampledGrain;
  if (shards_.size() < num_shards) shards_.resize(num_shards);
  runtime::ParallelFor(
      *pool_, 0, b, kSampledGrain,
      [&](size_t lo, size_t hi, size_t shard, size_t worker) {
        WorkerScratch& ws = scratch_[worker];
        ShardGrad& out = shards_[shard];
        BeginShard(ws, out);
        for (size_t s = lo; s < hi; ++s) {
          const uint32_t u = edges[begin + s].user;
          const uint32_t i = edges[begin + s].item;
          StreamRng stream(stream_seed_, epoch, begin + s);
          sample(u, stream, {ws.negs.data(), n_neg});
          const uint32_t* negs = ws.negs.data();

          const float u_norm =
              vec::Normalize(model_.UserEmb(u), ws.u_hat.data(), d);
          const float i_norm =
              vec::Normalize(model_.ItemEmb(i), ws.i_hat.data(), d);
          const float pos_score =
              vec::Dot(ws.u_hat.data(), ws.i_hat.data(), d);
          // Fused scoring: one gather+normalize over the negative block,
          // one blocked batch dot against it.
          vec::GatherNormalize(item_table.data(), item_table.cols(), negs,
                               n_neg, d, ws.j_hat.data(), ws.j_norm.data());
          vec::DotBatch(ws.u_hat.data(), ws.j_hat.data(), n_neg, d,
                        ws.neg_scores.data());

          float d_pos = 0.0f;
          out.loss_sum +=
              loss_.Compute(pos_score, {ws.neg_scores.data(), n_neg}, &d_pos,
                            {ws.d_neg.data(), n_neg});

          // Chain rule through the cosine head (mean batch reduction).
          const float d_pos_scaled = d_pos * inv_batch;
          vec::AccumulateCosineGrad(
              ws.u_hat.data(), ws.i_hat.data(), pos_score, u_norm,
              d_pos_scaled,
              GradSlot(ws.users, ws.shard_tag, out.user_rows, out.user_vals,
                       u, d),
              d);
          vec::AccumulateCosineGrad(
              ws.i_hat.data(), ws.u_hat.data(), pos_score, i_norm,
              d_pos_scaled,
              GradSlot(ws.items, ws.shard_tag, out.item_rows, out.item_vals,
                       i, d),
              d);
          for (size_t j = 0; j < n_neg; ++j) {
            const float g = ws.d_neg[j] * inv_batch;
            if (g == 0.0f) continue;
            vec::AccumulateCosineGrad(
                ws.u_hat.data(), ws.j_hat.Row(j), ws.neg_scores[j], u_norm,
                g,
                GradSlot(ws.users, ws.shard_tag, out.user_rows,
                         out.user_vals, u, d),
                d);
            vec::AccumulateCosineGrad(
                ws.j_hat.Row(j), ws.u_hat.data(), ws.neg_scores[j],
                ws.j_norm[j], g,
                GradSlot(ws.items, ws.shard_tag, out.item_rows,
                         out.item_vals, negs[j], d),
                d);
          }
        }
      });
  return ReduceShards(num_shards);
}

double Trainer::AccumulateInBatchLoss(const std::vector<Edge>& edges,
                                      size_t begin, size_t end) {
  const size_t d = model_.dim();
  const size_t b = end - begin;
  if (b < 2) return 0.0;  // no in-batch negatives available
  const float inv_batch = 1.0f / static_cast<float>(b);

  // Normalize every sample's user and item embedding once (Algorithm 2
  // computes the full pairwise similarity matrix). Rows are independent,
  // so the parallel fill is bit-identical for any worker count.
  Matrix u_hat(b, d), i_hat(b, d);
  std::vector<float> u_norm(b), i_norm(b);
  runtime::ParallelFor(
      *pool_, 0, b, 128,
      [&](size_t lo, size_t hi, size_t /*shard*/, size_t /*worker*/) {
        for (size_t s = lo; s < hi; ++s) {
          u_norm[s] = vec::Normalize(model_.UserEmb(edges[begin + s].user),
                                     u_hat.Row(s), d);
          i_norm[s] = vec::Normalize(model_.ItemEmb(edges[begin + s].item),
                                     i_hat.Row(s), d);
        }
      });

  // Optional sampled-softmax logQ correction: in-batch negatives appear
  // with probability proportional to popularity; subtracting
  // tau*log q(item) from their scores de-biases the softmax. The shift
  // is a data constant, so the gradient chain is unchanged.
  std::vector<float> logq_shift(b, 0.0f);
  if (config_.inbatch_logq_tau > 0.0) {
    const double total =
        static_cast<double>(data_.num_train()) + data_.num_items();
    for (size_t t = 0; t < b; ++t) {
      const double q =
          (static_cast<double>(
               data_.item_popularity()[edges[begin + t].item]) +
           1.0) /
          total;
      logq_shift[t] =
          static_cast<float>(config_.inbatch_logq_tau * std::log(q));
    }
  }

  const size_t num_shards = (b + kInBatchGrain - 1) / kInBatchGrain;
  if (shards_.size() < num_shards) shards_.resize(num_shards);
  runtime::ParallelFor(
      *pool_, 0, b, kInBatchGrain,
      [&](size_t lo, size_t hi, size_t shard, size_t worker) {
        WorkerScratch& ws = scratch_[worker];
        ShardGrad& out = shards_[shard];
        BeginShard(ws, out);
        if (ws.neg_scores.size() < b - 1) {
          ws.neg_scores.resize(b - 1);
          ws.d_neg.resize(b - 1);
        }
        for (size_t s = lo; s < hi; ++s) {
          const uint32_t u = edges[begin + s].user;
          const uint32_t i = edges[begin + s].item;
          const float pos_score = vec::Dot(u_hat.Row(s), i_hat.Row(s), d);
          // Other samples' positives are this sample's negatives
          // (diagonal masked, duplicates kept — see SamplingMode docs).
          size_t idx = 0;
          for (size_t t = 0; t < b; ++t) {
            if (t == s) continue;
            ws.neg_scores[idx++] =
                vec::Dot(u_hat.Row(s), i_hat.Row(t), d) - logq_shift[t];
          }
          float d_pos = 0.0f;
          out.loss_sum +=
              loss_.Compute(pos_score, {ws.neg_scores.data(), b - 1},
                            &d_pos, {ws.d_neg.data(), b - 1});

          const float d_pos_scaled = d_pos * inv_batch;
          vec::AccumulateCosineGrad(
              u_hat.Row(s), i_hat.Row(s), pos_score, u_norm[s],
              d_pos_scaled,
              GradSlot(ws.users, ws.shard_tag, out.user_rows, out.user_vals,
                       u, d),
              d);
          vec::AccumulateCosineGrad(
              i_hat.Row(s), u_hat.Row(s), pos_score, i_norm[s],
              d_pos_scaled,
              GradSlot(ws.items, ws.shard_tag, out.item_rows, out.item_vals,
                       i, d),
              d);
          idx = 0;
          for (size_t t = 0; t < b; ++t) {
            if (t == s) continue;
            const float g = ws.d_neg[idx] * inv_batch;
            // Undo the logQ shift: the chain rule needs the raw score.
            const float score = ws.neg_scores[idx] + logq_shift[t];
            ++idx;
            if (g == 0.0f) continue;
            vec::AccumulateCosineGrad(
                u_hat.Row(s), i_hat.Row(t), score, u_norm[s], g,
                GradSlot(ws.users, ws.shard_tag, out.user_rows,
                         out.user_vals, u, d),
                d);
            vec::AccumulateCosineGrad(
                i_hat.Row(t), u_hat.Row(s), score, i_norm[t], g,
                GradSlot(ws.items, ws.shard_tag, out.item_rows,
                         out.item_vals, edges[begin + t].item, d),
                d);
          }
        }
      });
  return ReduceShards(num_shards);
}

std::pair<double, double> Trainer::RunBatch(const std::vector<Edge>& edges,
                                            size_t begin, size_t end,
                                            uint64_t epoch) {
  model_.Forward(rng_);
  model_.ZeroGrad();

  const double loss_sum =
      config_.sampling_mode == SamplingMode::kInBatch
          ? AccumulateInBatchLoss(edges, begin, end)
          : AccumulateSampledLoss(edges, begin, end, epoch);

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
  const double aux = model_.AuxLossAndGrad(batch_users, batch_items, rng_);

  model_.Backward();
  optimizer_->Step(model_.Params());
  ++step_count_;  // invalidates any snapshot frozen before this batch
  return {loss_sum, aux};
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
    const auto [loss, aux] =
        RunBatch(edges, begin, end, static_cast<uint64_t>(epoch_index));
    loss_sum += loss;
    aux_sum += aux;
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

bool Trainer::ApplyEvalRecord(TrainResult& result, const EvalRecord& rec,
                              int* evals_without_improvement) {
  result.final_metrics = rec.metrics;
  result.evals.push_back(rec);
  if (rec.metrics.ndcg > result.best.ndcg) {
    result.best = rec.metrics;
    result.best_epoch = rec.epoch;
    *evals_without_improvement = 0;
    return false;
  }
  ++*evals_without_improvement;
  return config_.early_stop_patience > 0 &&
         *evals_without_improvement >= config_.early_stop_patience;
}

bool Trainer::JoinAsyncEvals(TrainResult& result,
                             int* evals_without_improvement) {
  bool stop = false;
  for (const EvalRecord& rec : async_eval_->Join()) {
    stop = ApplyEvalRecord(result, rec, evals_without_improvement) || stop;
  }
  return stop;
}

TrainResult Trainer::Train() {
  TrainResult result;
  int evals_without_improvement = 0;
  for (int epoch = 1; epoch <= config_.epochs; ++epoch) {
    result.history.push_back(RunEpoch(epoch));
    const bool last_epoch = epoch == config_.epochs;
    if (epoch % config_.eval_every != 0 && !last_epoch) continue;
    if (async_eval_ != nullptr) {
      // Pipeline depth 1: finish the previous overlapped pass (and let
      // it veto further training) before freezing the next snapshot.
      if (JoinAsyncEvals(result, &evals_without_improvement)) break;
      async_eval_->Submit(epoch, FreezeSnapshot());
      // Early stopping decides after *every* eval; deferring the
      // decision to the next join would change the epoch trajectory
      // relative to sync, so an early-stop config joins immediately.
      if (config_.early_stop_patience > 0 &&
          JoinAsyncEvals(result, &evals_without_improvement)) {
        break;
      }
    } else {
      const EvalRecord rec{epoch, Evaluate()};
      if (ApplyEvalRecord(result, rec, &evals_without_improvement)) break;
    }
  }
  if (async_eval_ != nullptr) {
    // Join the final epoch's pass (a post-loop stop verdict is moot).
    JoinAsyncEvals(result, &evals_without_improvement);
  }
  if (result.evals.empty()) {
    // epochs == 0, so no eval ran: report the untrained model. (Keyed
    // on the recorded evals, not on best.num_users — an empty test
    // split legitimately yields zero-user metrics from real evals.)
    result.best = Evaluate();
    result.final_metrics = result.best;
    result.evals.push_back({0, result.best});
  }
  return result;
}

}  // namespace bslrec
