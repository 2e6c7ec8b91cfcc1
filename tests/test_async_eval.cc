// Overlapped evaluation contracts:
//   * Trainer with async_eval reproduces the synchronous metric history
//     (evals, best, final, per-epoch losses) bitwise — for sampled MF
//     and in-batch LightGCN, at any (num_threads, eval_threads)
//     combination.
//   * Checkpoints saved while a pass is in flight see the live tables;
//     the pass sees the frozen ones (snapshot isolation).
//   * Trainer::Evaluate() reuses the snapshot frozen for the current
//     optimizer step instead of rebuilding it.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <future>
#include <memory>
#include <string>
#include <thread>

#include "data/synthetic.h"
#include "eval/evaluator.h"
#include "graph/bipartite_graph.h"
#include "gtest/gtest.h"
#include "models/checkpoint.h"
#include "models/lightgcn.h"
#include "models/mf.h"
#include "runtime/thread_pool.h"
#include "sampling/negative_sampler.h"
#include "test_util.h"
#include "train/trainer.h"

namespace bslrec {
namespace {

SyntheticData EvalData(uint64_t seed = 11) {
  SyntheticConfig c;
  c.num_users = 90;
  c.num_items = 70;
  c.num_clusters = 5;
  c.avg_items_per_user = 12.0;
  c.seed = seed;
  return GenerateSynthetic(c);
}

TrainConfig BaseConfig() {
  TrainConfig cfg;
  cfg.epochs = 6;
  cfg.batch_size = 256;
  cfg.num_negatives = 8;
  cfg.lr = 0.05;
  cfg.eval_every = 2;
  cfg.seed = 77;
  cfg.runtime.num_threads = 1;
  return cfg;
}

void ExpectSameMetrics(const TopKMetrics& a, const TopKMetrics& b) {
  EXPECT_EQ(a.recall, b.recall);
  EXPECT_EQ(a.ndcg, b.ndcg);
  EXPECT_EQ(a.precision, b.precision);
  EXPECT_EQ(a.hit_rate, b.hit_rate);
  EXPECT_EQ(a.num_users, b.num_users);
}

// Bitwise equality of everything a TrainResult records.
void ExpectSameResult(const TrainResult& a, const TrainResult& b) {
  ExpectSameMetrics(a.best, b.best);
  EXPECT_EQ(a.best_epoch, b.best_epoch);
  ExpectSameMetrics(a.final_metrics, b.final_metrics);
  ASSERT_EQ(a.history.size(), b.history.size());
  for (size_t e = 0; e < a.history.size(); ++e) {
    EXPECT_EQ(a.history[e].epoch, b.history[e].epoch);
    EXPECT_EQ(a.history[e].avg_loss, b.history[e].avg_loss);
    EXPECT_EQ(a.history[e].avg_aux_loss, b.history[e].avg_aux_loss);
  }
  ASSERT_EQ(a.evals.size(), b.evals.size());
  for (size_t e = 0; e < a.evals.size(); ++e) {
    EXPECT_EQ(a.evals[e].epoch, b.evals[e].epoch);
    ExpectSameMetrics(a.evals[e].metrics, b.evals[e].metrics);
  }
}

TrainResult TrainMf(const Dataset& data, const TrainConfig& cfg) {
  Rng rng(5);
  MfModel model(data.num_users(), data.num_items(), 16, rng);
  SoftmaxLoss loss(0.2);
  UniformNegativeSampler sampler(data);
  Trainer trainer(data, model, loss, sampler, cfg);
  return trainer.Train();
}

TrainResult TrainLightGcnInBatch(const Dataset& data, TrainConfig cfg) {
  const BipartiteGraph graph(data);
  Rng rng(6);
  LightGcnModel model(graph, 16, 2, rng);
  SoftmaxLoss loss(0.2);
  UniformNegativeSampler sampler(data);  // unused in kInBatch mode
  cfg.sampling_mode = SamplingMode::kInBatch;
  Trainer trainer(data, model, loss, sampler, cfg);
  return trainer.Train();
}

// ---- Trainer integration ----------------------------------------------

TEST(AsyncTrainer, MfHistoryBitIdenticalToSync) {
  const SyntheticData data = EvalData(21);
  TrainConfig sync_cfg = BaseConfig();
  TrainConfig async_cfg = sync_cfg;
  async_cfg.async_eval = true;
  const TrainResult sync_result = TrainMf(data.dataset, sync_cfg);
  const TrainResult async_result = TrainMf(data.dataset, async_cfg);
  ASSERT_GE(sync_result.evals.size(), 3u);
  ExpectSameResult(sync_result, async_result);
}

TEST(AsyncTrainer, LightGcnInBatchHistoryBitIdenticalToSync) {
  const SyntheticData data = EvalData(23);
  TrainConfig sync_cfg = BaseConfig();
  sync_cfg.epochs = 4;
  TrainConfig async_cfg = sync_cfg;
  async_cfg.async_eval = true;
  const TrainResult sync_result = TrainLightGcnInBatch(data.dataset, sync_cfg);
  const TrainResult async_result =
      TrainLightGcnInBatch(data.dataset, async_cfg);
  ASSERT_GE(sync_result.evals.size(), 2u);
  ExpectSameResult(sync_result, async_result);
}

TEST(AsyncTrainer, ThreadCountInvarianceAcrossBothPools) {
  const SyntheticData data = EvalData(29);
  TrainConfig cfg = BaseConfig();
  const TrainResult baseline = TrainMf(data.dataset, cfg);  // sync, serial
  for (size_t num_threads : {1u, 2u, 8u}) {
    for (size_t eval_threads : {1u, 3u}) {
      TrainConfig async_cfg = cfg;
      async_cfg.async_eval = true;
      async_cfg.runtime.num_threads = num_threads;
      async_cfg.runtime.eval_threads = eval_threads;
      const TrainResult result = TrainMf(data.dataset, async_cfg);
      ExpectSameResult(baseline, result);
    }
  }
}

// Snapshot isolation: a checkpoint saved while a background pass is
// provably in flight reflects the *live* tables; the joined pass
// reflects the *frozen* ones.
TEST(AsyncEvalCheckpoint, SaveDuringInFlightPassSeesLiveTables) {
  const SyntheticData data = EvalData(37);
  const std::string path =
      ::testing::TempDir() + "/bslrec_async_ckpt.bin";
  Rng rng(8);
  MfModel model(data.dataset.num_users(), data.dataset.num_items(), 8, rng);
  model.Forward(rng);

  const Evaluator background_eval(data.dataset, 10,
                                  runtime::RuntimeConfig{.num_threads = 2});
  runtime::ThreadPool freeze_pool(1);
  const auto snapshot =
      std::make_shared<const serve::ModelSnapshot>(model, freeze_pool);
  const Evaluator reference_eval(data.dataset, 10,
                                 runtime::RuntimeConfig{1});
  const TopKMetrics frozen_metrics =
      reference_eval.BeginPassOn(snapshot).Evaluate();

  // Gate the pass so it is still in flight while we mutate + save.
  std::atomic<bool> go{false};
  std::future<TopKMetrics> in_flight = std::async(std::launch::async, [&] {
    while (!go.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return background_eval.BeginPassOn(snapshot).Evaluate();
  });

  // "Training steps" while the pass is gated: mutate the live params.
  for (ParamGrad pg : model.Params()) {
    for (size_t k = 0; k < pg.value->size(); ++k) {
      pg.value->data()[k] += 0.25f * static_cast<float>(k % 3);
    }
  }
  Rng fwd_rng(12);
  model.Forward(fwd_rng);
  ASSERT_TRUE(SaveModelParams(model, path));
  go.store(true);

  // The pass scored the frozen snapshot, untouched by the mutation.
  ExpectSameMetrics(in_flight.get(), frozen_metrics);

  // The checkpoint captured the mutated live tables.
  Rng rng2(999);
  MfModel restored(data.dataset.num_users(), data.dataset.num_items(), 8,
                   rng2);
  ASSERT_TRUE(LoadModelParams(restored, path));
  const auto live = model.Params();
  const auto loaded = restored.Params();
  ASSERT_EQ(live.size(), loaded.size());
  for (size_t p = 0; p < live.size(); ++p) {
    ASSERT_EQ(live[p].value->size(), loaded[p].value->size());
    for (size_t k = 0; k < live[p].value->size(); ++k) {
      ASSERT_EQ(live[p].value->data()[k], loaded[p].value->data()[k]);
    }
  }
  std::remove(path.c_str());
}

// Snapshot reuse: Evaluate() right after training ended must reuse the
// snapshot the last eval epoch froze — not rebuild one — and must
// rebuild once the tables step again.
TEST(AsyncTrainer, EvaluateReusesTheSnapshotFrozenForTheLastEval) {
  const SyntheticData data = EvalData(41);
  TrainConfig cfg = BaseConfig();
  cfg.async_eval = true;
  Rng rng(5);
  MfModel model(data.dataset.num_users(), data.dataset.num_items(), 16, rng);
  SoftmaxLoss loss(0.2);
  UniformNegativeSampler sampler(data.dataset);
  Trainer trainer(data.dataset, model, loss, sampler, cfg);
  const TrainResult result = trainer.Train();
  const size_t frozen_after_train = trainer.snapshots_frozen();
  EXPECT_EQ(frozen_after_train, result.evals.size());

  // No optimizer step since the last freeze: reuse, bit-identical.
  const TopKMetrics reused = trainer.Evaluate();
  EXPECT_EQ(trainer.snapshots_frozen(), frozen_after_train);
  ExpectSameMetrics(reused, result.final_metrics);

  // A fresh epoch steps the tables: the next Evaluate must re-freeze.
  trainer.RunEpoch(cfg.epochs + 1);
  trainer.Evaluate();
  EXPECT_EQ(trainer.snapshots_frozen(), frozen_after_train + 1);
}

}  // namespace
}  // namespace bslrec
