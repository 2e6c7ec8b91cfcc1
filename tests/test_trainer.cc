#include "train/trainer.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "data/synthetic.h"
#include "graph/bipartite_graph.h"
#include "gtest/gtest.h"
#include "models/lightgcn.h"
#include "models/mf.h"
#include "test_util.h"

namespace bslrec {
namespace {

SyntheticData TrainData(uint64_t seed = 1) {
  SyntheticConfig c;
  c.num_users = 120;
  c.num_items = 90;
  c.num_clusters = 6;
  c.avg_items_per_user = 14.0;
  c.seed = seed;
  return GenerateSynthetic(c);
}

TrainConfig FastConfig() {
  TrainConfig cfg;
  cfg.epochs = 8;
  cfg.batch_size = 512;
  cfg.num_negatives = 16;
  cfg.lr = 0.05;
  cfg.eval_every = 4;
  cfg.seed = 99;
  return cfg;
}

TEST(Trainer, TrainingImprovesOverInitialization) {
  const SyntheticData data = TrainData();
  Rng rng(2);
  MfModel model(data.dataset.num_users(), data.dataset.num_items(), 16, rng);
  SoftmaxLoss loss(0.15);
  UniformNegativeSampler sampler(data.dataset);
  Trainer trainer(data.dataset, model, loss, sampler, FastConfig());
  const TopKMetrics before = trainer.Evaluate();
  const TrainResult result = trainer.Train();
  EXPECT_GT(result.best.ndcg, before.ndcg + 0.02);
  EXPECT_GT(result.best.recall, before.recall);
}

TEST(Trainer, LossDecreasesAcrossEpochs) {
  const SyntheticData data = TrainData(3);
  Rng rng(4);
  MfModel model(data.dataset.num_users(), data.dataset.num_items(), 16, rng);
  SoftmaxLoss loss(0.15);
  UniformNegativeSampler sampler(data.dataset);
  Trainer trainer(data.dataset, model, loss, sampler, FastConfig());
  const TrainResult result = trainer.Train();
  ASSERT_GE(result.history.size(), 4u);
  EXPECT_LT(result.history.back().avg_loss, result.history.front().avg_loss);
}

TEST(Trainer, DeterministicGivenSeeds) {
  const SyntheticData data = TrainData(5);
  const auto run = [&]() {
    Rng rng(6);
    MfModel model(data.dataset.num_users(), data.dataset.num_items(), 8, rng);
    SoftmaxLoss loss(0.2);
    UniformNegativeSampler sampler(data.dataset);
    TrainConfig cfg = FastConfig();
    cfg.epochs = 3;
    Trainer trainer(data.dataset, model, loss, sampler, cfg);
    return trainer.Train();
  };
  const TrainResult a = run();
  const TrainResult b = run();
  EXPECT_DOUBLE_EQ(a.best.ndcg, b.best.ndcg);
  EXPECT_DOUBLE_EQ(a.best.recall, b.best.recall);
  ASSERT_EQ(a.history.size(), b.history.size());
  for (size_t k = 0; k < a.history.size(); ++k) {
    EXPECT_DOUBLE_EQ(a.history[k].avg_loss, b.history[k].avg_loss);
  }
}

TEST(Trainer, HistoryHasOneEntryPerEpoch) {
  const SyntheticData data = TrainData(7);
  Rng rng(8);
  MfModel model(data.dataset.num_users(), data.dataset.num_items(), 8, rng);
  BprLoss loss;
  UniformNegativeSampler sampler(data.dataset);
  TrainConfig cfg = FastConfig();
  cfg.epochs = 5;
  Trainer trainer(data.dataset, model, loss, sampler, cfg);
  const TrainResult result = trainer.Train();
  EXPECT_EQ(result.history.size(), 5u);
  for (size_t k = 0; k < result.history.size(); ++k) {
    EXPECT_EQ(result.history[k].epoch, static_cast<int>(k) + 1);
    EXPECT_TRUE(std::isfinite(result.history[k].avg_loss));
    EXPECT_FALSE(result.history[k].non_finite.has_value());
  }
  EXPECT_FALSE(result.non_finite.has_value());
}

TEST(Trainer, ZeroEpochsStillReportsMetrics) {
  const SyntheticData data = TrainData(11);
  Rng rng(12);
  MfModel model(data.dataset.num_users(), data.dataset.num_items(), 8, rng);
  MseLoss loss;
  UniformNegativeSampler sampler(data.dataset);
  TrainConfig cfg = FastConfig();
  cfg.epochs = 0;
  Trainer trainer(data.dataset, model, loss, sampler, cfg);
  const TrainResult result = trainer.Train();
  EXPECT_GT(result.best.num_users, 0u);
  EXPECT_TRUE(result.history.empty());
}

TEST(Trainer, InBatchModeTrainsAndImproves) {
  // Algorithm 2: other batch positives act as negatives. Must train to a
  // comparable quality as sampled negatives on the same data.
  const SyntheticData data = TrainData(15);
  Rng rng(16);
  MfModel model(data.dataset.num_users(), data.dataset.num_items(), 16, rng);
  SoftmaxLoss loss(0.4);
  UniformNegativeSampler sampler(data.dataset);  // unused in this mode
  TrainConfig cfg = FastConfig();
  cfg.sampling_mode = SamplingMode::kInBatch;
  cfg.batch_size = 256;
  Trainer trainer(data.dataset, model, loss, sampler, cfg);
  const TopKMetrics before = trainer.Evaluate();
  const TrainResult result = trainer.Train();
  EXPECT_GT(result.best.ndcg, before.ndcg + 0.02);
}

TEST(Trainer, InBatchLogQCorrectionHelpsOnSkewedData) {
  // In-batch negatives are popularity-biased; the logQ correction must
  // not hurt, and on skewed data it should help.
  SyntheticConfig c;
  c.num_users = 300;
  c.num_items = 400;
  c.num_clusters = 12;
  c.avg_items_per_user = 15.0;
  c.zipf_alpha = 1.1;
  c.seed = 21;
  const Dataset data = GenerateSynthetic(c).dataset;
  const auto run = [&](double logq_tau) {
    Rng rng(22);
    MfModel model(data.num_users(), data.num_items(), 16, rng);
    SoftmaxLoss loss(0.6);
    UniformNegativeSampler sampler(data);
    TrainConfig cfg = FastConfig();
    cfg.sampling_mode = SamplingMode::kInBatch;
    cfg.batch_size = 256;
    cfg.epochs = 10;
    cfg.inbatch_logq_tau = logq_tau;
    Trainer trainer(data, model, loss, sampler, cfg);
    return trainer.Train().best.ndcg;
  };
  EXPECT_GT(run(0.6), run(0.0));
}

TEST(Trainer, InBatchDeterministicAndLossFinite) {
  const SyntheticData data = TrainData(17);
  const auto run = [&]() {
    Rng rng(18);
    MfModel model(data.dataset.num_users(), data.dataset.num_items(), 8,
                  rng);
    SoftmaxLoss loss(0.4);
    UniformNegativeSampler sampler(data.dataset);
    TrainConfig cfg = FastConfig();
    cfg.sampling_mode = SamplingMode::kInBatch;
    cfg.batch_size = 128;
    cfg.epochs = 3;
    Trainer trainer(data.dataset, model, loss, sampler, cfg);
    return trainer.Train();
  };
  const TrainResult a = run();
  const TrainResult b = run();
  EXPECT_DOUBLE_EQ(a.best.ndcg, b.best.ndcg);
  for (const EpochStats& e : a.history) {
    EXPECT_TRUE(std::isfinite(e.avg_loss));
  }
}

TEST(Trainer, RunEpochReturnsFiniteStats) {
  const SyntheticData data = TrainData(13);
  Rng rng(14);
  MfModel model(data.dataset.num_users(), data.dataset.num_items(), 8, rng);
  BceLoss loss;
  UniformNegativeSampler sampler(data.dataset);
  Trainer trainer(data.dataset, model, loss, sampler, FastConfig());
  const EpochStats stats = trainer.RunEpoch(1);
  EXPECT_EQ(stats.epoch, 1);
  EXPECT_TRUE(std::isfinite(stats.avg_loss));
  EXPECT_DOUBLE_EQ(stats.avg_aux_loss, 0.0);  // MF has no aux objective
}

// A NaN user row makes every shard that holds one of the user's samples
// diverge. The user's first sample lies in batch 0 of epoch 1 (the
// trainer's Rng(seed) shuffles that epoch first), so training must stop
// there, name that sample's shard, evaluate nothing and leave every
// parameter as it was.
TEST(Trainer, NonFiniteShardStopsTrainingBeforeAnyStep) {
  const Dataset data = TrainData(23).dataset;
  TrainConfig cfg = FastConfig();
  cfg.batch_size = 256;
  cfg.eval_every = 1;
  std::vector<Edge> edges = data.train_edges();
  Rng shuffle(cfg.seed);
  shuffle.Shuffle(edges);
  ASSERT_GT(edges.size(), 2 * cfg.batch_size);
  // The first sample at or after position 40 whose user has not appeared
  // yet: past the first shard in both modes, still inside batch 0.
  size_t first = 40;
  const auto seen_before = [&](size_t p) {
    for (size_t q = 0; q < p; ++q) {
      if (edges[q].user == edges[p].user) return true;
    }
    return false;
  };
  while (seen_before(first)) ++first;
  ASSERT_LT(first, cfg.batch_size);
  const uint32_t user = edges[first].user;

  for (const SamplingMode mode :
       {SamplingMode::kSampledNegatives, SamplingMode::kInBatch}) {
    for (const size_t threads : {1u, 2u, 8u}) {
      Rng init(24);
      MfModel model(data.num_users(), data.num_items(), 8, init);
      Matrix& users = *model.Params()[0].value;
      std::fill(users.Row(user), users.Row(user) + users.cols(),
                std::numeric_limits<float>::quiet_NaN());
      std::vector<Matrix> before;
      for (const ParamGrad& pg : model.Params()) before.push_back(*pg.value);

      const BilateralSoftmaxLoss loss(0.2, 0.25);
      UniformNegativeSampler sampler(data);
      cfg.sampling_mode = mode;
      cfg.runtime.num_threads = threads;
      Trainer trainer(data, model, loss, sampler, cfg);
      const TrainResult result = trainer.Train();
      const std::string where =
          std::string(mode == SamplingMode::kInBatch ? "in-batch" : "sampled") +
          " threads=" + std::to_string(threads);

      ASSERT_TRUE(result.non_finite.has_value()) << where;
      EXPECT_EQ(result.non_finite->epoch, 1) << where;
      EXPECT_EQ(result.non_finite->batch, 0u) << where;
      const size_t grain = mode == SamplingMode::kInBatch
                               ? Trainer::kInBatchGrain
                               : Trainer::kSampledGrain;
      EXPECT_EQ(result.non_finite->shard, first / grain) << where;
      EXPECT_TRUE(std::isnan(result.non_finite->shard_loss)) << where;
      ASSERT_EQ(result.history.size(), 1u) << where;
      ASSERT_TRUE(result.history[0].non_finite.has_value()) << where;
      EXPECT_EQ(result.history[0].non_finite->shard, result.non_finite->shard);
      EXPECT_FALSE(std::isfinite(result.history[0].avg_loss)) << where;
      EXPECT_TRUE(result.evals.empty()) << where;
      const std::vector<ParamGrad> after = model.Params();
      for (size_t t = 0; t < before.size(); ++t) {
        EXPECT_EQ(std::memcmp(before[t].data(), after[t].value->data(),
                              before[t].size() * sizeof(float)),
                  0)
            << where << " tensor " << t;
      }
    }
  }
}

// One epoch over TinyDataset as a single batch (batch_size >= num_train):
// the epoch's avg_loss and every Params()[k].grad are computed before its
// one optimizer step, so each grad is the gradient of avg_loss as the
// trainer composes it (loss, cosine head, logQ shift, gradient scatter,
// then the backbone's Backward). `bump` moves one parameter entry before the
// epoch; a fresh trainer with the same seed replays the same shuffle and
// the same negative streams, so every run evaluates the same function.
struct ComposedRun {
  const Dataset& data;
  const BipartiteGraph& graph;
  bool lightgcn;
  SamplingMode mode;

  double Loss(size_t tensor, size_t entry, float bump,
              std::vector<Matrix>* grads = nullptr) const {
    Rng init(41);
    std::unique_ptr<EmbeddingModel> model;
    if (lightgcn) {
      model = std::make_unique<LightGcnModel>(graph, 5, 2, init);
    } else {
      model = std::make_unique<MfModel>(data.num_users(), data.num_items(), 5,
                                        init);
    }
    model->Params()[tensor].value->data()[entry] += bump;
    const BilateralSoftmaxLoss loss(0.3, 0.25);
    UniformNegativeSampler sampler(data);
    TrainConfig cfg;
    cfg.batch_size = 64;
    cfg.sampling_mode = mode;
    cfg.num_negatives = 4;
    cfg.inbatch_logq_tau = 0.25;  // read in in-batch mode only
    cfg.lr = 0.0;
    cfg.weight_decay = 0.0;
    cfg.seed = 7;
    cfg.runtime.num_threads = 1;
    Trainer trainer(data, *model, loss, sampler, cfg);
    const double avg_loss = trainer.RunEpoch(1).avg_loss;
    if (grads != nullptr) {
      for (const ParamGrad& pg : model->Params()) grads->push_back(*pg.grad);
    }
    return avg_loss;
  }
};

TEST(Trainer, ComposedGradientMatchesFiniteDifference) {
  const Dataset data = testing::TinyDataset();
  ASSERT_LE(data.num_train(), 64u);  // one batch per epoch
  const BipartiteGraph graph(data);
  for (const bool lightgcn : {false, true}) {
    for (const SamplingMode mode :
         {SamplingMode::kSampledNegatives, SamplingMode::kInBatch}) {
      const ComposedRun run{data, graph, lightgcn, mode};
      const std::string where =
          std::string(lightgcn ? "LightGCN" : "MF") +
          (mode == SamplingMode::kInBatch ? " in-batch" : " sampled");
      std::vector<Matrix> analytic;
      run.Loss(0, 0, 0.0f, &analytic);
      double largest = 0.0;
      for (size_t t = 0; t < analytic.size(); ++t) {
        for (size_t k = 0; k < analytic[t].size(); ++k) {
          const double g = analytic[t].data()[k];
          const float eps = 2e-3f;
          const double fd =
              (run.Loss(t, k, eps) - run.Loss(t, k, -eps)) / (2.0 * eps);
          EXPECT_NEAR(fd, g, 2e-3 + 2e-2 * std::abs(g))
              << where << " tensor " << t << " entry " << k;
          largest = std::max(largest, std::abs(g));
        }
      }
      // The check compares real gradients, not zeros.
      EXPECT_GT(largest, 0.05) << where;
    }
  }
}

}  // namespace
}  // namespace bslrec
