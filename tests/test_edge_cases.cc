// Failure-injection and degenerate-input coverage across the stack:
// cold users/items, single-interaction catalogs, dimension-1 embeddings,
// oversized batches, and precondition aborts.
#include <cmath>
#include <vector>

#include "core/losses.h"
#include "data/synthetic.h"
#include "eval/evaluator.h"
#include "graph/bipartite_graph.h"
#include "gtest/gtest.h"
#include "models/lightgcn.h"
#include "models/mf.h"
#include "runtime/thread_pool.h"
#include "sampling/negative_sampler.h"
#include "serve/model_snapshot.h"
#include "serve/topk_scorer.h"
#include "train/trainer.h"

namespace bslrec {
namespace {

// Users 2 and 3 are cold (no train interactions); item 3 is cold.
Dataset ColdStartDataset() {
  std::vector<Edge> train = {{0, 0}, {0, 1}, {1, 0}, {1, 2}};
  std::vector<Edge> test = {{0, 2}, {2, 1}};  // user 2 has test but no train
  return Dataset(4, 4, std::move(train), std::move(test));
}

TEST(EdgeCases, ColdUsersAndItemsTrainAndEvaluate) {
  const Dataset d = ColdStartDataset();
  Rng rng(1);
  MfModel model(d.num_users(), d.num_items(), 4, rng);
  SoftmaxLoss loss(0.5);
  UniformNegativeSampler sampler(d);
  TrainConfig cfg;
  cfg.epochs = 3;
  cfg.batch_size = 16;
  cfg.num_negatives = 2;
  Trainer trainer(d, model, loss, sampler, cfg);
  const TrainResult result = trainer.Train();
  EXPECT_TRUE(std::isfinite(result.best.ndcg));
  // The cold user with test items is included in evaluation.
  EXPECT_EQ(result.best.num_users, 2u);
}

TEST(EdgeCases, ColdNodesInGraphPropagationStayFinite) {
  const Dataset d = ColdStartDataset();
  const BipartiteGraph g(d);
  EXPECT_EQ(g.UserDegree(2), 0u);
  EXPECT_EQ(g.ItemDegree(3), 0u);
  Rng rng(2);
  LightGcnModel model(g, 4, 3, rng);
  model.Forward(rng);
  for (uint32_t u = 0; u < d.num_users(); ++u) {
    for (size_t k = 0; k < 4; ++k) {
      EXPECT_TRUE(std::isfinite(model.UserEmb(u)[k]));
    }
  }
}

TEST(EdgeCases, DimensionOneEmbeddingsWork) {
  SyntheticConfig c;
  c.num_users = 30;
  c.num_items = 25;
  c.avg_items_per_user = 6.0;
  c.seed = 3;
  const Dataset d = GenerateSynthetic(c).dataset;
  Rng rng(4);
  MfModel model(d.num_users(), d.num_items(), 1, rng);
  BprLoss loss;
  UniformNegativeSampler sampler(d);
  TrainConfig cfg;
  cfg.epochs = 2;
  cfg.num_negatives = 4;
  Trainer trainer(d, model, loss, sampler, cfg);
  EXPECT_TRUE(std::isfinite(trainer.Train().best.ndcg));
}

TEST(EdgeCases, BatchLargerThanDataset) {
  const Dataset d = ColdStartDataset();
  Rng rng(5);
  MfModel model(d.num_users(), d.num_items(), 4, rng);
  MseLoss loss;
  UniformNegativeSampler sampler(d);
  TrainConfig cfg;
  cfg.epochs = 2;
  cfg.batch_size = 100000;  // far larger than 4 edges
  cfg.num_negatives = 2;
  Trainer trainer(d, model, loss, sampler, cfg);
  const TrainResult result = trainer.Train();
  EXPECT_EQ(result.history.size(), 2u);
}

TEST(EdgeCases, MoreNegativesThanCatalog) {
  // Sampling is with replacement, so N- > |I| must simply repeat items.
  const Dataset d = ColdStartDataset();
  UniformNegativeSampler sampler(d);
  Rng rng(6);
  std::vector<uint32_t> out;
  sampler.Sample(0, 50, rng, out);
  EXPECT_EQ(out.size(), 50u);
  for (uint32_t j : out) EXPECT_FALSE(d.IsTrainPositive(0, j));
}

TEST(EdgeCases, LossWithSingleNegative) {
  // Smallest legal negative set for every softmax-family loss.
  for (LossKind kind : {LossKind::kSoftmax, LossKind::kBsl,
                        LossKind::kFullSoftmax}) {
    const auto loss = CreateLoss(kind, LossParams{});
    std::vector<float> d_neg(1);
    float d_pos = 0.0f;
    const std::vector<float> negs = {0.2f};
    const double l = loss->Compute(0.5f, negs, &d_pos, d_neg);
    EXPECT_TRUE(std::isfinite(l)) << LossKindName(kind);
    EXPECT_TRUE(std::isfinite(d_neg[0]));
  }
}

TEST(EdgeCases, ExtremeTemperaturesStayFinite) {
  Rng rng(7);
  std::vector<float> negs(32);
  for (auto& x : negs) {
    x = 2.0f * static_cast<float>(rng.NextDouble()) - 1.0f;
  }
  std::vector<float> d_neg(32);
  float d_pos = 0.0f;
  for (double tau : {1e-3, 1e3}) {
    SoftmaxLoss sl(tau);
    const double l = sl.Compute(0.1f, negs, &d_pos, d_neg);
    EXPECT_TRUE(std::isfinite(l)) << "tau=" << tau;
    for (float g : d_neg) EXPECT_TRUE(std::isfinite(g));
  }
}

TEST(EdgeCasesDeathTest, InvalidTemperatureAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(SoftmaxLoss(-0.1), "temperature");
  EXPECT_DEATH(SoftmaxLoss(0.0), "temperature");
  EXPECT_DEATH(BilateralSoftmaxLoss(0.0, 0.1), "positive");
}

TEST(EdgeCasesDeathTest, MismatchedGradientBufferAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  SoftmaxLoss sl(0.5);
  const std::vector<float> negs = {0.1f, 0.2f};
  std::vector<float> wrong_size(1);
  float d_pos = 0.0f;
  EXPECT_DEATH(sl.Compute(0.0f, negs, &d_pos, wrong_size), "d_neg");
}

TEST(EdgeCasesDeathTest, SamplerStarvationAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // A user that interacted with the entire catalog has no negatives.
  std::vector<Edge> train = {{0, 0}, {0, 1}};
  const Dataset d(1, 2, std::move(train), {});
  UniformNegativeSampler sampler(d);
  Rng rng(8);
  std::vector<uint32_t> out;
  EXPECT_DEATH(sampler.Sample(0, 1, rng, out), "negatives");
}

TEST(EdgeCasesDeathTest, AnnWithoutAnIndexAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // The ANN tier reads the snapshot's IVF index, so a scorer asking for
  // it on a snapshot frozen without one is rejected at construction.
  const Dataset d = ColdStartDataset();
  Rng rng(9);
  MfModel model(d.num_users(), d.num_items(), 4, rng);
  model.Forward(rng);
  runtime::ThreadPool pool(1);
  const serve::ModelSnapshot snap(model, pool);
  ASSERT_EQ(snap.ivf(), nullptr);
  EXPECT_DEATH(serve::CatalogScorer(snap, pool, {.exact = false}),
               "IVF index");
}

}  // namespace
}  // namespace bslrec
