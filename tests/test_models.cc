#include "models/mf.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "core/losses.h"
#include "data/synthetic.h"
#include "graph/bipartite_graph.h"
#include "gtest/gtest.h"
#include "math/vec.h"
#include "models/lightgcn.h"
#include "models/ngcf.h"
#include "sampling/negative_sampler.h"
#include "test_util.h"
#include "train/trainer.h"

namespace bslrec {
namespace {

// Scalar probe objective J = sum_k cos(final_user[u_k], final_item[i_k]).
// Used to finite-difference-check every model's Forward/Backward pair.
double ProbeObjective(EmbeddingModel& model, Rng& rng,
                      const std::vector<std::pair<uint32_t, uint32_t>>& pairs) {
  model.Forward(rng);
  double j = 0.0;
  for (const auto& [u, i] : pairs) {
    j += vec::Cosine(model.UserEmb(u), model.ItemEmb(i), model.dim());
  }
  return j;
}

// Accumulates the analytic parameter gradients of ProbeObjective.
void ProbeBackward(EmbeddingModel& model, Rng& rng,
                   const std::vector<std::pair<uint32_t, uint32_t>>& pairs) {
  model.Forward(rng);
  model.ZeroGrad();
  const size_t d = model.dim();
  std::vector<float> u_hat(d), i_hat(d);
  for (const auto& [u, i] : pairs) {
    const float u_norm = vec::Normalize(model.UserEmb(u), u_hat.data(), d);
    const float i_norm = vec::Normalize(model.ItemEmb(i), i_hat.data(), d);
    const float score = vec::Dot(u_hat.data(), i_hat.data(), d);
    vec::AccumulateCosineGrad(u_hat.data(), i_hat.data(), score, u_norm, 1.0f,
                              model.UserGrad(u), d);
    vec::AccumulateCosineGrad(i_hat.data(), u_hat.data(), score, i_norm, 1.0f,
                              model.ItemGrad(i), d);
  }
  model.Backward();
}

// Central-difference check of every parameter entry (subsampled).
void CheckModelGradients(EmbeddingModel& model, uint64_t rng_seed,
                         double tol) {
  const std::vector<std::pair<uint32_t, uint32_t>> pairs = {
      {0, 0}, {1, 2}, {2, 1}, {3, 3}};
  Rng rng(rng_seed);
  ProbeBackward(model, rng, pairs);

  // Snapshot analytic grads (Params() pointers stay valid).
  std::vector<Matrix> analytic;
  for (const ParamGrad& pg : model.Params()) analytic.push_back(*pg.grad);

  const float eps = 2e-3f;
  size_t param_idx = 0;
  for (const ParamGrad& pg : model.Params()) {
    Matrix& w = *pg.value;
    // Probe a deterministic subsample of entries to keep runtime sane.
    const size_t stride = std::max<size_t>(1, w.size() / 24);
    for (size_t k = 0; k < w.size(); k += stride) {
      const float original = w.data()[k];
      w.data()[k] = original + eps;
      Rng r1(rng_seed);
      const double jp = ProbeObjective(model, r1, pairs);
      w.data()[k] = original - eps;
      Rng r2(rng_seed);
      const double jm = ProbeObjective(model, r2, pairs);
      w.data()[k] = original;
      const double fd = (jp - jm) / (2.0 * eps);
      EXPECT_NEAR(fd, analytic[param_idx].data()[k], tol)
          << "param " << param_idx << " entry " << k;
    }
    ++param_idx;
  }
}

TEST(MfModel, ForwardExposesParameters) {
  Rng rng(1);
  MfModel mf(4, 6, 8, rng);
  mf.Forward(rng);
  EXPECT_EQ(mf.num_users(), 4u);
  EXPECT_EQ(mf.num_items(), 6u);
  EXPECT_EQ(mf.dim(), 8u);
  const auto params = mf.Params();
  ASSERT_EQ(params.size(), 2u);
  for (uint32_t u = 0; u < 4; ++u) {
    for (size_t k = 0; k < 8; ++k) {
      EXPECT_FLOAT_EQ(mf.UserEmb(u)[k], params[0].value->At(u, k));
    }
  }
}

TEST(MfModel, ParamsAreTheFinalTablesAndGradients) {
  Rng rng(2);
  MfModel mf(2, 3, 4, rng);
  const auto params = mf.Params();
  ASSERT_EQ(params.size(), 2u);
  EXPECT_EQ(params[0].value, &mf.FinalUserMatrix());
  EXPECT_EQ(params[1].value, &mf.FinalItemMatrix());
  EXPECT_EQ(params[0].grad->Row(1), mf.UserGrad(1));
  EXPECT_EQ(params[1].grad->Row(2), mf.ItemGrad(2));

  // Forward and Backward leave tables and gradients as they are.
  mf.ZeroGrad();
  mf.UserGrad(1)[2] = 3.5f;
  mf.ItemGrad(0)[1] = -1.25f;
  const Matrix users = mf.FinalUserMatrix();
  const Matrix items = mf.FinalItemMatrix();
  mf.Forward(rng);
  mf.Backward();
  EXPECT_EQ(params[0].grad->At(1, 2), 3.5f);
  EXPECT_EQ(params[1].grad->At(0, 1), -1.25f);
  for (size_t k = 0; k < users.size(); ++k) {
    EXPECT_EQ(mf.FinalUserMatrix().data()[k], users.data()[k]);
  }
  for (size_t k = 0; k < items.size(); ++k) {
    EXPECT_EQ(mf.FinalItemMatrix().data()[k], items.data()[k]);
  }

  // A step on Params() moves the tables the scoring head reads.
  params[0].value->At(0, 0) += 1.0f;
  EXPECT_EQ(mf.UserEmb(0)[0], users.At(0, 0) + 1.0f);

  mf.ZeroGrad();
  EXPECT_EQ(params[0].grad->At(1, 2), 0.0f);
  EXPECT_EQ(params[1].grad->At(0, 1), 0.0f);
}

// MF as it was built before its final tables became its parameters:
// separate parameter tables, copied into the final tables by Forward,
// and separate parameter gradients that Backward adds the final
// gradients into.
class CopyingMfModel : public EmbeddingModel {
 public:
  CopyingMfModel(uint32_t num_users, uint32_t num_items, size_t dim,
                 Rng& rng)
      : EmbeddingModel(num_users, num_items, dim),
        user_param_(num_users, dim),
        item_param_(num_items, dim),
        user_param_grad_(num_users, dim),
        item_param_grad_(num_items, dim) {
    user_param_.InitXavierUniform(rng);
    item_param_.InitXavierUniform(rng);
  }

  std::string_view name() const override { return "CopyingMF"; }
  void Forward(Rng&) override {
    final_user_ = user_param_;
    final_item_ = item_param_;
  }
  void Backward() override {
    user_param_grad_.AddScaled(grad_user_, 1.0f);
    item_param_grad_.AddScaled(grad_item_, 1.0f);
  }
  std::vector<ParamGrad> Params() override {
    return {{&user_param_, &user_param_grad_},
            {&item_param_, &item_param_grad_}};
  }

 private:
  Matrix user_param_;
  Matrix item_param_;
  Matrix user_param_grad_;
  Matrix item_param_grad_;
};

::testing::AssertionResult SameBits(const Matrix& a, const Matrix& b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure() << "sizes differ";
  }
  if (std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) != 0) {
    return ::testing::AssertionFailure() << "tables differ";
  }
  return ::testing::AssertionSuccess();
}

TEST(MfModel, TrainsBitIdenticallyToCopyingMf) {
  // Adding a gradient into a zeroed parameter gradient (0 + g) is g
  // bitwise, because gradient tables never hold -0: they start at +0
  // and only ever have values added to them. So stepping the final
  // tables directly must reproduce the copying model's run exactly.
  SyntheticConfig config;
  config.num_users = 300;
  config.num_items = 260;
  config.avg_items_per_user = 10.0;
  config.seed = 5;
  const SyntheticData data = GenerateSynthetic(config);
  const Dataset& ds = data.dataset;
  for (const size_t threads : {1u, 2u}) {
    for (const SamplingMode mode :
         {SamplingMode::kSampledNegatives, SamplingMode::kInBatch}) {
      TrainConfig cfg;
      cfg.epochs = 3;
      cfg.batch_size = 256;
      cfg.num_negatives = 16;
      cfg.eval_every = 3;
      cfg.sampling_mode = mode;
      cfg.runtime.num_threads = threads;
      BilateralSoftmaxLoss loss(0.2, 0.25);
      UniformNegativeSampler sampler(ds);

      Rng rng_a(8), rng_b(8);
      MfModel mf(ds.num_users(), ds.num_items(), 64, rng_a);
      CopyingMfModel copying(ds.num_users(), ds.num_items(), 64, rng_b);
      const TrainResult a = Trainer(ds, mf, loss, sampler, cfg).Train();
      const TrainResult b = Trainer(ds, copying, loss, sampler, cfg).Train();

      const std::string where = "threads=" + std::to_string(threads) +
                                (mode == SamplingMode::kInBatch
                                     ? " in-batch"
                                     : " sampled");
      ASSERT_EQ(a.history.size(), b.history.size()) << where;
      for (size_t e = 0; e < a.history.size(); ++e) {
        EXPECT_EQ(std::bit_cast<uint64_t>(a.history[e].avg_loss),
                  std::bit_cast<uint64_t>(b.history[e].avg_loss))
            << where << " epoch " << e;
      }
      EXPECT_EQ(a.best.ndcg, b.best.ndcg) << where;
      const auto params = copying.Params();
      EXPECT_TRUE(SameBits(mf.FinalUserMatrix(), *params[0].value)) << where;
      EXPECT_TRUE(SameBits(mf.FinalItemMatrix(), *params[1].value)) << where;
    }
  }
}

TEST(MfModel, GradientCheck) {
  Rng rng(3);
  MfModel mf(4, 6, 6, rng);
  CheckModelGradients(mf, 17, 2e-2);
}

TEST(LightGcnPropagateTest, ZeroLayersIsIdentity) {
  const Dataset d = testing::TinyDataset();
  const BipartiteGraph g(d);
  Rng rng(4);
  Matrix base(g.num_nodes(), 3);
  base.InitGaussian(rng, 1.0f);
  Matrix out(g.num_nodes(), 3);
  graph::PropagationEngine engine;
  engine.MeanPropagate(g.Adjacency(), base, 0, out);
  for (size_t k = 0; k < base.size(); ++k) {
    EXPECT_FLOAT_EQ(out.data()[k], base.data()[k]);
  }
}

TEST(LightGcnPropagateTest, IsLinear) {
  const Dataset d = testing::TinyDataset();
  const BipartiteGraph g(d);
  Rng rng(5);
  Matrix x(g.num_nodes(), 2), y(g.num_nodes(), 2);
  x.InitGaussian(rng, 1.0f);
  y.InitGaussian(rng, 1.0f);
  Matrix px(g.num_nodes(), 2), py(g.num_nodes(), 2), pxy(g.num_nodes(), 2);
  graph::PropagationEngine engine;
  engine.MeanPropagate(g.Adjacency(), x, 3, px);
  engine.MeanPropagate(g.Adjacency(), y, 3, py);
  Matrix sum(g.num_nodes(), 2);
  sum.AddScaled(x, 2.0f);
  sum.AddScaled(y, -1.0f);
  engine.MeanPropagate(g.Adjacency(), sum, 3, pxy);
  for (size_t k = 0; k < pxy.size(); ++k) {
    EXPECT_NEAR(pxy.data()[k], 2.0f * px.data()[k] - py.data()[k], 1e-4f);
  }
}

TEST(LightGcnPropagateTest, OperatorIsSelfAdjoint) {
  // <P x, y> == <x, P y>: justifies using the same propagation in
  // LightGcnModel::Backward.
  const Dataset d = testing::TinyDataset();
  const BipartiteGraph g(d);
  Rng rng(6);
  Matrix x(g.num_nodes(), 2), y(g.num_nodes(), 2);
  x.InitGaussian(rng, 1.0f);
  y.InitGaussian(rng, 1.0f);
  Matrix px(g.num_nodes(), 2), py(g.num_nodes(), 2);
  graph::PropagationEngine engine;
  engine.MeanPropagate(g.Adjacency(), x, 2, px);
  engine.MeanPropagate(g.Adjacency(), y, 2, py);
  double lhs = 0.0, rhs = 0.0;
  for (size_t k = 0; k < px.size(); ++k) {
    lhs += static_cast<double>(px.data()[k]) * y.data()[k];
    rhs += static_cast<double>(x.data()[k]) * py.data()[k];
  }
  EXPECT_NEAR(lhs, rhs, 1e-4);
}

TEST(LightGcnModel, FinalEmbeddingsMixNeighborhood) {
  const Dataset d = testing::TinyDataset();
  const BipartiteGraph g(d);
  Rng rng(7);
  LightGcnModel model(g, 4, 2, rng);
  model.Forward(rng);
  // The propagated user embedding must differ from the raw parameter.
  const auto params = model.Params();
  bool any_diff = false;
  for (size_t k = 0; k < 4; ++k) {
    if (std::abs(model.UserEmb(0)[k] - params[0].value->At(0, k)) > 1e-6f) {
      any_diff = true;
    }
  }
  EXPECT_TRUE(any_diff);
}

TEST(LightGcnModel, GradientCheck) {
  const Dataset d = testing::TinyDataset();
  const BipartiteGraph g(d);
  Rng rng(8);
  LightGcnModel model(g, 6, 2, rng);
  CheckModelGradients(model, 19, 2e-2);
}

TEST(NgcfModel, ForwardShapes) {
  const Dataset d = testing::TinyDataset();
  const BipartiteGraph g(d);
  Rng rng(9);
  NgcfModel model(g, 5, 2, rng);
  model.Forward(rng);
  EXPECT_EQ(model.Params().size(), 1u + 2u * 2u);  // base + (W1,W2) x layers
  // Finals are finite.
  for (uint32_t u = 0; u < d.num_users(); ++u) {
    for (size_t k = 0; k < 5; ++k) {
      EXPECT_TRUE(std::isfinite(model.UserEmb(u)[k]));
    }
  }
}

TEST(NgcfModel, GradientCheckAllParams) {
  // Covers base embeddings AND the per-layer W1/W2 transforms through the
  // LeakyReLU nonlinearity.
  const Dataset d = testing::TinyDataset();
  const BipartiteGraph g(d);
  Rng rng(10);
  NgcfModel model(g, 5, 2, rng);
  CheckModelGradients(model, 23, 3e-2);
}

TEST(NgcfModel, DeterministicForward) {
  const Dataset d = testing::TinyDataset();
  const BipartiteGraph g(d);
  Rng rng(11);
  NgcfModel model(g, 4, 2, rng);
  Rng r1(1), r2(2);
  model.Forward(r1);
  std::vector<float> snap(model.UserEmb(0), model.UserEmb(0) + 4);
  model.Forward(r2);
  for (size_t k = 0; k < 4; ++k) {
    EXPECT_FLOAT_EQ(model.UserEmb(0)[k], snap[k]);
  }
}

}  // namespace
}  // namespace bslrec
