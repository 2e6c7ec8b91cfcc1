#include "core/losses.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "gtest/gtest.h"
#include "math/rng.h"
#include "test_util.h"

namespace bslrec {
namespace {

using ::bslrec::testing::CheckLossGradients;
using ::bslrec::testing::RandomScores;

// ---------------------------------------------------------------------------
// Gradient property sweep: every loss must match finite differences at
// random score configurations (the trainer relies on these gradients).
// ---------------------------------------------------------------------------

struct GradCase {
  LossKind kind;
  uint64_t seed;
  size_t num_negatives;
};

class LossGradientSweep : public ::testing::TestWithParam<GradCase> {};

TEST_P(LossGradientSweep, MatchesFiniteDifference) {
  const GradCase& c = GetParam();
  LossParams params;
  params.tau = 0.25;   // moderate tau keeps FD stable in float
  params.tau1 = 0.35;
  params.margin = 0.4;
  params.negative_weight = 1.5;
  const auto loss = CreateLoss(c.kind, params);
  Rng rng(c.seed);
  const float pos = 2.0f * static_cast<float>(rng.NextDouble()) - 1.0f;
  // Margin losses (CML/CCL) have kinks; nudge scores away from them.
  std::vector<float> negs = RandomScores(c.num_negatives, rng);
  CheckLossGradients(*loss, pos, negs, 5e-3);
}

std::vector<GradCase> MakeGradCases() {
  std::vector<GradCase> cases;
  const LossKind kinds[] = {
      LossKind::kMse,     LossKind::kBce,
      LossKind::kBpr,     LossKind::kSoftmax,
      LossKind::kFullSoftmax,
      LossKind::kBsl,     LossKind::kCml,
      LossKind::kCcl,     LossKind::kSoftmaxNoVariance,
      LossKind::kVarianceAugmentedMean,
  };
  for (LossKind k : kinds) {
    for (uint64_t seed : {11ULL, 22ULL, 33ULL}) {
      for (size_t n : {1UL, 8UL, 32UL}) {
        cases.push_back({k, seed, n});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllLosses, LossGradientSweep,
                         ::testing::ValuesIn(MakeGradCases()));

// ---------------------------------------------------------------------------
// Structural identities.
// ---------------------------------------------------------------------------

TEST(SoftmaxLossTest, EqualsBslWithEqualTemperatures) {
  const double tau = 0.12;
  SoftmaxLoss sl(tau);
  BilateralSoftmaxLoss bsl(tau, tau);
  Rng rng(1);
  for (int trial = 0; trial < 20; ++trial) {
    const float pos = 2.0f * static_cast<float>(rng.NextDouble()) - 1.0f;
    const auto negs = RandomScores(16, rng);
    std::vector<float> g1(16), g2(16);
    float dp1 = 0.0f, dp2 = 0.0f;
    const double l1 = sl.Compute(pos, negs, &dp1, g1);
    const double l2 = bsl.Compute(pos, negs, &dp2, g2);
    EXPECT_NEAR(l1, l2, 1e-9);
    EXPECT_NEAR(dp1, dp2, 1e-9);
    for (size_t j = 0; j < 16; ++j) EXPECT_NEAR(g1[j], g2[j], 1e-7);
  }
}

TEST(SoftmaxLossTest, DecreasesInPositiveScore) {
  SoftmaxLoss sl(0.1);
  const std::vector<float> negs = {0.1f, -0.2f, 0.3f};
  std::vector<float> g(3);
  float dp = 0.0f;
  const double hi = sl.Compute(0.9f, negs, &dp, g);
  const double lo = sl.Compute(0.1f, negs, &dp, g);
  EXPECT_LT(hi, lo);
  EXPECT_LT(dp, 0.0f);  // pushing the positive up always helps
}

TEST(SoftmaxLossTest, NegativeGradientsAreSoftmaxWeights) {
  // d L / d f-_j = softmax_j(f-/tau) / tau: positive, sum to 1/tau, and
  // concentrated on the hardest (highest-scoring) negative.
  const double tau = 0.1;
  SoftmaxLoss sl(tau);
  const std::vector<float> negs = {0.5f, -0.5f, 0.0f, 0.45f};
  std::vector<float> g(negs.size());
  float dp = 0.0f;
  sl.Compute(0.2f, negs, &dp, g);
  double sum = 0.0;
  for (float x : g) {
    EXPECT_GT(x, 0.0f);
    sum += x;
  }
  EXPECT_NEAR(sum, 1.0 / tau, 1e-4);
  EXPECT_GT(g[0], g[3]);  // 0.5 harder than 0.45
  EXPECT_GT(g[3], g[2]);
  EXPECT_GT(g[2], g[1]);
}

TEST(SoftmaxLossTest, SmallerTauSharpensHardNegativeFocus) {
  const std::vector<float> negs = {0.5f, 0.0f, -0.5f};
  std::vector<float> g_small(3), g_large(3);
  float dp = 0.0f;
  SoftmaxLoss(0.05).Compute(0.0f, negs, &dp, g_small);
  SoftmaxLoss(0.5).Compute(0.0f, negs, &dp, g_large);
  // Normalized weight mass on the hardest negative.
  const auto top_mass = [](const std::vector<float>& g) {
    double sum = 0.0;
    for (float x : g) sum += x;
    return g[0] / sum;
  };
  EXPECT_GT(top_mass(g_small), top_mass(g_large));
}

TEST(FullSoftmaxTest, IsSoftplusOfDecoupledLoss) {
  // With the positive kept in the denominator:
  //   L_full = log(1 + exp(L_SL))  where  L_SL = -f+/tau + lse(f-/tau).
  // Exact identity — footnote 1's two variants differ by a softplus.
  const double tau = 0.3;
  SoftmaxLoss sl(tau);
  FullSoftmaxLoss full(tau);
  Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    const float pos = 2.0f * static_cast<float>(rng.NextDouble()) - 1.0f;
    const auto negs = RandomScores(12, rng);
    std::vector<float> g(12);
    float dp = 0.0f;
    const double l_sl = sl.Compute(pos, negs, &dp, g);
    const double l_full = full.Compute(pos, negs, &dp, g);
    EXPECT_NEAR(l_full, std::log1p(std::exp(l_sl)), 1e-6);
  }
}

TEST(FullSoftmaxTest, PositiveGradientBoundedByDecoupled) {
  // p_pos in (0,1) means |dL_full/df+| = (1-p_pos)/tau < 1/tau = |dL_SL/df+|.
  const double tau = 0.2;
  SoftmaxLoss sl(tau);
  FullSoftmaxLoss full(tau);
  const std::vector<float> negs = {0.1f, -0.4f, 0.3f};
  std::vector<float> g(3);
  float dp_sl = 0.0f, dp_full = 0.0f;
  sl.Compute(0.5f, negs, &dp_sl, g);
  full.Compute(0.5f, negs, &dp_full, g);
  EXPECT_LT(dp_full, 0.0f);
  EXPECT_GT(dp_full, dp_sl);  // both negative; full is weaker pull
}

TEST(BslLossTest, RatioScalesNegativePart) {
  // L_BSL = -f+/tau1 + (tau1/tau2) * logsumexp(f-/tau2): doubling tau1
  // halves the positive pull and doubles the negative coefficient.
  const std::vector<float> negs = {0.2f, -0.1f};
  std::vector<float> g(2);
  float dp1 = 0.0f, dp2 = 0.0f;
  BilateralSoftmaxLoss(0.1, 0.2).Compute(0.3f, negs, &dp1, g);
  BilateralSoftmaxLoss(0.2, 0.2).Compute(0.3f, negs, &dp2, g);
  EXPECT_NEAR(dp1, 2.0 * dp2, 1e-5);
}

TEST(BslLossTest, LossValueRoundsTheProductBeforeTheSum) {
  // The loss value is -f+/tau1 + (tau1/tau2) * lse with the product
  // rounded on its own. A build that fused it into one FMA (GCC does at
  // -march=native unless the library is built with -ffp-contract=off)
  // would round once and report other loss bits than a portable build.
  // The input is chosen so the two roundings differ.
  const double tau1 = 0.15, tau2 = 0.11;
  const BilateralSoftmaxLoss bsl(tau1, tau2);
  const SoftmaxLoss sl(tau2);  // same lse; -0/tau2 + lse is lse exactly
  const std::vector<float> negs = {0.31f, -0.42f, 0.05f, 0.77f, -0.13f};
  std::vector<float> d_neg(negs.size());
  float d_pos = 0.0f;
  const double lse = sl.Compute(0.0f, negs, &d_pos, d_neg);
  const double ratio = tau1 / tau2;
  volatile double product = ratio * lse;  // rounded to double here
  bool found = false;
  for (int k = 0; k < 1000 && !found; ++k) {
    const float pos = -1.0f + 0.002f * static_cast<float>(k);
    const double head = -static_cast<double>(pos) / tau1;
    const double expected = head + product;
    if (std::fma(ratio, lse, head) == expected) continue;
    found = true;
    EXPECT_EQ(std::bit_cast<uint64_t>(bsl.Compute(pos, negs, &d_pos, d_neg)),
              std::bit_cast<uint64_t>(expected))
        << "pos=" << pos;
  }
  ASSERT_TRUE(found) << "no input separates fused from unfused rounding";
}

TEST(BslLossTest, AccessorsReturnConfiguredTemperatures) {
  BilateralSoftmaxLoss bsl(0.15, 0.25);
  EXPECT_DOUBLE_EQ(bsl.tau1(), 0.15);
  EXPECT_DOUBLE_EQ(bsl.tau2(), 0.25);
  SoftmaxLoss sl(0.3);
  EXPECT_DOUBLE_EQ(sl.tau(), 0.3);
}

TEST(GroupedBslTest, GradientsMatchFiniteDifference) {
  GroupedBslLoss loss(0.3, 0.2);
  Rng rng(5);
  const auto pos = RandomScores(5, rng);
  const auto neg = RandomScores(12, rng);
  std::vector<float> d_pos(5), d_neg(12);
  loss.Compute(pos, neg, d_pos, d_neg);

  const float eps = 1e-3f;
  std::vector<float> dp(5), dn(12);
  for (size_t k = 0; k < pos.size(); ++k) {
    auto p = pos;
    p[k] += eps;
    const double lp = loss.Compute(p, neg, dp, dn);
    p[k] -= 2 * eps;
    const double lm = loss.Compute(p, neg, dp, dn);
    EXPECT_NEAR((lp - lm) / (2 * eps), d_pos[k], 5e-3) << "pos " << k;
  }
  for (size_t k = 0; k < neg.size(); ++k) {
    auto n = neg;
    n[k] += eps;
    const double lp = loss.Compute(pos, n, dp, dn);
    n[k] -= 2 * eps;
    const double lm = loss.Compute(pos, n, dp, dn);
    EXPECT_NEAR((lp - lm) / (2 * eps), d_neg[k], 5e-3) << "neg " << k;
  }
}

TEST(GroupedBslTest, DownweightsLowScoringPositives) {
  // The Log-Expectation-Exp positive part concentrates gradient on
  // high-scoring (confident) positives, i.e. suspected-noisy positives
  // with low scores receive less pull — the bilateral denoising story.
  GroupedBslLoss loss(0.1, 0.1);
  const std::vector<float> pos = {0.8f, -0.4f};  // confident vs suspicious
  const std::vector<float> neg = {0.0f, 0.1f};
  std::vector<float> d_pos(2), d_neg(2);
  loss.Compute(pos, neg, d_pos, d_neg);
  EXPECT_LT(d_pos[0], 0.0f);
  EXPECT_LT(d_pos[1], 0.0f);
  EXPECT_GT(std::abs(d_pos[0]), 10.0f * std::abs(d_pos[1]));
}

TEST(BprLossTest, SymmetricScoresGiveLogTwo) {
  BprLoss bpr;
  const std::vector<float> negs = {0.3f};
  std::vector<float> g(1);
  float dp = 0.0f;
  const double l = bpr.Compute(0.3f, negs, &dp, g);
  EXPECT_NEAR(l, std::log(2.0), 1e-6);
}

TEST(BprLossTest, PositiveAndNegativeGradientsMirror) {
  BprLoss bpr;
  const std::vector<float> negs = {0.1f, -0.6f};
  std::vector<float> g(2);
  float dp = 0.0f;
  bpr.Compute(0.4f, negs, &dp, g);
  EXPECT_NEAR(dp, -(g[0] + g[1]), 1e-6);
}

TEST(MseLossTest, PerfectScoresGiveZeroLoss) {
  MseLoss mse(1.0);
  const std::vector<float> negs = {0.0f, 0.0f};
  std::vector<float> g(2);
  float dp = 0.0f;
  EXPECT_NEAR(mse.Compute(1.0f, negs, &dp, g), 0.0, 1e-9);
  EXPECT_NEAR(dp, 0.0, 1e-6);
}

TEST(BceLossTest, LossIsPositiveAndFiniteAtExtremes) {
  BceLoss bce(1.0);
  const std::vector<float> negs = {1.0f, -1.0f};
  std::vector<float> g(2);
  float dp = 0.0f;
  const double l = bce.Compute(-1.0f, negs, &dp, g);
  EXPECT_GT(l, 0.0);
  EXPECT_TRUE(std::isfinite(l));
}

TEST(CmlLossTest, InactiveHingeHasZeroGradient) {
  CmlLoss cml(0.5);
  // margin - 2*pos + 2*neg = 0.5 - 1.8 + 0.2 < 0 -> inactive.
  const std::vector<float> negs = {0.1f};
  std::vector<float> g(1);
  float dp = 0.0f;
  const double l = cml.Compute(0.9f, negs, &dp, g);
  EXPECT_DOUBLE_EQ(l, 0.0);
  EXPECT_FLOAT_EQ(dp, 0.0f);
  EXPECT_FLOAT_EQ(g[0], 0.0f);
}

TEST(CclLossTest, OnlyHardNegativesContribute) {
  CclLoss ccl(/*margin=*/0.3, /*negative_weight=*/2.0);
  const std::vector<float> negs = {0.5f, 0.1f};  // only first above margin
  std::vector<float> g(2);
  float dp = 0.0f;
  const double l = ccl.Compute(0.7f, negs, &dp, g);
  EXPECT_GT(g[0], 0.0f);
  EXPECT_FLOAT_EQ(g[1], 0.0f);
  EXPECT_NEAR(l, (1.0 - 0.7) + 2.0 * (0.5 - 0.3) / 2.0, 1e-6);
}

TEST(VarianceLossTest, NoVarianceLossIgnoresSpread) {
  // Mean-field loss must be identical for two negative sets with equal
  // mean but different variance; SL must not be.
  SoftmaxNoVarianceLoss mean_field(0.1);
  SoftmaxLoss sl(0.1);
  const std::vector<float> tight = {0.1f, 0.1f, 0.1f, 0.1f};
  const std::vector<float> spread = {0.4f, -0.2f, 0.3f, -0.1f};  // mean 0.1
  std::vector<float> g(4);
  float dp = 0.0f;
  EXPECT_NEAR(mean_field.Compute(0.5f, tight, &dp, g),
              mean_field.Compute(0.5f, spread, &dp, g), 1e-6);
  EXPECT_LT(sl.Compute(0.5f, tight, &dp, g),
            sl.Compute(0.5f, spread, &dp, g));
}

TEST(VarianceLossTest, ExplicitVariancePenaltyApproximatesSl) {
  // Lemma 2: SL == mean + Var/(2 tau) + O(1/tau^2); at large tau the
  // explicit surrogate converges to SL.
  Rng rng(6);
  const auto negs = RandomScores(64, rng);
  std::vector<float> g(64);
  float dp = 0.0f;
  for (double tau : {1.0, 2.0, 4.0}) {
    SoftmaxLoss sl(tau);
    VarianceAugmentedMeanLoss approx(tau);
    const double l_sl = sl.Compute(0.0f, negs, &dp, g);
    const double l_ap = approx.Compute(0.0f, negs, &dp, g);
    // SL carries a constant log-N offset (sum vs mean inside the log);
    // after removing it the residual shrinks like tau^-2.
    const double offset = std::log(static_cast<double>(negs.size()));
    EXPECT_NEAR(l_sl - offset, l_ap, 0.6 / (tau * tau)) << "tau=" << tau;
  }
}

TEST(LossRegistry, CreateParsesAndNamesRoundTrip) {
  const LossKind kinds[] = {
      LossKind::kMse,     LossKind::kBce,
      LossKind::kBpr,     LossKind::kSoftmax,
      LossKind::kBsl,     LossKind::kCml,
      LossKind::kCcl,     LossKind::kSoftmaxNoVariance,
      LossKind::kVarianceAugmentedMean,
  };
  for (LossKind k : kinds) {
    const auto loss = CreateLoss(k, LossParams{});
    ASSERT_NE(loss, nullptr);
    EXPECT_EQ(loss->name(), LossKindName(k));
    const auto parsed = ParseLossKind(LossKindName(k));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, k);
  }
  // Kinds added after the original set.
  const auto full = CreateLoss(LossKind::kFullSoftmax, LossParams{});
  EXPECT_EQ(full->name(), "SL-full");
  EXPECT_EQ(ParseLossKind("SL-full"), LossKind::kFullSoftmax);
  EXPECT_FALSE(ParseLossKind("nope").has_value());
}

TEST(LossRegistry, BslUsesTau1AndTau2) {
  LossParams p;
  p.tau = 0.2;   // tau2
  p.tau1 = 0.1;
  const auto loss = CreateLoss(LossKind::kBsl, p);
  const auto* bsl = dynamic_cast<const BilateralSoftmaxLoss*>(loss.get());
  ASSERT_NE(bsl, nullptr);
  EXPECT_DOUBLE_EQ(bsl->tau1(), 0.1);
  EXPECT_DOUBLE_EQ(bsl->tau2(), 0.2);
}

}  // namespace
}  // namespace bslrec
