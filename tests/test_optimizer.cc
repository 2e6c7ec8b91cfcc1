#include "train/optimizer.h"

#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <vector>

#include "gtest/gtest.h"
#include "math/rng.h"
#include "math/vec.h"
#include "runtime/thread_pool.h"

namespace bslrec {
namespace {

TEST(Adam, FirstStepMovesByLearningRate) {
  // With bias correction, the very first Adam step is ~lr * sign(g).
  Matrix w(1, 1), g(1, 1);
  g.At(0, 0) = 0.37f;
  AdamOptimizer opt(/*lr=*/0.01);
  opt.Step({{&w, &g}});
  EXPECT_NEAR(w.At(0, 0), -0.01f, 1e-5f);
}

TEST(Adam, ConvergesOnQuadratic) {
  Matrix w(1, 2), g(1, 2);
  w.At(0, 0) = -4.0f;
  w.At(0, 1) = 7.0f;
  AdamOptimizer opt(0.05);
  for (int i = 0; i < 2000; ++i) {
    g.At(0, 0) = 2.0f * (w.At(0, 0) - 1.0f);
    g.At(0, 1) = 8.0f * (w.At(0, 1) + 2.0f);  // ill-conditioned pair
    opt.Step({{&w, &g}});
  }
  EXPECT_NEAR(w.At(0, 0), 1.0f, 1e-2f);
  EXPECT_NEAR(w.At(0, 1), -2.0f, 1e-2f);
}

TEST(Adam, HandlesMultipleParameterTensors) {
  Matrix w1(2, 2), g1(2, 2), w2(3, 1), g2(3, 1);
  AdamOptimizer opt(0.1);
  for (int i = 0; i < 500; ++i) {
    for (size_t k = 0; k < w1.size(); ++k) {
      g1.data()[k] = w1.data()[k] - 1.0f;
    }
    for (size_t k = 0; k < w2.size(); ++k) {
      g2.data()[k] = w2.data()[k] + 2.0f;
    }
    opt.Step({{&w1, &g1}, {&w2, &g2}});
  }
  for (size_t k = 0; k < w1.size(); ++k) {
    EXPECT_NEAR(w1.data()[k], 1.0f, 1e-2f);
  }
  for (size_t k = 0; k < w2.size(); ++k) {
    EXPECT_NEAR(w2.data()[k], -2.0f, 1e-2f);
  }
}

TEST(Adam, DecoupledWeightDecayActsWithoutGradient) {
  Matrix w(1, 1), g(1, 1);
  w.At(0, 0) = 1.0f;
  AdamOptimizer opt(/*lr=*/0.1, /*weight_decay=*/0.1);
  for (int i = 0; i < 50; ++i) opt.Step({{&w, &g}});
  EXPECT_LT(w.At(0, 0), 1.0f);
  EXPECT_GT(w.At(0, 0), 0.0f);
}

TEST(Adam, StatePersistsAcrossStepsPerTensor) {
  // Second moment accumulation: after many large gradients, a small
  // gradient produces a small step (unlike fresh state).
  Matrix w(1, 1), g(1, 1);
  AdamOptimizer warm(0.1);
  for (int i = 0; i < 100; ++i) {
    g.At(0, 0) = 10.0f;
    warm.Step({{&w, &g}});
  }
  const float before = w.At(0, 0);
  g.At(0, 0) = 1e-4f;
  warm.Step({{&w, &g}});
  const float warm_step = std::abs(w.At(0, 0) - before);

  Matrix w2(1, 1), g2(1, 1);
  AdamOptimizer cold(0.1);
  g2.At(0, 0) = 1e-4f;
  cold.Step({{&w2, &g2}});
  const float cold_step = std::abs(w2.At(0, 0));
  EXPECT_LT(warm_step, cold_step);
}

// ---- bit-identity of the vectorized, pooled step ----

// Tensor lengths 0..37 (every SIMD tail of the 4-wide kernel, several
// times over) plus one tensor spanning four optimizer shards, the last
// one short.
std::vector<size_t> StepLengths() {
  std::vector<size_t> lens;
  for (size_t n = 0; n <= 37; ++n) lens.push_back(n);
  lens.push_back(3 * AdamOptimizer::kStepGrain + 5);
  return lens;
}

// Enough steps for the bias corrections and both moment estimates to
// evolve well past their first-step values.
constexpr int kSteps = 60;

// One gradient entry: exact zeros, subnormals and negatives mixed in
// with ordinary values of several magnitudes.
float TestGrad(Rng& rng) {
  switch (rng.NextIndex(6)) {
    case 0:
      return 0.0f;
    case 1:
      return (rng.NextBernoulli(0.5) ? -1.0f : 1.0f) *
             std::numeric_limits<float>::denorm_min() *
             static_cast<float>(1 + rng.NextIndex(1 << 20));
    case 2:
      return -static_cast<float>(std::fabs(rng.NextGaussian()));
    case 3:
      return static_cast<float>(rng.NextGaussian() * 1e-4);
    case 4:
      return static_cast<float>(rng.NextGaussian() * 1e2);
    default:
      return static_cast<float>(rng.NextGaussian());
  }
}

Matrix TestParams(size_t n, uint64_t seed) {
  Rng rng(seed);
  Matrix w(1, n);
  for (size_t k = 0; k < n; ++k) {
    w.data()[k] = k % 5 == 0 ? 0.0f : static_cast<float>(rng.NextGaussian());
  }
  return w;
}

// Bitwise equality: EXPECT_EQ on floats would let -0 match +0.
::testing::AssertionResult SameBits(const float* a, const float* b,
                                    size_t n) {
  for (size_t k = 0; k < n; ++k) {
    if (std::memcmp(&a[k], &b[k], sizeof(float)) != 0) {
      return ::testing::AssertionFailure()
             << "element " << k << ": " << a[k] << " vs " << b[k];
    }
  }
  return ::testing::AssertionSuccess();
}

// nullptr (inline) and pools of 1, 2 and 8 workers.
std::vector<std::unique_ptr<runtime::ThreadPool>> TestPools() {
  std::vector<std::unique_ptr<runtime::ThreadPool>> pools;
  pools.push_back(nullptr);
  for (const size_t threads : {1u, 2u, 8u}) {
    pools.push_back(std::make_unique<runtime::ThreadPool>(threads));
  }
  return pools;
}

vec::AdamCoeffs CoeffsAtStep(int t) {
  // The optimizer's defaults, a non-zero weight decay, and step t's bias
  // corrections computed as AdamOptimizer::Step computes them.
  return {.lr = 0.05,
          .weight_decay = 1e-4,
          .beta1 = 0.9,
          .beta2 = 0.999,
          .eps = 1e-8,
          .bc1 = 1.0 - std::pow(0.9, static_cast<double>(t)),
          .bc2 = 1.0 - std::pow(0.999, static_cast<double>(t))};
}

// TestGrad, with one entry in eight very large (2^66 to 2^127 in
// magnitude): its square overflows float, so v saturates at +inf and
// the update's ratio becomes 0 in both forms alike.
float KernelTestGrad(Rng& rng) {
  if (rng.NextIndex(8) != 0) return TestGrad(rng);
  const float sign = rng.NextBernoulli(0.5) ? -1.0f : 1.0f;
  return sign * std::ldexp(1.0f + static_cast<float>(rng.NextDouble()),
                           66 + static_cast<int>(rng.NextIndex(61)));
}

TEST(AdamKernel, MatchesReferenceLoopBitwise) {
  // Lengths 0-37 end in every tail n % 4 (and n % 8) several times.
  for (const size_t n : StepLengths()) {
    Rng rng(41 + n);
    Matrix w = TestParams(n, 7 + n), w_ref = w;
    std::vector<float> g(n), m(n, 0.0f), v(n, 0.0f), m_ref(m), v_ref(v);
    for (int t = 1; t <= kSteps; ++t) {
      for (float& x : g) x = KernelTestGrad(rng);
      const vec::AdamCoeffs c = CoeffsAtStep(t);
      vec::AdamStep(c, g.data(), w.data(), m.data(), v.data(), n);
      vec::ref::AdamStep(c, g.data(), w_ref.data(), m_ref.data(),
                         v_ref.data(), n);
      ASSERT_TRUE(SameBits(m.data(), m_ref.data(), n))
          << "n=" << n << " t=" << t;
      ASSERT_TRUE(SameBits(v.data(), v_ref.data(), n))
          << "n=" << n << " t=" << t;
      ASSERT_TRUE(SameBits(w.data(), w_ref.data(), n))
          << "n=" << n << " t=" << t;
    }
  }
}

TEST(Adam, PooledStepMatchesReferenceLoopAtAnyWorkerCount) {
  const auto pools = TestPools();
  for (const size_t n : StepLengths()) {
    for (const auto& pool : pools) {
      const size_t workers = pool == nullptr ? 0 : pool->num_workers();
      Rng rng(43 + n);
      Matrix w = TestParams(n, 9 + n), g(1, n);
      Matrix w_ref = w;
      std::vector<float> m_ref(n, 0.0f), v_ref(n, 0.0f);
      AdamOptimizer opt(0.05, 1e-4);
      opt.SetRuntime(pool.get());
      for (int t = 1; t <= kSteps; ++t) {
        for (size_t k = 0; k < n; ++k) g.data()[k] = TestGrad(rng);
        opt.Step({{&w, &g}});
        vec::ref::AdamStep(CoeffsAtStep(t), g.data(), w_ref.data(),
                           m_ref.data(), v_ref.data(), n);
        ASSERT_TRUE(SameBits(w.data(), w_ref.data(), n))
            << "n=" << n << " workers=" << workers << " t=" << t;
      }
    }
  }
}

}  // namespace
}  // namespace bslrec
