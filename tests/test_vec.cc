#include "math/vec.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "math/rng.h"

namespace bslrec {
namespace {

TEST(Vec, DotBasic) {
  const float a[] = {1.0f, 2.0f, 3.0f};
  const float b[] = {4.0f, -5.0f, 6.0f};
  EXPECT_FLOAT_EQ(vec::Dot(a, b, 3), 4.0f - 10.0f + 18.0f);
  EXPECT_FLOAT_EQ(vec::Dot(a, b, 0), 0.0f);
}

TEST(Vec, AxpyAccumulates) {
  const float x[] = {1.0f, -1.0f};
  float y[] = {10.0f, 20.0f};
  vec::Axpy(2.0f, x, y, 2);
  EXPECT_FLOAT_EQ(y[0], 12.0f);
  EXPECT_FLOAT_EQ(y[1], 18.0f);
}

TEST(Vec, ScaleAndFill) {
  float x[] = {1.0f, 2.0f, 3.0f};
  vec::Scale(x, 3, -2.0f);
  EXPECT_FLOAT_EQ(x[1], -4.0f);
  vec::Fill(x, 3, 7.0f);
  for (float v : x) EXPECT_FLOAT_EQ(v, 7.0f);
}

TEST(Vec, NormAndNormalize) {
  const float x[] = {3.0f, 4.0f};
  EXPECT_FLOAT_EQ(vec::Norm(x, 2), 5.0f);
  float out[2];
  const float n = vec::Normalize(x, out, 2);
  EXPECT_FLOAT_EQ(n, 5.0f);
  EXPECT_FLOAT_EQ(out[0], 0.6f);
  EXPECT_FLOAT_EQ(out[1], 0.8f);
}

TEST(Vec, NormalizeZeroVectorIsSafe) {
  const float x[] = {0.0f, 0.0f, 0.0f};
  float out[3];
  const float n = vec::Normalize(x, out, 3);
  EXPECT_FLOAT_EQ(n, 0.0f);
  for (float v : out) EXPECT_FALSE(std::isnan(v));
}

TEST(Vec, NormalizeInPlaceAliasing) {
  float x[] = {0.0f, 2.0f};
  vec::Normalize(x, x, 2);
  EXPECT_FLOAT_EQ(x[1], 1.0f);
}

TEST(Vec, CosineProperties) {
  const float a[] = {1.0f, 0.0f};
  const float b[] = {0.0f, 2.0f};
  const float c[] = {-3.0f, 0.0f};
  EXPECT_NEAR(vec::Cosine(a, b, 2), 0.0, 1e-6);
  EXPECT_NEAR(vec::Cosine(a, c, 2), -1.0, 1e-6);
  EXPECT_NEAR(vec::Cosine(a, a, 2), 1.0, 1e-6);
  const float zero[] = {0.0f, 0.0f};
  EXPECT_FLOAT_EQ(vec::Cosine(a, zero, 2), 0.0f);
}

TEST(Vec, AddSubSquaredDistance) {
  const float a[] = {1.0f, 2.0f};
  const float b[] = {4.0f, 6.0f};
  float out[2];
  vec::Sub(a, b, out, 2);
  EXPECT_FLOAT_EQ(out[0], -3.0f);
  vec::Add(a, b, out, 2);
  EXPECT_FLOAT_EQ(out[1], 8.0f);
  EXPECT_FLOAT_EQ(vec::SquaredDistance(a, b, 2), 9.0f + 16.0f);
}

TEST(Vec, LogSumExpMatchesNaiveOnSmallValues) {
  const float x[] = {0.1f, -0.5f, 0.7f};
  double naive = std::log(std::exp(0.1) + std::exp(-0.5) + std::exp(0.7));
  EXPECT_NEAR(vec::LogSumExp(x, 3), naive, 1e-6);
}

TEST(Vec, LogSumExpStableForLargeValues) {
  const float x[] = {1000.0f, 1000.0f};
  const double r = vec::LogSumExp(x, 2);
  EXPECT_NEAR(r, 1000.0 + std::log(2.0), 1e-3);
  EXPECT_FALSE(std::isinf(r));
}

TEST(Vec, SoftmaxSumsToOneAndOrders) {
  const float x[] = {1.0f, 2.0f, 3.0f};
  float out[3];
  vec::Softmax(x, out, 3);
  EXPECT_NEAR(out[0] + out[1] + out[2], 1.0, 1e-6);
  EXPECT_LT(out[0], out[1]);
  EXPECT_LT(out[1], out[2]);
  // Ratio property: out[2]/out[1] == e^{1}.
  EXPECT_NEAR(out[2] / out[1], std::exp(1.0), 1e-4);
}

TEST(Vec, SoftmaxStableForExtremeValues) {
  const float x[] = {-2000.0f, 0.0f, 2000.0f};
  float out[3];
  vec::Softmax(x, out, 3);
  EXPECT_NEAR(out[2], 1.0, 1e-6);
  EXPECT_FALSE(std::isnan(out[0]));
}

// Finite-difference check of the cosine gradient helper: f(u) = cos(u, i).
TEST(Vec, AccumulateCosineGradMatchesFiniteDifference) {
  Rng rng(99);
  const size_t d = 8;
  std::vector<float> u(d), i(d);
  for (auto& v : u) v = static_cast<float>(rng.NextGaussian());
  for (auto& v : i) v = static_cast<float>(rng.NextGaussian());

  std::vector<float> u_hat(d), i_hat(d);
  const float u_norm = vec::Normalize(u.data(), u_hat.data(), d);
  vec::Normalize(i.data(), i_hat.data(), d);
  const float score = vec::Dot(u_hat.data(), i_hat.data(), d);

  std::vector<float> grad(d, 0.0f);
  vec::AccumulateCosineGrad(u_hat.data(), i_hat.data(), score, u_norm, 1.0f,
                            grad.data(), d);

  const float eps = 1e-3f;
  for (size_t k = 0; k < d; ++k) {
    std::vector<float> up = u, um = u;
    up[k] += eps;
    um[k] -= eps;
    const float fp = vec::Cosine(up.data(), i.data(), d);
    const float fm = vec::Cosine(um.data(), i.data(), d);
    EXPECT_NEAR((fp - fm) / (2.0f * eps), grad[k], 2e-3f) << "dim " << k;
  }
}

TEST(Vec, DotBatchBitwiseMatchesPerRowDot) {
  // The batch kernel's contract is bit-equality with the single-row
  // kernel (callers mix the two), across even/odd row counts and
  // remainder dims that exercise both the paired and tail paths.
  Rng rng(7);
  for (const size_t m : {0u, 1u, 2u, 3u, 7u, 16u}) {
    for (const size_t d : {1u, 3u, 4u, 17u, 48u, 64u}) {
      std::vector<float> q(d), rows(m * d), out(m, -1.0f);
      for (auto& v : q) v = static_cast<float>(rng.NextGaussian());
      for (auto& v : rows) v = static_cast<float>(rng.NextGaussian());
      vec::DotBatch(q.data(), rows.data(), m, d, out.data());
      for (size_t r = 0; r < m; ++r) {
        EXPECT_EQ(out[r], vec::Dot(q.data(), rows.data() + r * d, d))
            << "m=" << m << " d=" << d << " row " << r;
      }
    }
  }
}

TEST(Vec, GatherNormalizeBitwiseMatchesPerRowNormalize) {
  Rng rng(9);
  const size_t stride = 11, d = 8, table_rows = 20;
  std::vector<float> table(table_rows * stride);
  for (auto& v : table) v = static_cast<float>(rng.NextGaussian());
  const std::vector<uint32_t> ids = {3, 0, 19, 3, 7};  // repeats allowed
  std::vector<float> out(ids.size() * d), norms(ids.size());
  vec::GatherNormalize(table.data(), stride, ids.data(), ids.size(), d,
                       out.data(), norms.data());
  for (size_t r = 0; r < ids.size(); ++r) {
    std::vector<float> expect(d);
    const float n =
        vec::Normalize(table.data() + ids[r] * stride, expect.data(), d);
    EXPECT_EQ(norms[r], n) << "row " << r;
    for (size_t k = 0; k < d; ++k) {
      EXPECT_EQ(out[r * d + k], expect[k]) << "row " << r << " dim " << k;
    }
  }
}

TEST(Vec, GatherNormalizeZeroRowIsSafe) {
  const size_t d = 4;
  std::vector<float> table(d, 0.0f);
  const uint32_t id = 0;
  std::vector<float> out(d, 1.0f);
  float norm = -1.0f;
  vec::GatherNormalize(table.data(), d, &id, 1, d, out.data(), &norm);
  EXPECT_FLOAT_EQ(norm, 0.0f);
  for (float v : out) EXPECT_FALSE(std::isnan(v));
}

TEST(Vec, SimdTierIsKnown) {
  const std::string tier = vec::SimdTier();
#if defined(__x86_64__)
  // The dispatched tier is AVX2 exactly when the CPU (and OS) has it.
  __builtin_cpu_init();
  EXPECT_EQ(tier, __builtin_cpu_supports("avx2") ? "avx2" : "sse2");
#else
  EXPECT_EQ(tier, "scalar");
#endif
}

// One tier's entry points of the kernels that have per-tier forms.
struct TierKernels {
  float (*dot)(const float*, const float*, size_t);
  void (*dot_tile)(const double*, size_t, const double*, size_t, size_t,
                   float*, size_t);
  void (*cosine_grad_run)(const float*, const float*, size_t,
                          const uint32_t*, const float*, const float*, size_t,
                          float*, size_t);
  int32_t (*dot_i8)(const int8_t*, const int8_t*, size_t);
  void (*dot_batch_i8)(const int8_t*, const int8_t*, size_t, size_t,
                       int32_t*);
  void (*weighted_row_sum)(const float*, const uint32_t*, size_t,
                           const float*, size_t, float*, size_t);
};

constexpr TierKernels kDispatched = {
    vec::Dot,   vec::DotTile,    vec::AccumulateCosineGradRun,
    vec::DotI8, vec::DotBatchI8, vec::WeightedRowSum};
#if defined(__x86_64__)
constexpr TierKernels kSse2 = {
    vec::sse2::Dot,   vec::sse2::DotTile,    vec::sse2::AccumulateCosineGradRun,
    vec::sse2::DotI8, vec::sse2::DotBatchI8, vec::sse2::WeightedRowSum};
constexpr TierKernels kAvx2 = {
    vec::avx2::Dot,   vec::avx2::DotTile,    vec::avx2::AccumulateCosineGradRun,
    vec::avx2::DotI8, vec::avx2::DotBatchI8, vec::avx2::WeightedRowSum};
#endif

// Runs each kernel contract test on the dispatched kernels and on every
// x86-64 tier by name: a host that dispatches to AVX2 still holds its
// SSE2 tier to the vec::ref oracles. A tier the host cannot run shows
// as skipped, with the reason.
class VecTier : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    const std::string& tier = GetParam();
    if (tier == "dispatched") {
      k_ = kDispatched;
      return;
    }
#if defined(__x86_64__)
    if (tier == "sse2") {
      k_ = kSse2;
      return;
    }
    __builtin_cpu_init();
    if (!__builtin_cpu_supports("avx2")) {
      GTEST_SKIP() << "this CPU has no AVX2, so the avx2 tier cannot run";
    }
    k_ = kAvx2;
#else
    GTEST_SKIP() << "the " << tier << " tier exists on x86-64 builds only";
#endif
  }

  TierKernels k_{};
};

INSTANTIATE_TEST_SUITE_P(Tiers, VecTier,
                         ::testing::Values("dispatched", "sse2", "avx2"),
                         [](const ::testing::TestParamInfo<std::string>& p) {
                           return p.param;
                         });

// Length sweep crossing every SIMD block boundary (4-wide fp32 lanes,
// 8-wide quantize blocks, 16-wide int8 blocks) plus odd tails.
const size_t kKernelLens[] = {0,  1,  2,  3,  4,   5,   7,   8,   9,  15, 16,
                              17, 24, 31, 32, 33,  48,  63,  64,  65, 100,
                              127, 128, 129, 200, 255, 256, 257, 333};

TEST_P(VecTier, DotBitwiseMatchesScalarReference) {
  // The SIMD fp32 dot must reproduce the scalar reference's summation
  // tree exactly (vec.h contract) — EXPECT_EQ, not NEAR.
  Rng rng(21);
  for (const size_t n : kKernelLens) {
    for (int rep = 0; rep < 8; ++rep) {
      std::vector<float> a(n), b(n);
      for (auto& v : a) v = static_cast<float>(rng.NextGaussian());
      for (auto& v : b) v = static_cast<float>(rng.NextGaussian());
      EXPECT_EQ(k_.dot(a.data(), b.data(), n),
                vec::ref::Dot(a.data(), b.data(), n))
          << "n=" << n;
    }
  }
}

TEST_P(VecTier, DotI8MatchesScalarReferenceExactly) {
  Rng rng(22);
  for (const size_t n : kKernelLens) {
    for (int rep = 0; rep < 8; ++rep) {
      std::vector<int8_t> a(n), b(n);
      for (auto& v : a) v = static_cast<int8_t>(rng.NextInt(-127, 127));
      for (auto& v : b) v = static_cast<int8_t>(rng.NextInt(-127, 127));
      EXPECT_EQ(k_.dot_i8(a.data(), b.data(), n),
                vec::ref::DotI8(a.data(), b.data(), n))
          << "n=" << n;
    }
  }
  // Extremes: the maximum-magnitude products must accumulate exactly.
  const size_t n = 256;
  std::vector<int8_t> lo(n, -127), hi(n, 127);
  EXPECT_EQ(k_.dot_i8(lo.data(), hi.data(), n),
            -127 * 127 * static_cast<int32_t>(n));
  EXPECT_EQ(k_.dot_i8(lo.data(), lo.data(), n),
            127 * 127 * static_cast<int32_t>(n));
}

TEST_P(VecTier, DotBatchI8MatchesPerRowAndReference) {
  Rng rng(23);
  for (const size_t m : {0u, 1u, 2u, 3u, 4u, 5u, 7u, 9u, 16u, 17u}) {
    for (const size_t d : {1u, 8u, 15u, 16u, 17u, 32u, 128u}) {
      std::vector<int8_t> q(d), rows(m * d);
      for (auto& v : q) v = static_cast<int8_t>(rng.NextInt(-127, 127));
      for (auto& v : rows) v = static_cast<int8_t>(rng.NextInt(-127, 127));
      std::vector<int32_t> got(m, -1), want(m, -2);
      k_.dot_batch_i8(q.data(), rows.data(), m, d, got.data());
      vec::ref::DotBatchI8(q.data(), rows.data(), m, d, want.data());
      for (size_t r = 0; r < m; ++r) {
        EXPECT_EQ(got[r], want[r]) << "m=" << m << " d=" << d << " row " << r;
        EXPECT_EQ(got[r], vec::ref::DotI8(q.data(), rows.data() + r * d, d))
            << "m=" << m << " d=" << d << " row " << r;
      }
    }
  }
}

TEST(Vec, QuantizeRowMatchesScalarReference) {
  Rng rng(24);
  for (const size_t n : kKernelLens) {
    for (int rep = 0; rep < 8; ++rep) {
      std::vector<float> x(n);
      for (auto& v : x) v = static_cast<float>(rng.NextGaussian());
      std::vector<int8_t> got(n, 99), want(n, -99);
      const float sg = vec::QuantizeRow(x.data(), n, got.data());
      const float sw = vec::ref::QuantizeRow(x.data(), n, want.data());
      EXPECT_EQ(sg, sw) << "n=" << n;
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(got[i], want[i]) << "n=" << n << " i=" << i;
      }
    }
  }
}

TEST(Vec, QuantizeRowRoundTripBound) {
  // Symmetric quantization error: |x - code*scale| <= scale*(0.5+eps),
  // codes within [-127, 127], and the max-magnitude entry maps to +-127.
  Rng rng(25);
  for (int rep = 0; rep < 100; ++rep) {
    const size_t n = 1 + rng.NextIndex(200);
    std::vector<float> x(n);
    for (auto& v : x) v = static_cast<float>(rng.NextGaussian());
    std::vector<int8_t> codes(n);
    const float scale = vec::QuantizeRow(x.data(), n, codes.data());
    ASSERT_GT(scale, 0.0f);
    for (size_t i = 0; i < n; ++i) {
      EXPECT_GE(codes[i], -127);
      EXPECT_LE(codes[i], 127);
      const double err = std::fabs(static_cast<double>(x[i]) -
                                   static_cast<double>(codes[i]) *
                                       static_cast<double>(scale));
      EXPECT_LE(err, 0.5001 * static_cast<double>(scale) + 1e-12)
          << "n=" << n << " i=" << i;
    }
  }
}

TEST(Vec, QuantizeRowDegenerateRows) {
  // All-zero rows: zero scale, zero codes (and no NaN anywhere).
  std::vector<float> zero(13, 0.0f);
  std::vector<int8_t> codes(13, 5);
  EXPECT_EQ(vec::QuantizeRow(zero.data(), zero.size(), codes.data()), 0.0f);
  for (int8_t c : codes) EXPECT_EQ(c, 0);
  // Constant rows quantize to exactly +-127 with scale |v|/127.
  std::vector<float> flat(9, -0.25f);
  codes.assign(9, 0);
  const float scale = vec::QuantizeRow(flat.data(), flat.size(), codes.data());
  EXPECT_FLOAT_EQ(scale, 0.25f / 127.0f);
  for (int8_t c : codes) EXPECT_EQ(c, -127);
  // Empty row.
  EXPECT_EQ(vec::QuantizeRow(flat.data(), 0, codes.data()), 0.0f);
}

TEST(Vec, L1NormMatchesNaiveSum) {
  const float x[] = {1.0f, -2.0f, 3.0f, -4.0f, 0.5f};
  EXPECT_DOUBLE_EQ(vec::L1Norm(x, 5), 10.5);
  EXPECT_DOUBLE_EQ(vec::L1Norm(x, 0), 0.0);
}

// Values that stress an exactness contract: signed zeros, subnormals,
// large magnitudes and signed powers of two mixed into Gaussian values.
// The powers of two are +-1 and +-2^31, so their products include 2^62,
// which absorbs a 1 in double but cancels exactly against -2^62: a sum
// taken in another order than the contract's then differs by whole
// units, which survive the narrowing to float.
std::vector<float> HardValues(size_t n, Rng& rng) {
  std::vector<float> x(n);
  for (float& v : x) {
    const float g = static_cast<float>(rng.NextGaussian());
    switch (rng.NextIndex(12)) {
      case 8:
      case 9:
      case 10:
      case 11:
        v = std::ldexp(g < 0.0f ? -1.0f : 1.0f,
                       31 * static_cast<int>(rng.NextIndex(2)));
        break;
      case 0:
        v = 0.0f;
        break;
      case 1:
        v = -0.0f;
        break;
      case 2:
        v = 1e-40f * g;  // subnormal
        break;
      case 3:
        v = 1e18f * g;
        break;
      default:
        v = g;
    }
  }
  return x;
}

// d = 0-37 crosses every tail of the four-lane tree twice over; 64 is
// the training dim.
std::vector<size_t> TileDims() {
  std::vector<size_t> dims;
  for (size_t d = 0; d <= 37; ++d) dims.push_back(d);
  dims.push_back(64);
  return dims;
}

TEST_P(VecTier, DotTileBitwiseMatchesDot) {
  // Every entry of the tile must be Dot over the float rows, bit for
  // bit, for odd and even block shapes and an output stride wider than
  // the tile; the padding columns stay untouched.
  Rng rng(41);
  const float kSentinel = 12345.0f;
  for (const size_t d : TileDims()) {
    for (const size_t m : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 16u}) {
      for (const size_t n : {1u, 2u, 3u, 4u, 5u, 7u, 16u, 37u}) {
        const std::vector<float> q = HardValues(m * d, rng);
        const std::vector<float> rows = HardValues(n * d, rng);
        std::vector<double> q_wide(m * d), rows_wide(n * d);
        vec::Widen(q.data(), m * d, q_wide.data());
        vec::Widen(rows.data(), n * d, rows_wide.data());
        const size_t stride = n + 3;
        std::vector<float> out(m * stride, kSentinel);
        std::vector<float> ref_out(m * stride, kSentinel);
        k_.dot_tile(q_wide.data(), m, rows_wide.data(), n, d, out.data(),
                    stride);
        vec::ref::DotTile(q_wide.data(), m, rows_wide.data(), n, d,
                          ref_out.data(), stride);
        for (size_t i = 0; i < m; ++i) {
          for (size_t j = 0; j < stride; ++j) {
            const float got = out[i * stride + j];
            const float want =
                j < n ? vec::ref::Dot(q.data() + i * d, rows.data() + j * d, d)
                      : kSentinel;
            EXPECT_EQ(std::bit_cast<uint32_t>(got),
                      std::bit_cast<uint32_t>(want))
                << "d=" << d << " m=" << m << " n=" << n << " (" << i << ", "
                << j << ")";
            EXPECT_EQ(std::bit_cast<uint32_t>(ref_out[i * stride + j]),
                      std::bit_cast<uint32_t>(want))
                << "ref d=" << d << " m=" << m << " n=" << n;
          }
        }
      }
    }
  }
}

TEST_P(VecTier, AccumulateCosineGradRunMatchesCallLoopBitwise) {
  // A run must be the loop of AccumulateCosineGrad calls it replaces,
  // bit for bit, zero coefficients included (the run skips nothing),
  // with repeated rows, an all-zero norm (the 1e-12 guard) and a row
  // stride wider than the row.
  Rng rng(43);
  constexpr size_t kRows = 7;
  for (const size_t n : TileDims()) {
    for (const size_t m : {0u, 1u, 2u, 5u, 17u}) {
      for (const float norm : {0.0f, 0.7f, 3.5f}) {
        const size_t stride = n + 2;
        const std::vector<float> self = HardValues(n, rng);
        std::vector<float> others = HardValues(kRows * stride, rng);
        std::vector<uint32_t> idx(m);
        std::vector<float> scores(m), coeffs(m), scales(m);
        for (size_t j = 0; j < m; ++j) {
          idx[j] = static_cast<uint32_t>(rng.NextIndex(kRows));
          scores[j] = static_cast<float>(rng.NextGaussian());
          if (j % 3 == 1) {
            coeffs[j] = 0.0f;
          } else if (j % 5 == 2) {
            coeffs[j] = -0.0f;
          } else {
            coeffs[j] = static_cast<float>(rng.NextGaussian());
          }
          scales[j] = vec::CosineGradScale(coeffs[j], norm);
        }
        std::vector<float> want(n);
        for (float& v : want) v = static_cast<float>(rng.NextGaussian());
        std::vector<float> got = want, ref_got = want;
        for (size_t j = 0; j < m; ++j) {
          vec::AccumulateCosineGrad(self.data(),
                                    others.data() + idx[j] * stride,
                                    scores[j], norm, coeffs[j], want.data(),
                                    n);
        }
        k_.cosine_grad_run(self.data(), others.data(), stride, idx.data(),
                           scores.data(), scales.data(), m, got.data(), n);
        vec::ref::AccumulateCosineGradRun(self.data(), others.data(), stride,
                                          idx.data(), scores.data(),
                                          scales.data(), m, ref_got.data(),
                                          n);
        for (size_t k = 0; k < n; ++k) {
          EXPECT_EQ(std::bit_cast<uint32_t>(got[k]),
                    std::bit_cast<uint32_t>(want[k]))
              << "n=" << n << " m=" << m << " norm=" << norm << " k=" << k;
          EXPECT_EQ(std::bit_cast<uint32_t>(ref_got[k]),
                    std::bit_cast<uint32_t>(want[k]))
              << "ref n=" << n << " m=" << m << " norm=" << norm;
        }
      }
    }
  }
}

// Bitwise equality, except that a NaN only has to meet a NaN: which
// operand's payload a NaN result carries is not part of the contract.
bool SameBitsOrBothNan(float got, float want) {
  if (std::isnan(want)) return std::isnan(got);
  return std::bit_cast<uint32_t>(got) == std::bit_cast<uint32_t>(want);
}

TEST_P(VecTier, WeightedRowSumMatchesFillAxpyBitwise) {
  // The SpMM row kernel against its definition: Fill(out, 0) and one
  // Axpy per term, at every width around the tiers' 4, 8, 16 and 32
  // blocks, on rows of 0, 1 and 40 terms with repeated ids, a wider
  // row stride, and columns past the row left untouched. Variant 1
  // makes the first product -0.0f (a +0.0f start turns it into +0.0f);
  // variant 2 mixes NaN and +-Inf into x and one weight.
  Rng rng(47);
  const float kSentinel = 12345.0f;
  const float kNan = std::numeric_limits<float>::quiet_NaN();
  const float kInf = std::numeric_limits<float>::infinity();
  constexpr size_t kRows = 9;
  for (const size_t d : {1u, 3u, 4u, 7u, 8u, 15u, 16u, 17u, 31u, 32u, 33u,
                         63u, 64u, 65u}) {
    for (const size_t m : {0u, 1u, 40u}) {
      for (const int variant : {0, 1, 2}) {
        const size_t stride = d + 3;
        std::vector<float> x = HardValues(kRows * stride, rng);
        std::vector<uint32_t> idx(m);
        std::vector<float> values(m);
        for (size_t j = 0; j < m; ++j) {
          idx[j] = static_cast<uint32_t>(rng.NextIndex(kRows));
          values[j] = static_cast<float>(rng.NextGaussian());
        }
        if (m > 1) idx[1] = idx[0];
        if (variant == 1 && m > 0) {
          // -1e-30 * 1e-30 underflows to -0.0f in every column.
          values[0] = -1e-30f;
          for (size_t k = 0; k < d; ++k) x[idx[0] * stride + k] = 1e-30f;
        }
        if (variant == 2) {
          for (size_t e = 0; e < x.size(); e += 5) {
            x[e] = e % 3 == 0 ? kNan : (e % 3 == 1 ? kInf : -kInf);
          }
          if (m > 2) values[2] = kInf;
        }
        std::vector<float> want(d + 4, kSentinel);
        vec::Fill(want.data(), d, 0.0f);
        for (size_t j = 0; j < m; ++j) {
          vec::Axpy(values[j], x.data() + idx[j] * stride, want.data(), d);
        }
        std::vector<float> got(d + 4, kSentinel), ref_got(d + 4, kSentinel);
        k_.weighted_row_sum(values.data(), idx.data(), m, x.data(), stride,
                            got.data(), d);
        vec::ref::WeightedRowSum(values.data(), idx.data(), m, x.data(),
                                 stride, ref_got.data(), d);
        for (size_t k = 0; k < d + 4; ++k) {
          EXPECT_TRUE(SameBitsOrBothNan(got[k], want[k]))
              << "d=" << d << " m=" << m << " variant " << variant
              << " k=" << k << ": " << got[k] << " vs " << want[k];
          EXPECT_TRUE(SameBitsOrBothNan(ref_got[k], want[k]))
              << "ref d=" << d << " m=" << m << " variant " << variant;
        }
        if (variant == 1 && m == 1) {
          for (size_t k = 0; k < d; ++k) {
            EXPECT_EQ(std::bit_cast<uint32_t>(got[k]), 0u)
                << "d=" << d << ": -0.0f first product must give +0.0f";
          }
        }
      }
    }
  }
}

TEST(Vec, AccumulateCosineGradScalesWithCoeff) {
  const size_t d = 4;
  std::vector<float> u = {1.0f, 0.0f, 0.0f, 0.0f};
  std::vector<float> i = {0.0f, 1.0f, 0.0f, 0.0f};
  std::vector<float> g1(d, 0.0f), g2(d, 0.0f);
  vec::AccumulateCosineGrad(u.data(), i.data(), 0.0f, 1.0f, 1.0f, g1.data(),
                            d);
  vec::AccumulateCosineGrad(u.data(), i.data(), 0.0f, 1.0f, -2.5f, g2.data(),
                            d);
  for (size_t k = 0; k < d; ++k) EXPECT_FLOAT_EQ(g2[k], -2.5f * g1[k]);
}

}  // namespace
}  // namespace bslrec
