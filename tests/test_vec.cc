#include "math/vec.h"

#include <algorithm>
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
  // The dispatched forms are AVX2 exactly when the CPU (and OS) has it.
  __builtin_cpu_init();
  EXPECT_EQ(tier, __builtin_cpu_supports("avx2") ? "avx2" : "scalar");
#else
  EXPECT_EQ(tier, "scalar");
#endif
}

// Length sweep crossing every SIMD block boundary (4-wide double lanes,
// 8-wide float blocks) plus odd tails.
const size_t kKernelLens[] = {0,  1,  2,  3,  4,   5,   7,   8,   9,  15, 16,
                              17, 24, 31, 32, 33,  48,  63,  64,  65, 100,
                              127, 128, 129, 200, 255, 256, 257, 333};

TEST(Vec, DotBitwiseMatchesScalarReference) {
  // The SIMD fp32 dot must reproduce the scalar reference's summation
  // tree exactly (vec.h contract) — EXPECT_EQ, not NEAR.
  Rng rng(21);
  for (const size_t n : kKernelLens) {
    for (int rep = 0; rep < 8; ++rep) {
      std::vector<float> a(n), b(n);
      for (auto& v : a) v = static_cast<float>(rng.NextGaussian());
      for (auto& v : b) v = static_cast<float>(rng.NextGaussian());
      EXPECT_EQ(vec::Dot(a.data(), b.data(), n),
                vec::ref::Dot(a.data(), b.data(), n))
          << "n=" << n;
    }
  }
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

TEST(Vec, DotTileBitwiseMatchesDot) {
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
        vec::DotTile(q_wide.data(), m, rows_wide.data(), n, d, out.data(),
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

TEST(Vec, DotTileF32MatchesReferenceBitwise) {
  // The dispatched single-precision tile equals vec::ref::DotTileF32 bit
  // for bit: d = 0-37 crosses every tail of the eight-lane tree (the
  // masked loads) four times over, 64 and 128 are scan dims, and the
  // block shapes straddle the 2 x 4 and 1 x 8 blocks and their partial
  // last blocks. The output stride is wider than the tile; the padding
  // stays untouched.
  Rng rng(44);
  const float kSentinel = 12345.0f;
  std::vector<size_t> dims = TileDims();
  dims.push_back(128);
  for (const size_t d : dims) {
    for (const size_t m : {1u, 2u, 3u, 4u, 5u, 16u, 17u}) {
      for (const size_t n : {1u, 3u, 4u, 5u, 7u, 8u, 9u, 16u, 37u, 64u}) {
        const std::vector<float> q = HardValues(m * d, rng);
        const std::vector<float> rows = HardValues(n * d, rng);
        const size_t ld = n + 3;
        std::vector<float> out(m * ld, kSentinel);
        std::vector<float> ref_out(m * ld, kSentinel);
        vec::DotTileF32(q.data(), m, rows.data(), n, d, out.data(), ld);
        vec::ref::DotTileF32(q.data(), m, rows.data(), n, d, ref_out.data(),
                             ld);
        for (size_t t = 0; t < m * ld; ++t) {
          ASSERT_EQ(std::bit_cast<uint32_t>(out[t]),
                    std::bit_cast<uint32_t>(ref_out[t]))
              << "d=" << d << " m=" << m << " n=" << n << " entry " << t;
        }
        for (size_t i = 0; i < m; ++i) {
          for (size_t j = n; j < ld; ++j) {
            EXPECT_EQ(ref_out[i * ld + j], kSentinel) << "d=" << d;
          }
        }
      }
    }
  }
}

TEST(Vec, DotTileF32SumsEightLanesInTreeOrder) {
  // The documented tree, spelled out: with q = 1 every product is exact,
  // so at d = 13 lane l is (+0 + x[l]) + x[l + 8], columns 13-15 add
  // +0.0f * +0.0f, and the lanes combine as ((0+1)+(2+3))+((4+5)+(6+7)).
  // HardValues' mixed magnitudes make other groupings round differently.
  Rng rng(48);
  constexpr size_t d = 13;
  const std::vector<float> q(d, 1.0f);
  for (int rep = 0; rep < 200; ++rep) {
    const std::vector<float> x = HardValues(d, rng);
    float lane[8];
    for (size_t l = 0; l < 8; ++l) {
      lane[l] = (0.0f + x[l]) + (l + 8 < d ? x[l + 8] : 0.0f * 0.0f);
    }
    const float want = ((lane[0] + lane[1]) + (lane[2] + lane[3])) +
                       ((lane[4] + lane[5]) + (lane[6] + lane[7]));
    float got = 0.0f, ref = 0.0f;
    vec::DotTileF32(q.data(), 1, x.data(), 1, d, &got, 1);
    vec::ref::DotTileF32(q.data(), 1, x.data(), 1, d, &ref, 1);
    EXPECT_EQ(std::bit_cast<uint32_t>(ref), std::bit_cast<uint32_t>(want))
        << "rep " << rep;
    EXPECT_EQ(std::bit_cast<uint32_t>(got), std::bit_cast<uint32_t>(want))
        << "rep " << rep;
  }
}

// |DotTileF32 - Dot| <= DotTileF32Error(d, NormBound(q) * NormBound(x))
// on the inputs that stress it: random rows, near-cancelling pairs (a
// large norm product with a tiny dot), and subnormal rows whose products
// underflow.
TEST(Vec, DotTileF32ErrorBoundsTheDistanceToDot) {
  Rng rng(45);
  std::vector<size_t> dims = TileDims();
  dims.push_back(128);
  double worst = 0.0;  // largest observed error / bound
  for (const size_t d : dims) {
    for (int kind = 0; kind < 4; ++kind) {
      for (int rep = 0; rep < 40; ++rep) {
        std::vector<float> q(d), x(d);
        for (size_t k = 0; k < d; ++k) {
          q[k] = static_cast<float>(rng.NextGaussian());
          x[k] = static_cast<float>(rng.NextGaussian());
        }
        if (kind == 1) {
          // Pairs (2i, 2i+1) cancel: q_a x_a ~ -q_b x_b.
          for (size_t k = 0; k + 1 < d; k += 2) {
            const auto g = static_cast<float>(rng.NextGaussian());
            x[k] = q[k + 1];
            x[k + 1] = -q[k] * (1.0f + 1e-3f * g);
          }
        } else if (kind == 2) {
          for (float& v : q) v *= 1e-20f;  // products underflow
          for (float& v : x) v *= 1e-20f;
        } else if (kind == 3) {
          for (float& v : x) v *= 1e-41f;  // subnormal rows
        }
        const double p =
            vec::NormBound(q.data(), d) * vec::NormBound(x.data(), d);
        const float eps = vec::DotTileF32Error(d, p);
        float fp32 = 0.0f;
        vec::DotTileF32(q.data(), 1, x.data(), 1, d, &fp32, 1);
        const float s = vec::Dot(q.data(), x.data(), d);
        const double err = std::fabs(static_cast<double>(fp32) - s);
        ASSERT_LE(err, eps) << "d=" << d << " kind " << kind << " rep " << rep;
        if (eps > 0.0f) worst = std::max(worst, err / eps);
      }
    }
  }
  EXPECT_GT(worst, 0.0);  // some input did round
  // Unit rows at the scan's dim: a bound small enough to skip on.
  EXPECT_LT(vec::DotTileF32Error(64, 1.0), 1e-6f);
  EXPECT_GT(vec::DotTileF32Error(64, 1.0), 0.0f);
  // Norm products the bound cannot cover skip nothing.
  const float inf = std::numeric_limits<float>::infinity();
  EXPECT_EQ(vec::DotTileF32Error(64, std::nan("")), inf);
  EXPECT_EQ(vec::DotTileF32Error(64, HUGE_VAL), inf);
  EXPECT_EQ(vec::DotTileF32Error(64, 0x1p101), inf);
}

TEST(Vec, NormBoundIsAtLeastTheNorm) {
  Rng rng(46);
  for (const size_t n : kKernelLens) {
    const std::vector<float> x = HardValues(n, rng);
    long double ss = 0.0L;
    for (const float v : x) ss += static_cast<long double>(v) * v;
    EXPECT_GE(static_cast<long double>(vec::NormBound(x.data(), n)),
              std::sqrt(ss))
        << "n=" << n;
  }
  const float nan_row[] = {1.0f, std::numeric_limits<float>::quiet_NaN()};
  EXPECT_TRUE(std::isnan(vec::NormBound(nan_row, 2)));
  const float inf_row[] = {1.0f, std::numeric_limits<float>::infinity()};
  EXPECT_EQ(vec::NormBound(inf_row, 2), HUGE_VAL);
  EXPECT_EQ(vec::NormBound(nan_row, 0), 0.0);
}

TEST(Vec, IndicesNotBelowMatchesReference) {
  // Every length around the eight-wide compare, thresholds below, inside
  // and above the values, NaN entries (always listed) and a NaN threshold
  // (everything listed).
  Rng rng(47);
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (const size_t n : kKernelLens) {
    std::vector<float> x(n);
    for (float& v : x) {
      v = rng.NextIndex(9) == 0 ? nan : static_cast<float>(rng.NextGaussian());
    }
    for (const float t : {-HUGE_VALF, -0.5f, 0.0f, 1.0f, HUGE_VALF, nan}) {
      std::vector<uint32_t> want;
      for (size_t i = 0; i < n; ++i) {
        if (!(x[i] < t)) want.push_back(static_cast<uint32_t>(i));
      }
      std::vector<uint32_t> got(n), ref(n);
      got.resize(vec::IndicesNotBelow(x.data(), n, t, got.data()));
      ref.resize(vec::ref::IndicesNotBelow(x.data(), n, t, ref.data()));
      EXPECT_EQ(got, want) << "n=" << n << " t=" << t;
      EXPECT_EQ(ref, want) << "n=" << n << " t=" << t;
    }
  }
}

TEST(Vec, DotRowsMatchesDotPerRowBitwise) {
  // Every output of the indexed multi-row dot is vec::ref::Dot over its
  // row, bit for bit: row counts around the four-row block, dims around
  // the four-lane tree, repeated ids, and a table stride wider than d.
  // Entries past m stay untouched.
  Rng rng(24);
  const float kSentinel = 12345.0f;
  constexpr size_t kTableRows = 40;
  for (const size_t m : {0u, 1u, 3u, 4u, 5u, 8u, 65u}) {
    for (const size_t d : {1u, 3u, 4u, 7u, 16u, 31u, 64u, 65u}) {
      for (const size_t stride : {d, d + 5}) {
        const std::vector<float> table = HardValues(kTableRows * stride, rng);
        const std::vector<float> q = HardValues(d, rng);
        std::vector<uint32_t> ids(m);
        for (auto& id : ids) {
          id = static_cast<uint32_t>(rng.NextIndex(kTableRows));
        }
        if (m >= 3) ids[2] = ids[0];  // a repeated id
        std::vector<float> out(m + 2, kSentinel);
        vec::DotRows(q.data(), table.data(), stride, ids.data(), m, d,
                     out.data());
        std::vector<float> ref_out(m + 2, kSentinel);
        vec::ref::DotRows(q.data(), table.data(), stride, ids.data(), m, d,
                          ref_out.data());
        for (size_t r = 0; r < m + 2; ++r) {
          const float want =
              r < m ? vec::ref::Dot(q.data(), table.data() + ids[r] * stride,
                                    d)
                    : kSentinel;
          EXPECT_EQ(std::bit_cast<uint32_t>(out[r]),
                    std::bit_cast<uint32_t>(want))
              << "m=" << m << " d=" << d << " stride=" << stride << " row "
              << r;
          EXPECT_EQ(std::bit_cast<uint32_t>(ref_out[r]),
                    std::bit_cast<uint32_t>(want))
              << "ref m=" << m << " d=" << d << " stride=" << stride;
        }
      }
    }
  }
}

TEST(Vec, AccumulateCosineGradRunMatchesCallLoopBitwise) {
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
        vec::AccumulateCosineGradRun(self.data(), others.data(), stride,
                                     idx.data(), scores.data(), scales.data(),
                                     m, got.data(), n);
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

TEST(Vec, AccumulateCosineGradRunsMatchesPerRunLoopBitwise) {
  // Several runs into one row must be the per-run loop they replace, bit
  // for bit: per run a +0.0f partial, one AccumulateCosineGradRun into
  // it and one Axpy(1.0f) into the row. Widths around the AVX2 form's 8
  // and 32 blocks, with every column tail of 1 to 7 (the reference runs
  // those columns); no runs, one-term runs (a sampled item's shards),
  // runs of 2 and of 16 terms (an in-batch item's shards), an empty run;
  // repeated rows, +-0 coefficients, a row stride wider than the row,
  // and columns past the row left untouched. Each layout also goes in
  // two calls, split between runs. Variant 1 starts the row at +0.0f and
  // makes the first term -0.0f in every column (its partial is +0.0f,
  // so the row stays +0.0f).
  Rng rng(53);
  const float kSentinel = 12345.0f;
  constexpr size_t kRows = 5;  // rows 0-4 drawn; row 5 is all +0.0f
  const std::vector<std::vector<size_t>> layouts = {
      {}, {1, 1, 1, 1, 1, 1, 1, 1}, {2, 2, 2}, {16, 16, 16}, {1, 0, 2, 16, 1}};
  for (const size_t n : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 15u, 16u, 17u,
                         31u, 32u, 33u, 63u, 64u, 65u}) {
    for (const std::vector<size_t>& layout : layouts) {
      for (const int variant : {0, 1}) {
        const size_t stride = n + 2;
        const std::vector<float> self = HardValues(n, rng);
        std::vector<float> others = HardValues((kRows + 1) * stride, rng);
        std::fill(others.begin() + kRows * stride, others.end(), 0.0f);
        std::vector<uint32_t> ends;
        for (const size_t len : layout) {
          ends.push_back(static_cast<uint32_t>(
              (ends.empty() ? 0 : ends.back()) + len));
        }
        const size_t m = ends.empty() ? 0 : ends.back();
        std::vector<uint32_t> idx(m);
        std::vector<float> scores(m), scales(m);
        for (size_t j = 0; j < m; ++j) {
          idx[j] = static_cast<uint32_t>(rng.NextIndex(kRows));
          scores[j] = static_cast<float>(rng.NextGaussian());
          float coeff = static_cast<float>(rng.NextGaussian());
          if (j % 3 == 1) coeff = 0.0f;
          if (j % 5 == 2) coeff = -0.0f;
          scales[j] = vec::CosineGradScale(coeff, 0.7f);
        }
        if (m > 1) idx[1] = idx[0];
        std::vector<float> want(n + 4, kSentinel);
        for (size_t k = 0; k < n; ++k) {
          want[k] = variant == 1 ? 0.0f
                                 : static_cast<float>(rng.NextGaussian());
        }
        if (variant == 1 && m > 0) {
          // -1.5 * (+0.0f - 0 * self[k]) is -0.0f for every self[k].
          idx[0] = kRows;
          scores[0] = 0.0f;
          scales[0] = -1.5f;
        }
        std::vector<float> got = want, ref_got = want, split = want;
        std::vector<float> partial(n);
        size_t begin = 0;
        for (const uint32_t end : ends) {
          std::fill(partial.begin(), partial.end(), 0.0f);
          vec::ref::AccumulateCosineGradRun(
              self.data(), others.data(), stride, idx.data() + begin,
              scores.data() + begin, scales.data() + begin, end - begin,
              partial.data(), n);
          vec::Axpy(1.0f, partial.data(), want.data(), n);
          begin = end;
        }
        vec::AccumulateCosineGradRuns(self.data(), others.data(), stride,
                                      idx.data(), scores.data(), scales.data(),
                                      ends.data(), ends.size(), got.data(), n);
        vec::ref::AccumulateCosineGradRuns(
            self.data(), others.data(), stride, idx.data(), scores.data(),
            scales.data(), ends.data(), ends.size(), ref_got.data(), n);
        // The same runs in two calls: the second call's arrays start at
        // its first term, and its run ends count from there.
        const size_t cut = ends.size() / 2;
        const size_t off = cut == 0 ? 0 : ends[cut - 1];
        std::vector<uint32_t> tail_ends;
        for (size_t r = cut; r < ends.size(); ++r) {
          tail_ends.push_back(static_cast<uint32_t>(ends[r] - off));
        }
        vec::AccumulateCosineGradRuns(self.data(), others.data(), stride,
                                      idx.data(), scores.data(), scales.data(),
                                      ends.data(), cut, split.data(), n);
        vec::AccumulateCosineGradRuns(self.data(), others.data(), stride,
                                      idx.data() + off, scores.data() + off,
                                      scales.data() + off, tail_ends.data(),
                                      tail_ends.size(), split.data(), n);
        for (size_t k = 0; k < n + 4; ++k) {
          const uint32_t w = std::bit_cast<uint32_t>(want[k]);
          EXPECT_EQ(std::bit_cast<uint32_t>(got[k]), w)
              << "n=" << n << " runs=" << ends.size() << " m=" << m
              << " variant " << variant << " k=" << k;
          EXPECT_EQ(std::bit_cast<uint32_t>(ref_got[k]), w)
              << "ref n=" << n << " runs=" << ends.size() << " k=" << k;
          EXPECT_EQ(std::bit_cast<uint32_t>(split[k]), w)
              << "split n=" << n << " runs=" << ends.size() << " k=" << k;
        }
        if (variant == 1 && layout.size() == 8) {
          // Eight one-term runs; the first one's -0.0f term left the row
          // at +0.0f before the other seven ran. Check it directly too.
          std::vector<float> row(n, 0.0f);
          vec::AccumulateCosineGradRuns(self.data(), others.data(), stride,
                                        idx.data(), scores.data(),
                                        scales.data(), ends.data(), 1,
                                        row.data(), n);
          for (size_t k = 0; k < n; ++k) {
            EXPECT_EQ(std::bit_cast<uint32_t>(row[k]), 0u)
                << "n=" << n << ": a -0.0f term must leave a +0.0f row";
          }
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

TEST(Vec, WeightedRowSumMatchesFillAxpyBitwise) {
  // The SpMM row kernel against its definition: Fill(out, 0) and one
  // Axpy per term, at every width around the AVX2 form's 8 and 32 blocks
  // and every column tail of 1 to 7, on rows of 0, 1 and 40 terms with
  // repeated ids, a wider row stride, and columns past the row left
  // untouched. Variant 1 makes the first product -0.0f (a +0.0f start
  // turns it into +0.0f); variant 2 mixes NaN and +-Inf into x and one
  // weight.
  Rng rng(47);
  const float kSentinel = 12345.0f;
  const float kNan = std::numeric_limits<float>::quiet_NaN();
  const float kInf = std::numeric_limits<float>::infinity();
  constexpr size_t kRows = 9;
  for (const size_t d : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 15u, 16u, 17u,
                         31u, 32u, 33u, 63u, 64u, 65u}) {
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
        vec::WeightedRowSum(values.data(), idx.data(), m, x.data(), stride,
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
