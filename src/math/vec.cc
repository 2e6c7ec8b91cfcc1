#include "math/vec.h"

#include <algorithm>
#include <cmath>
#include <limits>

// SIMD tiers. Every x86-64 build compiles an SSE2 tier (the x86-64
// baseline) and an AVX2 tier of the dispatched kernels, and picks one per
// process at run time (RunAvx2). The AVX2 forms are marked
// target("avx2") and nothing more, so they run AVX2 instructions without
// the build targeting AVX2, and a portable build has no FMA for GCC to
// fuse a mul + add into (see the vec.h contract note). Anything else
// falls back to the scalar reference — which is always compiled
// regardless, both as the vec::ref contract oracle and as the portable
// path.
#if defined(__x86_64__)
#include <immintrin.h>
#define BSLREC_VEC_X86 1
#define BSLREC_AVX2 __attribute__((target("avx2")))
#endif

// The hot kernels below are written as unrolled/blocked loops with
// multiple independent accumulators. Two properties are load-bearing:
//   * Stability: reductions still accumulate in double (the original
//     contract), so long rows don't lose low-order bits.
//   * Determinism: the summation tree is a pure function of n — four
//     fixed accumulator lanes combined in a fixed order — so results
//     never depend on call context. The multi-threaded trainer and
//     evaluator rely on this for their bit-identical-results guarantee.
// The SIMD forms keep the same four double lanes in hardware registers
// (see the vec.h contract note), so the tier a host runs changes no
// result.

namespace bslrec::vec {

namespace {

// Whether this process runs the AVX2 tier: CPUID, read once (the check
// includes the OS's support for the 256-bit register state). A build
// whose target already has AVX2 needs no check.
bool RunAvx2() {
#if defined(__AVX2__)
  return true;
#elif BSLREC_VEC_X86
  static const bool avx2 = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") != 0;
  }();
  return avx2;
#else
  return false;
#endif
}

}  // namespace

const char* SimdTier() {
#if BSLREC_VEC_X86
  return RunAvx2() ? "avx2" : "sse2";
#else
  return "scalar";
#endif
}

namespace ref {

float Dot(const float* a, const float* b, size_t n) {
  double acc0 = 0.0, acc1 = 0.0, acc2 = 0.0, acc3 = 0.0;
  size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    acc0 += static_cast<double>(a[k + 0]) * b[k + 0];
    acc1 += static_cast<double>(a[k + 1]) * b[k + 1];
    acc2 += static_cast<double>(a[k + 2]) * b[k + 2];
    acc3 += static_cast<double>(a[k + 3]) * b[k + 3];
  }
  for (; k < n; ++k) acc0 += static_cast<double>(a[k]) * b[k];
  return static_cast<float>((acc0 + acc1) + (acc2 + acc3));
}

int32_t DotI8(const int8_t* a, const int8_t* b, size_t n) {
  int32_t acc = 0;
  for (size_t k = 0; k < n; ++k) {
    acc += static_cast<int32_t>(a[k]) * static_cast<int32_t>(b[k]);
  }
  return acc;
}

void DotBatchI8(const int8_t* q, const int8_t* rows, size_t m, size_t d,
                int32_t* out) {
  for (size_t r = 0; r < m; ++r) out[r] = DotI8(q, rows + r * d, d);
}

}  // namespace ref

namespace {

// Shared quantization encoder: max_abs -> scale + codes. Both the
// reference and the degenerate branches of the SIMD kernel route here,
// so the two stay bitwise aligned by construction. The main branch
// (nearbyintf(x * inv)) is also exactly what the packed CVTPS2DQ form
// computes: one IEEE float multiply, then round-to-nearest-even.
float QuantizeCodes(const float* x, size_t n, float max_abs, int8_t* out) {
  if (!(max_abs > 0.0f)) {
    std::fill(out, out + n, static_cast<int8_t>(0));
    return 0.0f;
  }
  const float inv = 127.0f / max_abs;
  if (!std::isfinite(inv)) {
    // Denormal max_abs overflows the reciprocal; divide instead
    // (|x / max_abs| <= 1, so the codes stay in range).
    for (size_t k = 0; k < n; ++k) {
      const float r = std::nearbyintf((x[k] / max_abs) * 127.0f);
      out[k] = static_cast<int8_t>(std::min(127.0f, std::max(-127.0f, r)));
    }
    return max_abs / 127.0f;
  }
  for (size_t k = 0; k < n; ++k) {
    const float r = std::nearbyintf(x[k] * inv);
    out[k] = static_cast<int8_t>(std::min(127.0f, std::max(-127.0f, r)));
  }
  return max_abs / 127.0f;
}

float MaxAbsScalar(const float* x, size_t n) {
  float m = 0.0f;
  for (size_t k = 0; k < n; ++k) m = std::max(m, std::fabs(x[k]));
  return m;
}

#if BSLREC_VEC_X86
// Horizontal sum of four int32 lanes (exact: integer adds).
inline int32_t HSumEpi32(__m128i v) {
  v = _mm_add_epi32(v, _mm_shuffle_epi32(v, _MM_SHUFFLE(1, 0, 3, 2)));
  v = _mm_add_epi32(v, _mm_shuffle_epi32(v, _MM_SHUFFLE(2, 3, 0, 1)));
  return _mm_cvtsi128_si32(v);
}

BSLREC_AVX2 inline int32_t HSumEpi32(__m256i v) {
  return HSumEpi32(
      _mm_add_epi32(_mm256_castsi256_si128(v), _mm256_extracti128_si256(v, 1)));
}

// 16 int8 codes sign-extended to 16 int16 lanes.
BSLREC_AVX2 inline __m256i LoadI8AsI16(const int8_t* x) {
  return _mm256_cvtepi8_epi16(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(x)));
}

// 16 int16 lanes (widened codes) times b's 16 codes, multiply-
// accumulated into 8 int32 lanes. Products are <= 127^2, so MADD's
// pairwise int32 sums and the running accumulator are overflow-free for
// any realistic dim.
BSLREC_AVX2 inline __m256i MaddI8(__m256i acc, __m256i a16,
                                  const int8_t* b) {
  return _mm256_add_epi32(acc, _mm256_madd_epi16(a16, LoadI8AsI16(b)));
}
#endif

}  // namespace

#if BSLREC_VEC_X86
namespace sse2 {

float Dot(const float* a, const float* b, size_t n) {
  // The reference's four lanes split across two 128-bit registers.
  __m128d acc01 = _mm_setzero_pd();
  __m128d acc23 = _mm_setzero_pd();
  size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    const __m128 va = _mm_loadu_ps(a + k);
    const __m128 vb = _mm_loadu_ps(b + k);
    acc01 = _mm_add_pd(acc01, _mm_mul_pd(_mm_cvtps_pd(va), _mm_cvtps_pd(vb)));
    acc23 = _mm_add_pd(acc23, _mm_mul_pd(_mm_cvtps_pd(_mm_movehl_ps(va, va)),
                                         _mm_cvtps_pd(_mm_movehl_ps(vb, vb))));
  }
  alignas(16) double lane01[2], lane23[2];
  _mm_store_pd(lane01, acc01);
  _mm_store_pd(lane23, acc23);
  double acc0 = lane01[0];
  for (; k < n; ++k) acc0 += static_cast<double>(a[k]) * b[k];
  return static_cast<float>((acc0 + lane01[1]) + (lane23[0] + lane23[1]));
}

int32_t DotI8(const int8_t* a, const int8_t* b, size_t n) {
  const __m128i zero = _mm_setzero_si128();
  __m128i acc = zero;
  size_t k = 0;
  for (; k + 16 <= n; k += 16) {
    const __m128i va =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + k));
    const __m128i vb =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + k));
    // SSE2 has no 8->16 sign-extend; widen via sign-mask unpack.
    const __m128i sa = _mm_cmpgt_epi8(zero, va);
    const __m128i sb = _mm_cmpgt_epi8(zero, vb);
    acc = _mm_add_epi32(acc, _mm_madd_epi16(_mm_unpacklo_epi8(va, sa),
                                            _mm_unpacklo_epi8(vb, sb)));
    acc = _mm_add_epi32(acc, _mm_madd_epi16(_mm_unpackhi_epi8(va, sa),
                                            _mm_unpackhi_epi8(vb, sb)));
  }
  int32_t sum = HSumEpi32(acc);
  for (; k < n; ++k) {
    sum += static_cast<int32_t>(a[k]) * static_cast<int32_t>(b[k]);
  }
  return sum;
}

void DotBatchI8(const int8_t* q, const int8_t* rows, size_t m, size_t d,
                int32_t* out) {
  for (size_t r = 0; r < m; ++r) out[r] = DotI8(q, rows + r * d, d);
}

}  // namespace sse2

namespace avx2 {

BSLREC_AVX2 float Dot(const float* a, const float* b, size_t n) {
  // Four double lanes in one 256-bit register: lane j holds exactly the
  // reference's acc_j (float*float widened to double is exact, so the
  // packed multiply-add performs the same sequence of IEEE double adds).
  __m256d acc = _mm256_setzero_pd();
  size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    const __m256d da = _mm256_cvtps_pd(_mm_loadu_ps(a + k));
    const __m256d db = _mm256_cvtps_pd(_mm_loadu_ps(b + k));
    acc = _mm256_add_pd(acc, _mm256_mul_pd(da, db));
  }
  alignas(32) double lane[4];
  _mm256_store_pd(lane, acc);
  double acc0 = lane[0];
  for (; k < n; ++k) acc0 += static_cast<double>(a[k]) * b[k];
  return static_cast<float>((acc0 + lane[1]) + (lane[2] + lane[3]));
}

BSLREC_AVX2 int32_t DotI8(const int8_t* a, const int8_t* b, size_t n) {
  __m256i acc = _mm256_setzero_si256();
  size_t k = 0;
  for (; k + 16 <= n; k += 16) acc = MaddI8(acc, LoadI8AsI16(a + k), b + k);
  int32_t sum = HSumEpi32(acc);
  for (; k < n; ++k) {
    sum += static_cast<int32_t>(a[k]) * static_cast<int32_t>(b[k]);
  }
  return sum;
}

BSLREC_AVX2 void DotBatchI8(const int8_t* q, const int8_t* rows, size_t m,
                            size_t d, int32_t* out) {
  // Four-row blocking: the widened query block is loaded once and
  // multiply-accumulated against four item rows, quartering the query
  // traffic of the per-row form. Integer adds are associative, so the
  // blocking cannot change any result.
  size_t r = 0;
  for (; r + 4 <= m; r += 4) {
    const int8_t* r0 = rows + (r + 0) * d;
    const int8_t* r1 = rows + (r + 1) * d;
    const int8_t* r2 = rows + (r + 2) * d;
    const int8_t* r3 = rows + (r + 3) * d;
    __m256i acc0 = _mm256_setzero_si256();
    __m256i acc1 = _mm256_setzero_si256();
    __m256i acc2 = _mm256_setzero_si256();
    __m256i acc3 = _mm256_setzero_si256();
    size_t k = 0;
    for (; k + 16 <= d; k += 16) {
      const __m256i q16 = LoadI8AsI16(q + k);
      acc0 = MaddI8(acc0, q16, r0 + k);
      acc1 = MaddI8(acc1, q16, r1 + k);
      acc2 = MaddI8(acc2, q16, r2 + k);
      acc3 = MaddI8(acc3, q16, r3 + k);
    }
    int32_t s0 = HSumEpi32(acc0), s1 = HSumEpi32(acc1);
    int32_t s2 = HSumEpi32(acc2), s3 = HSumEpi32(acc3);
    for (; k < d; ++k) {
      const int32_t qk = q[k];
      s0 += qk * r0[k];
      s1 += qk * r1[k];
      s2 += qk * r2[k];
      s3 += qk * r3[k];
    }
    out[r + 0] = s0;
    out[r + 1] = s1;
    out[r + 2] = s2;
    out[r + 3] = s3;
  }
  for (; r < m; ++r) out[r] = DotI8(q, rows + r * d, d);
}

}  // namespace avx2
#endif

float Dot(const float* a, const float* b, size_t n) {
#if BSLREC_VEC_X86
  return RunAvx2() ? avx2::Dot(a, b, n) : sse2::Dot(a, b, n);
#else
  return ref::Dot(a, b, n);
#endif
}

int32_t DotI8(const int8_t* a, const int8_t* b, size_t n) {
#if BSLREC_VEC_X86
  return RunAvx2() ? avx2::DotI8(a, b, n) : sse2::DotI8(a, b, n);
#else
  return ref::DotI8(a, b, n);
#endif
}

void DotBatchI8(const int8_t* q, const int8_t* rows, size_t m, size_t d,
                int32_t* out) {
#if BSLREC_VEC_X86
  if (RunAvx2()) {
    avx2::DotBatchI8(q, rows, m, d, out);
  } else {
    sse2::DotBatchI8(q, rows, m, d, out);
  }
#else
  ref::DotBatchI8(q, rows, m, d, out);
#endif
}

namespace ref {
float QuantizeRow(const float* x, size_t n, int8_t* out) {
  return QuantizeCodes(x, n, MaxAbsScalar(x, n), out);
}
}  // namespace ref

float QuantizeRow(const float* x, size_t n, int8_t* out) {
#if BSLREC_VEC_X86
  // Max-abs reduction (order-invariant: abs and max are exact).
  const __m128 abs_mask = _mm_castsi128_ps(_mm_set1_epi32(0x7fffffff));
  __m128 vmax = _mm_setzero_ps();
  size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    vmax = _mm_max_ps(vmax, _mm_and_ps(abs_mask, _mm_loadu_ps(x + k)));
  }
  alignas(16) float lane[4];
  _mm_store_ps(lane, vmax);
  float max_abs = std::max(std::max(lane[0], lane[1]),
                           std::max(lane[2], lane[3]));
  for (; k < n; ++k) max_abs = std::max(max_abs, std::fabs(x[k]));

  const float inv = max_abs > 0.0f ? 127.0f / max_abs : 0.0f;
  if (!(max_abs > 0.0f) || !std::isfinite(inv)) {
    return QuantizeCodes(x, n, max_abs, out);  // degenerate rows: scalar
  }
  // Encode 8 floats per iteration: multiply, CVTPS2DQ (round-to-nearest
  // -even, same as nearbyintf under the default FP environment), then
  // narrow 32->16->8 with saturating packs. |x*inv| <= 127*(1 + 2^-22)
  // < 127.5, so neither the rounding nor the packs ever saturate and
  // every code lands in [-127, 127] — bitwise equal to the scalar form.
  const __m128 vinv = _mm_set1_ps(inv);
  k = 0;
  for (; k + 8 <= n; k += 8) {
    const __m128i i0 = _mm_cvtps_epi32(_mm_mul_ps(_mm_loadu_ps(x + k), vinv));
    const __m128i i1 =
        _mm_cvtps_epi32(_mm_mul_ps(_mm_loadu_ps(x + k + 4), vinv));
    const __m128i p8 = _mm_packs_epi16(_mm_packs_epi32(i0, i1),
                                       _mm_setzero_si128());
    _mm_storel_epi64(reinterpret_cast<__m128i*>(out + k), p8);
  }
  for (; k < n; ++k) {
    const float r = std::nearbyintf(x[k] * inv);
    out[k] = static_cast<int8_t>(std::min(127.0f, std::max(-127.0f, r)));
  }
  return max_abs / 127.0f;
#else
  return ref::QuantizeRow(x, n, out);
#endif
}

double L1Norm(const float* x, size_t n) {
  double acc0 = 0.0, acc1 = 0.0, acc2 = 0.0, acc3 = 0.0;
  size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    acc0 += std::fabs(static_cast<double>(x[k + 0]));
    acc1 += std::fabs(static_cast<double>(x[k + 1]));
    acc2 += std::fabs(static_cast<double>(x[k + 2]));
    acc3 += std::fabs(static_cast<double>(x[k + 3]));
  }
  for (; k < n; ++k) acc0 += std::fabs(static_cast<double>(x[k]));
  return (acc0 + acc1) + (acc2 + acc3);
}

void Axpy(float alpha, const float* x, float* y, size_t n) {
  size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    y[k + 0] += alpha * x[k + 0];
    y[k + 1] += alpha * x[k + 1];
    y[k + 2] += alpha * x[k + 2];
    y[k + 3] += alpha * x[k + 3];
  }
  for (; k < n; ++k) y[k] += alpha * x[k];
}

void Scale(float* x, size_t n, float alpha) {
  for (size_t k = 0; k < n; ++k) x[k] *= alpha;
}

float Norm(const float* x, size_t n) {
  return std::sqrt(std::max(0.0f, Dot(x, x, n)));
}

float Normalize(const float* x, float* out, size_t n, float eps) {
  const float norm = Norm(x, n);
  const float inv = 1.0f / std::max(norm, eps);
  size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    out[k + 0] = x[k + 0] * inv;
    out[k + 1] = x[k + 1] * inv;
    out[k + 2] = x[k + 2] * inv;
    out[k + 3] = x[k + 3] * inv;
  }
  for (; k < n; ++k) out[k] = x[k] * inv;
  return norm;
}

float Cosine(const float* a, const float* b, size_t n) {
  const float na = Norm(a, n);
  const float nb = Norm(b, n);
  if (na <= 0.0f || nb <= 0.0f) return 0.0f;
  return Dot(a, b, n) / (na * nb);
}

void Sub(const float* a, const float* b, float* out, size_t n) {
  for (size_t k = 0; k < n; ++k) out[k] = a[k] - b[k];
}

void Add(const float* a, const float* b, float* out, size_t n) {
  for (size_t k = 0; k < n; ++k) out[k] = a[k] + b[k];
}

void Fill(float* x, size_t n, float v) {
  std::fill(x, x + n, v);
}

float SquaredDistance(const float* a, const float* b, size_t n) {
  double acc0 = 0.0, acc1 = 0.0, acc2 = 0.0, acc3 = 0.0;
  size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    const double d0 = static_cast<double>(a[k + 0]) - b[k + 0];
    const double d1 = static_cast<double>(a[k + 1]) - b[k + 1];
    const double d2 = static_cast<double>(a[k + 2]) - b[k + 2];
    const double d3 = static_cast<double>(a[k + 3]) - b[k + 3];
    acc0 += d0 * d0;
    acc1 += d1 * d1;
    acc2 += d2 * d2;
    acc3 += d3 * d3;
  }
  for (; k < n; ++k) {
    const double d = static_cast<double>(a[k]) - b[k];
    acc0 += d * d;
  }
  return static_cast<float>((acc0 + acc1) + (acc2 + acc3));
}

void DotBatch(const float* q, const float* rows, size_t m, size_t d,
              float* out) {
  // Two regimes, picked by row length (measured on GCC -O3 x86-64):
  //  * Long rows vectorize best as the plain four-lane Dot loop — the
  //    autovectorizer handles one row's reduction well, and pairing rows
  //    only starves it of registers. Delegate per row.
  //  * Short rows are dominated by loop setup and query reloads; pairing
  //    two rows amortizes both (~1.2x at d=16).
  // Either way each row keeps Dot's exact four-lane summation tree, so
  // out[r] == Dot(q, row r, d) bitwise — callers may mix the kernels.
  if (d >= 32) {
    for (size_t r = 0; r < m; ++r) out[r] = Dot(q, rows + r * d, d);
    return;
  }
  size_t r = 0;
  for (; r + 2 <= m; r += 2) {
    const float* a = rows + r * d;
    const float* b = a + d;
    double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
    double b0 = 0.0, b1 = 0.0, b2 = 0.0, b3 = 0.0;
    size_t k = 0;
    for (; k + 4 <= d; k += 4) {
      const double q0 = q[k + 0], q1 = q[k + 1];
      const double q2 = q[k + 2], q3 = q[k + 3];
      a0 += q0 * a[k + 0];
      a1 += q1 * a[k + 1];
      a2 += q2 * a[k + 2];
      a3 += q3 * a[k + 3];
      b0 += q0 * b[k + 0];
      b1 += q1 * b[k + 1];
      b2 += q2 * b[k + 2];
      b3 += q3 * b[k + 3];
    }
    for (; k < d; ++k) {
      a0 += static_cast<double>(q[k]) * a[k];
      b0 += static_cast<double>(q[k]) * b[k];
    }
    out[r + 0] = static_cast<float>((a0 + a1) + (a2 + a3));
    out[r + 1] = static_cast<float>((b0 + b1) + (b2 + b3));
  }
  for (; r < m; ++r) out[r] = Dot(q, rows + r * d, d);
}

void GatherNormalize(const float* table, size_t stride, const uint32_t* ids,
                     size_t m, size_t d, float* out_rows, float* out_norms) {
  for (size_t r = 0; r < m; ++r) {
    out_norms[r] = Normalize(table + static_cast<size_t>(ids[r]) * stride,
                             out_rows + r * d, d);
  }
}

void AccumulateCosineGrad(const float* u_hat, const float* i_hat, float score,
                          float u_norm, float coeff, float* grad_u, size_t n) {
  // d cos / d u = (i_hat - score * u_hat) / ||u||.
  const float inv = CosineGradScale(coeff, u_norm);
  size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    grad_u[k + 0] += inv * (i_hat[k + 0] - score * u_hat[k + 0]);
    grad_u[k + 1] += inv * (i_hat[k + 1] - score * u_hat[k + 1]);
    grad_u[k + 2] += inv * (i_hat[k + 2] - score * u_hat[k + 2]);
    grad_u[k + 3] += inv * (i_hat[k + 3] - score * u_hat[k + 3]);
  }
  for (; k < n; ++k) {
    grad_u[k] += inv * (i_hat[k] - score * u_hat[k]);
  }
}

namespace ref {

void AccumulateCosineGradRun(const float* self_hat, const float* others,
                             size_t stride, const uint32_t* idx,
                             const float* scores, const float* scales,
                             size_t m, float* grad, size_t n) {
  for (size_t j = 0; j < m; ++j) {
    const float* x = others + static_cast<size_t>(idx[j]) * stride;
    for (size_t k = 0; k < n; ++k) {
      grad[k] += scales[j] * (x[k] - scores[j] * self_hat[k]);
    }
  }
}

void DotTile(const double* q, size_t m, const double* rows, size_t n,
             size_t d, float* out, size_t out_stride) {
  for (size_t i = 0; i < m; ++i) {
    const double* a = q + i * d;
    for (size_t j = 0; j < n; ++j) {
      const double* b = rows + j * d;
      double acc0 = 0.0, acc1 = 0.0, acc2 = 0.0, acc3 = 0.0;
      size_t k = 0;
      for (; k + 4 <= d; k += 4) {
        acc0 += a[k + 0] * b[k + 0];
        acc1 += a[k + 1] * b[k + 1];
        acc2 += a[k + 2] * b[k + 2];
        acc3 += a[k + 3] * b[k + 3];
      }
      for (; k < d; ++k) acc0 += a[k] * b[k];
      out[i * out_stride + j] =
          static_cast<float>((acc0 + acc1) + (acc2 + acc3));
    }
  }
}

void WeightedRowSum(const float* values, const uint32_t* idx, size_t m,
                    const float* x, size_t stride, float* out, size_t n) {
  Fill(out, n, 0.0f);
  for (size_t j = 0; j < m; ++j) {
    Axpy(values[j], x + static_cast<size_t>(idx[j]) * stride, out, n);
  }
}

}  // namespace ref

void Widen(const float* x, size_t n, double* out) {
  for (size_t k = 0; k < n; ++k) out[k] = static_cast<double>(x[k]);
}

#if BSLREC_VEC_X86
namespace {

// One cosine-gradient term on four elements: acc + scale * (x - score * y),
// AccumulateCosineGrad's expression operation for operation.
inline __m128 CosineGradTerm(__m128 acc, __m128 scale, __m128 score,
                             const float* x, __m128 y) {
  const __m128 diff = _mm_sub_ps(_mm_loadu_ps(x), _mm_mul_ps(score, y));
  return _mm_add_ps(acc, _mm_mul_ps(scale, diff));
}

// The same term on eight elements.
BSLREC_AVX2 inline __m256 CosineGradTerm(__m256 acc, __m256 scale,
                                         __m256 score, const float* x,
                                         __m256 y) {
  const __m256 diff =
      _mm256_sub_ps(_mm256_loadu_ps(x), _mm256_mul_ps(score, y));
  return _mm256_add_ps(acc, _mm256_mul_ps(scale, diff));
}

// One MQ x NR block of the SSE2 DotTile: every (query, row) pair keeps
// Dot's four double lanes, lanes 0-1 in lo[][] and 2-3 in hi[][]. A
// 2 x 2 block holds 8 accumulators plus 6 operands, within SSE2's 16
// registers.
template <size_t MQ, size_t NR>
inline void DotTileBlock(const double* q, const double* rows, size_t d,
                         float* out, size_t out_stride) {
  __m128d lo[MQ][NR], hi[MQ][NR];
  for (size_t i = 0; i < MQ; ++i) {
    for (size_t j = 0; j < NR; ++j) {
      lo[i][j] = _mm_setzero_pd();
      hi[i][j] = _mm_setzero_pd();
    }
  }
  size_t k = 0;
  for (; k + 4 <= d; k += 4) {
    __m128d r01[NR], r23[NR];
    for (size_t j = 0; j < NR; ++j) {
      r01[j] = _mm_loadu_pd(rows + j * d + k);
      r23[j] = _mm_loadu_pd(rows + j * d + k + 2);
    }
    for (size_t i = 0; i < MQ; ++i) {
      const __m128d q01 = _mm_loadu_pd(q + i * d + k);
      const __m128d q23 = _mm_loadu_pd(q + i * d + k + 2);
      for (size_t j = 0; j < NR; ++j) {
        lo[i][j] = _mm_add_pd(lo[i][j], _mm_mul_pd(q01, r01[j]));
        hi[i][j] = _mm_add_pd(hi[i][j], _mm_mul_pd(q23, r23[j]));
      }
    }
  }
  for (size_t i = 0; i < MQ; ++i) {
    for (size_t j = 0; j < NR; ++j) {
      alignas(16) double l01[2], l23[2];
      _mm_store_pd(l01, lo[i][j]);
      _mm_store_pd(l23, hi[i][j]);
      double acc0 = l01[0];
      for (size_t t = k; t < d; ++t) acc0 += q[i * d + t] * rows[j * d + t];
      out[i * out_stride + j] =
          static_cast<float>((acc0 + l01[1]) + (l23[0] + l23[1]));
    }
  }
}

// One MQ x NR block (NR <= 4) of the AVX2 DotTile. acc[i][j] holds the
// four double lanes of pair (query i, row j); at MQ = 3, NR = 4 the main
// loop keeps 12 accumulators and 4 operands in AVX2's 16 registers (the
// compiler folds the other row loads into the multiplies). At the end a
// 4 x 4 transpose turns query i's four pair registers into lane
// registers (lane c holds lane c of all four pairs, missing pairs
// zero), the d % 4 tail goes into lane 0 term by term, and the lanes
// combine as (0+1)+(2+3) with vertical adds: the four entries come out
// as adjacent floats, with no horizontal sum per pair.
template <size_t MQ, size_t NR>
BSLREC_AVX2 inline void DotTileBlock256(const double* q, const double* rows,
                                        size_t d, float* out,
                                        size_t out_stride) {
  __m256d acc[MQ][4];
  for (size_t i = 0; i < MQ; ++i) {
    for (size_t j = 0; j < 4; ++j) acc[i][j] = _mm256_setzero_pd();
  }
  size_t k = 0;
  for (; k + 4 <= d; k += 4) {
    __m256d r[NR];
    for (size_t j = 0; j < NR; ++j) r[j] = _mm256_loadu_pd(rows + j * d + k);
    for (size_t i = 0; i < MQ; ++i) {
      const __m256d qv = _mm256_loadu_pd(q + i * d + k);
      for (size_t j = 0; j < NR; ++j) {
        acc[i][j] = _mm256_add_pd(acc[i][j], _mm256_mul_pd(qv, r[j]));
      }
    }
  }
  for (size_t i = 0; i < MQ; ++i) {
    const __m256d t0 = _mm256_unpacklo_pd(acc[i][0], acc[i][1]);
    const __m256d t1 = _mm256_unpackhi_pd(acc[i][0], acc[i][1]);
    const __m256d t2 = _mm256_unpacklo_pd(acc[i][2], acc[i][3]);
    const __m256d t3 = _mm256_unpackhi_pd(acc[i][2], acc[i][3]);
    __m256d lane0 = _mm256_permute2f128_pd(t0, t2, 0x20);
    const __m256d lane1 = _mm256_permute2f128_pd(t1, t3, 0x20);
    const __m256d lane2 = _mm256_permute2f128_pd(t0, t2, 0x31);
    const __m256d lane3 = _mm256_permute2f128_pd(t1, t3, 0x31);
    for (size_t t = k; t < d; ++t) {
      alignas(32) double col[4] = {0.0, 0.0, 0.0, 0.0};
      for (size_t j = 0; j < NR; ++j) col[j] = rows[j * d + t];
      lane0 = _mm256_add_pd(lane0, _mm256_mul_pd(_mm256_set1_pd(q[i * d + t]),
                                                 _mm256_load_pd(col)));
    }
    const __m128 sums = _mm256_cvtpd_ps(_mm256_add_pd(
        _mm256_add_pd(lane0, lane1), _mm256_add_pd(lane2, lane3)));
    float* o = out + i * out_stride;
    if constexpr (NR == 4) {
      _mm_storeu_ps(o, sums);
    } else {
      alignas(16) float s[4];
      _mm_store_ps(s, sums);
      for (size_t j = 0; j < NR; ++j) o[j] = s[j];
    }
  }
}

// The AVX2 DotTile's blocks for MQ queries against rows [c0, c1): four
// rows per block, then the last c1 - c0 rows mod 4.
template <size_t MQ>
BSLREC_AVX2 inline void DotTileRows256(const double* q, const double* rows,
                                       size_t c0, size_t c1, size_t d,
                                       float* out, size_t out_stride) {
  size_t j = c0;
  for (; j + 4 <= c1; j += 4) {
    DotTileBlock256<MQ, 4>(q, rows + j * d, d, out + j, out_stride);
  }
  switch (c1 - j) {
    case 3:
      DotTileBlock256<MQ, 3>(q, rows + j * d, d, out + j, out_stride);
      break;
    case 2:
      DotTileBlock256<MQ, 2>(q, rows + j * d, d, out + j, out_stride);
      break;
    case 1:
      DotTileBlock256<MQ, 1>(q, rows + j * d, d, out + j, out_stride);
      break;
    default:
      break;
  }
}

// Rows go through DotTile in chunks small enough (kDotTileChunk rows of
// d doubles) to stay in L1 while every query block passes over them.
constexpr size_t kDotTileChunk = 32;

}  // namespace

namespace sse2 {

void AccumulateCosineGradRun(const float* self_hat, const float* others,
                             size_t stride, const uint32_t* idx,
                             const float* scores, const float* scales,
                             size_t m, float* grad, size_t n) {
  // Element k sees the reference's operations in the reference's term
  // order; the blocks only decide which elements share registers.
  size_t k = 0;
  for (; k + 16 <= n; k += 16) {
    __m128 a0 = _mm_loadu_ps(grad + k + 0);
    __m128 a1 = _mm_loadu_ps(grad + k + 4);
    __m128 a2 = _mm_loadu_ps(grad + k + 8);
    __m128 a3 = _mm_loadu_ps(grad + k + 12);
    const __m128 y0 = _mm_loadu_ps(self_hat + k + 0);
    const __m128 y1 = _mm_loadu_ps(self_hat + k + 4);
    const __m128 y2 = _mm_loadu_ps(self_hat + k + 8);
    const __m128 y3 = _mm_loadu_ps(self_hat + k + 12);
    for (size_t j = 0; j < m; ++j) {
      const float* x = others + static_cast<size_t>(idx[j]) * stride + k;
      const __m128 sc = _mm_set1_ps(scores[j]);
      const __m128 sl = _mm_set1_ps(scales[j]);
      a0 = CosineGradTerm(a0, sl, sc, x + 0, y0);
      a1 = CosineGradTerm(a1, sl, sc, x + 4, y1);
      a2 = CosineGradTerm(a2, sl, sc, x + 8, y2);
      a3 = CosineGradTerm(a3, sl, sc, x + 12, y3);
    }
    _mm_storeu_ps(grad + k + 0, a0);
    _mm_storeu_ps(grad + k + 4, a1);
    _mm_storeu_ps(grad + k + 8, a2);
    _mm_storeu_ps(grad + k + 12, a3);
  }
  for (; k + 4 <= n; k += 4) {
    __m128 a = _mm_loadu_ps(grad + k);
    const __m128 y = _mm_loadu_ps(self_hat + k);
    for (size_t j = 0; j < m; ++j) {
      const float* x = others + static_cast<size_t>(idx[j]) * stride + k;
      const __m128 sc = _mm_set1_ps(scores[j]);
      const __m128 sl = _mm_set1_ps(scales[j]);
      a = CosineGradTerm(a, sl, sc, x, y);
    }
    _mm_storeu_ps(grad + k, a);
  }
  if (k < n) {
    // The last n % 4 elements: the reference on a column slice.
    ref::AccumulateCosineGradRun(self_hat + k, others + k, stride, idx,
                                 scores, scales, m, grad + k, n - k);
  }
}

void DotTile(const double* q, size_t m, const double* rows, size_t n,
             size_t d, float* out, size_t out_stride) {
  for (size_t c0 = 0; c0 < n; c0 += kDotTileChunk) {
    const size_t c1 = std::min(n, c0 + kDotTileChunk);
    size_t i = 0;
    for (; i + 2 <= m; i += 2) {
      const double* qi = q + i * d;
      float* oi = out + i * out_stride;
      size_t j = c0;
      for (; j + 2 <= c1; j += 2) {
        DotTileBlock<2, 2>(qi, rows + j * d, d, oi + j, out_stride);
      }
      if (j < c1) DotTileBlock<2, 1>(qi, rows + j * d, d, oi + j, out_stride);
    }
    if (i < m) {
      const double* qi = q + i * d;
      float* oi = out + i * out_stride;
      size_t j = c0;
      for (; j + 2 <= c1; j += 2) {
        DotTileBlock<1, 2>(qi, rows + j * d, d, oi + j, out_stride);
      }
      if (j < c1) DotTileBlock<1, 1>(qi, rows + j * d, d, oi + j, out_stride);
    }
  }
}

void WeightedRowSum(const float* values, const uint32_t* idx, size_t m,
                    const float* x, size_t stride, float* out, size_t n) {
  // Per element: +0.0f, then each term added in order, as the reference
  // does; a block of 16 elements stays in four registers for the row.
  size_t k = 0;
  for (; k + 16 <= n; k += 16) {
    __m128 a0 = _mm_setzero_ps(), a1 = _mm_setzero_ps();
    __m128 a2 = _mm_setzero_ps(), a3 = _mm_setzero_ps();
    for (size_t j = 0; j < m; ++j) {
      const float* xj = x + static_cast<size_t>(idx[j]) * stride + k;
      const __m128 v = _mm_set1_ps(values[j]);
      a0 = _mm_add_ps(a0, _mm_mul_ps(v, _mm_loadu_ps(xj + 0)));
      a1 = _mm_add_ps(a1, _mm_mul_ps(v, _mm_loadu_ps(xj + 4)));
      a2 = _mm_add_ps(a2, _mm_mul_ps(v, _mm_loadu_ps(xj + 8)));
      a3 = _mm_add_ps(a3, _mm_mul_ps(v, _mm_loadu_ps(xj + 12)));
    }
    _mm_storeu_ps(out + k + 0, a0);
    _mm_storeu_ps(out + k + 4, a1);
    _mm_storeu_ps(out + k + 8, a2);
    _mm_storeu_ps(out + k + 12, a3);
  }
  for (; k + 4 <= n; k += 4) {
    __m128 a = _mm_setzero_ps();
    for (size_t j = 0; j < m; ++j) {
      const float* xj = x + static_cast<size_t>(idx[j]) * stride + k;
      a = _mm_add_ps(a, _mm_mul_ps(_mm_set1_ps(values[j]), _mm_loadu_ps(xj)));
    }
    _mm_storeu_ps(out + k, a);
  }
  if (k < n) {
    // The last n % 4 elements: the reference on a column slice.
    ref::WeightedRowSum(values, idx, m, x + k, stride, out + k, n - k);
  }
}

}  // namespace sse2

namespace avx2 {

BSLREC_AVX2 void AccumulateCosineGradRun(const float* self_hat,
                                         const float* others, size_t stride,
                                         const uint32_t* idx,
                                         const float* scores,
                                         const float* scales, size_t m,
                                         float* grad, size_t n) {
  // The SSE2 form's scheme at eight floats per register: 32 elements in
  // four accumulators across the whole run, then 8 at a time.
  size_t k = 0;
  for (; k + 32 <= n; k += 32) {
    __m256 a0 = _mm256_loadu_ps(grad + k + 0);
    __m256 a1 = _mm256_loadu_ps(grad + k + 8);
    __m256 a2 = _mm256_loadu_ps(grad + k + 16);
    __m256 a3 = _mm256_loadu_ps(grad + k + 24);
    const __m256 y0 = _mm256_loadu_ps(self_hat + k + 0);
    const __m256 y1 = _mm256_loadu_ps(self_hat + k + 8);
    const __m256 y2 = _mm256_loadu_ps(self_hat + k + 16);
    const __m256 y3 = _mm256_loadu_ps(self_hat + k + 24);
    for (size_t j = 0; j < m; ++j) {
      const float* x = others + static_cast<size_t>(idx[j]) * stride + k;
      const __m256 sc = _mm256_set1_ps(scores[j]);
      const __m256 sl = _mm256_set1_ps(scales[j]);
      a0 = CosineGradTerm(a0, sl, sc, x + 0, y0);
      a1 = CosineGradTerm(a1, sl, sc, x + 8, y1);
      a2 = CosineGradTerm(a2, sl, sc, x + 16, y2);
      a3 = CosineGradTerm(a3, sl, sc, x + 24, y3);
    }
    _mm256_storeu_ps(grad + k + 0, a0);
    _mm256_storeu_ps(grad + k + 8, a1);
    _mm256_storeu_ps(grad + k + 16, a2);
    _mm256_storeu_ps(grad + k + 24, a3);
  }
  for (; k + 8 <= n; k += 8) {
    __m256 a = _mm256_loadu_ps(grad + k);
    const __m256 y = _mm256_loadu_ps(self_hat + k);
    for (size_t j = 0; j < m; ++j) {
      const float* x = others + static_cast<size_t>(idx[j]) * stride + k;
      a = CosineGradTerm(a, _mm256_set1_ps(scales[j]),
                         _mm256_set1_ps(scores[j]), x, y);
    }
    _mm256_storeu_ps(grad + k, a);
  }
  if (k < n) {
    // The last n % 8 elements: the SSE2 form on a column slice.
    sse2::AccumulateCosineGradRun(self_hat + k, others + k, stride, idx,
                                  scores, scales, m, grad + k, n - k);
  }
}

BSLREC_AVX2 void DotTile(const double* q, size_t m, const double* rows,
                         size_t n, size_t d, float* out, size_t out_stride) {
  for (size_t c0 = 0; c0 < n; c0 += kDotTileChunk) {
    const size_t c1 = std::min(n, c0 + kDotTileChunk);
    // Blocks of three queries (12 accumulators and 4 operands); a
    // remainder of one query splits the last four into two pairs.
    size_t i = 0;
    for (; i + 3 <= m && m - i != 4; i += 3) {
      DotTileRows256<3>(q + i * d, rows, c0, c1, d, out + i * out_stride,
                        out_stride);
    }
    for (; i + 2 <= m; i += 2) {
      DotTileRows256<2>(q + i * d, rows, c0, c1, d, out + i * out_stride,
                        out_stride);
    }
    if (i < m) {
      DotTileRows256<1>(q + i * d, rows, c0, c1, d, out + i * out_stride,
                        out_stride);
    }
  }
}

BSLREC_AVX2 void WeightedRowSum(const float* values, const uint32_t* idx,
                                size_t m, const float* x, size_t stride,
                                float* out, size_t n) {
  // The SSE2 form's scheme at eight floats per register: 32 elements in
  // four accumulators across the row's terms, then 8 at a time.
  size_t k = 0;
  for (; k + 32 <= n; k += 32) {
    __m256 a0 = _mm256_setzero_ps(), a1 = _mm256_setzero_ps();
    __m256 a2 = _mm256_setzero_ps(), a3 = _mm256_setzero_ps();
    for (size_t j = 0; j < m; ++j) {
      const float* xj = x + static_cast<size_t>(idx[j]) * stride + k;
      const __m256 v = _mm256_set1_ps(values[j]);
      a0 = _mm256_add_ps(a0, _mm256_mul_ps(v, _mm256_loadu_ps(xj + 0)));
      a1 = _mm256_add_ps(a1, _mm256_mul_ps(v, _mm256_loadu_ps(xj + 8)));
      a2 = _mm256_add_ps(a2, _mm256_mul_ps(v, _mm256_loadu_ps(xj + 16)));
      a3 = _mm256_add_ps(a3, _mm256_mul_ps(v, _mm256_loadu_ps(xj + 24)));
    }
    _mm256_storeu_ps(out + k + 0, a0);
    _mm256_storeu_ps(out + k + 8, a1);
    _mm256_storeu_ps(out + k + 16, a2);
    _mm256_storeu_ps(out + k + 24, a3);
  }
  for (; k + 8 <= n; k += 8) {
    __m256 a = _mm256_setzero_ps();
    for (size_t j = 0; j < m; ++j) {
      const float* xj = x + static_cast<size_t>(idx[j]) * stride + k;
      a = _mm256_add_ps(
          a, _mm256_mul_ps(_mm256_set1_ps(values[j]), _mm256_loadu_ps(xj)));
    }
    _mm256_storeu_ps(out + k, a);
  }
  if (k < n) {
    // The last n % 8 elements: the SSE2 form on a column slice.
    sse2::WeightedRowSum(values, idx, m, x + k, stride, out + k, n - k);
  }
}

}  // namespace avx2
#endif

void AccumulateCosineGradRun(const float* self_hat, const float* others,
                             size_t stride, const uint32_t* idx,
                             const float* scores, const float* scales,
                             size_t m, float* grad, size_t n) {
#if BSLREC_VEC_X86
  if (RunAvx2()) {
    avx2::AccumulateCosineGradRun(self_hat, others, stride, idx, scores,
                                  scales, m, grad, n);
  } else {
    sse2::AccumulateCosineGradRun(self_hat, others, stride, idx, scores,
                                  scales, m, grad, n);
  }
#else
  ref::AccumulateCosineGradRun(self_hat, others, stride, idx, scores, scales,
                               m, grad, n);
#endif
}

void DotTile(const double* q, size_t m, const double* rows, size_t n,
             size_t d, float* out, size_t out_stride) {
#if BSLREC_VEC_X86
  if (RunAvx2()) {
    avx2::DotTile(q, m, rows, n, d, out, out_stride);
  } else {
    sse2::DotTile(q, m, rows, n, d, out, out_stride);
  }
#else
  ref::DotTile(q, m, rows, n, d, out, out_stride);
#endif
}

void WeightedRowSum(const float* values, const uint32_t* idx, size_t m,
                    const float* x, size_t stride, float* out, size_t n) {
#if BSLREC_VEC_X86
  if (RunAvx2()) {
    avx2::WeightedRowSum(values, idx, m, x, stride, out, n);
  } else {
    sse2::WeightedRowSum(values, idx, m, x, stride, out, n);
  }
#else
  ref::WeightedRowSum(values, idx, m, x, stride, out, n);
#endif
}

namespace ref {

// The scalar oracle: the per-element loop AdamOptimizer::Step has always
// run. Keep its expression as it is — AdamStep must match it bit for
// bit, and every recorded Adam trajectory depends on its rounding.
void AdamStep(const AdamCoeffs& c, const float* g, float* w, float* m,
              float* v, size_t n) {
  for (size_t k = 0; k < n; ++k) {
    m[k] = static_cast<float>(c.beta1 * m[k] + (1.0 - c.beta1) * g[k]);
    v[k] = static_cast<float>(c.beta2 * v[k] +
                              (1.0 - c.beta2) * static_cast<double>(g[k]) *
                                  g[k]);
    const double m_hat = m[k] / c.bc1;
    const double v_hat = v[k] / c.bc2;
    w[k] -= static_cast<float>(
        c.lr * (m_hat / (std::sqrt(v_hat) + c.eps) + c.weight_decay * w[k]));
  }
}

}  // namespace ref

void AdamStep(const AdamCoeffs& c, const float* g, float* w, float* m,
              float* v, size_t n) {
#if BSLREC_VEC_X86
  // The reference's expression, two double lanes per register, with the
  // same operations in the same order (see the vec.h contract note).
  const __m128d beta1 = _mm_set1_pd(c.beta1);
  const __m128d one_minus_beta1 = _mm_set1_pd(1.0 - c.beta1);
  const __m128d beta2 = _mm_set1_pd(c.beta2);
  const __m128d one_minus_beta2 = _mm_set1_pd(1.0 - c.beta2);
  const __m128d bc1 = _mm_set1_pd(c.bc1);
  const __m128d bc2 = _mm_set1_pd(c.bc2);
  const __m128d eps = _mm_set1_pd(c.eps);
  const __m128d lr = _mm_set1_pd(c.lr);
  const __m128d wd = _mm_set1_pd(c.weight_decay);
  // Updates the two elements held in the low float lanes of g4..w4:
  // their new m and v, and the step to subtract from w, all narrowed to
  // float in the low lanes.
  struct Lanes {
    __m128 m, v, step;
  };
  const auto two = [&](__m128 g4, __m128 m4, __m128 v4, __m128 w4) {
    const __m128d gd = _mm_cvtps_pd(g4);
    const __m128 m_new =
        _mm_cvtpd_ps(_mm_add_pd(_mm_mul_pd(beta1, _mm_cvtps_pd(m4)),
                                _mm_mul_pd(one_minus_beta1, gd)));
    const __m128 v_new = _mm_cvtpd_ps(
        _mm_add_pd(_mm_mul_pd(beta2, _mm_cvtps_pd(v4)),
                   _mm_mul_pd(_mm_mul_pd(one_minus_beta2, gd), gd)));
    const __m128d m_hat = _mm_div_pd(_mm_cvtps_pd(m_new), bc1);
    const __m128d v_hat = _mm_div_pd(_mm_cvtps_pd(v_new), bc2);
    const __m128d ratio =
        _mm_div_pd(m_hat, _mm_add_pd(_mm_sqrt_pd(v_hat), eps));
    const __m128 step = _mm_cvtpd_ps(
        _mm_mul_pd(lr, _mm_add_pd(ratio, _mm_mul_pd(wd, _mm_cvtps_pd(w4)))));
    return Lanes{m_new, v_new, step};
  };
  size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    const __m128 g4 = _mm_loadu_ps(g + k);
    const __m128 m4 = _mm_loadu_ps(m + k);
    const __m128 v4 = _mm_loadu_ps(v + k);
    const __m128 w4 = _mm_loadu_ps(w + k);
    const Lanes lo = two(g4, m4, v4, w4);
    const Lanes hi = two(_mm_movehl_ps(g4, g4), _mm_movehl_ps(m4, m4),
                         _mm_movehl_ps(v4, v4), _mm_movehl_ps(w4, w4));
    _mm_storeu_ps(m + k, _mm_movelh_ps(lo.m, hi.m));
    _mm_storeu_ps(v + k, _mm_movelh_ps(lo.v, hi.v));
    _mm_storeu_ps(w + k, _mm_sub_ps(w4, _mm_movelh_ps(lo.step, hi.step)));
  }
  ref::AdamStep(c, g + k, w + k, m + k, v + k, n - k);
#else
  ref::AdamStep(c, g, w, m, v, n);
#endif
}

void SgdStep(float lr, float weight_decay, const float* g, float* w,
             size_t n) {
  for (size_t k = 0; k < n; ++k) w[k] -= lr * (g[k] + weight_decay * w[k]);
}

double LogSumExp(const float* x, size_t n) {
  if (n == 0) return -std::numeric_limits<double>::infinity();
  // Blocked max scan (max is associative/commutative, so lane order is
  // irrelevant), then a four-lane double exp-sum with a fixed tree.
  float m0 = x[0], m1 = x[0], m2 = x[0], m3 = x[0];
  size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    m0 = std::max(m0, x[k + 0]);
    m1 = std::max(m1, x[k + 1]);
    m2 = std::max(m2, x[k + 2]);
    m3 = std::max(m3, x[k + 3]);
  }
  for (; k < n; ++k) m0 = std::max(m0, x[k]);
  const float max_x = std::max(std::max(m0, m1), std::max(m2, m3));

  double acc0 = 0.0, acc1 = 0.0, acc2 = 0.0, acc3 = 0.0;
  k = 0;
  for (; k + 4 <= n; k += 4) {
    acc0 += std::exp(static_cast<double>(x[k + 0]) - max_x);
    acc1 += std::exp(static_cast<double>(x[k + 1]) - max_x);
    acc2 += std::exp(static_cast<double>(x[k + 2]) - max_x);
    acc3 += std::exp(static_cast<double>(x[k + 3]) - max_x);
  }
  for (; k < n; ++k) acc0 += std::exp(static_cast<double>(x[k]) - max_x);
  return static_cast<double>(max_x) + std::log((acc0 + acc1) + (acc2 + acc3));
}

void Softmax(const float* x, float* out, size_t n) {
  if (n == 0) return;
  float max_x = x[0];
  for (size_t k = 1; k < n; ++k) max_x = std::max(max_x, x[k]);
  double sum = 0.0;
  for (size_t k = 0; k < n; ++k) {
    const double e = std::exp(static_cast<double>(x[k]) - max_x);
    out[k] = static_cast<float>(e);
    sum += e;
  }
  const float inv = static_cast<float>(1.0 / sum);
  for (size_t k = 0; k < n; ++k) out[k] *= inv;
}

}  // namespace bslrec::vec
