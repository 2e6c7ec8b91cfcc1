#include "math/vec.h"

#include <algorithm>
#include <cmath>
#include <limits>

// Two forms per dispatched kernel. Every x86-64 build compiles an AVX2
// form of each and runs it where the CPU has AVX2 (RunAvx2, read once per
// process); everywhere else the kernel runs its scalar reference, which
// is always compiled as the vec::ref contract oracle. The AVX2 forms are
// internal to this file and marked target("avx2") and nothing more, so
// they run AVX2 instructions without the build targeting AVX2, and a
// portable build has no FMA for GCC to fuse a mul + add into (see the
// vec.h contract note).
#if defined(__x86_64__)
#include <immintrin.h>
#define BSLREC_VEC_X86 1
#define BSLREC_AVX2 __attribute__((target("avx2")))
#endif

// The hot kernels below are written as unrolled/blocked loops with
// multiple independent accumulators. Two properties are load-bearing:
//   * Stability: reductions still accumulate in double (the original
//     contract), so long rows don't lose low-order bits. DotTileF32 is
//     the one float reduction; its only user, the top-k scan's skip
//     test, covers its error with DotTileF32Error.
//   * Determinism: the summation tree is a pure function of n — four
//     fixed accumulator lanes combined in a fixed order — so results
//     never depend on call context. The multi-threaded trainer and
//     evaluator rely on this for their bit-identical-results guarantee.
// The AVX2 forms keep the same four double lanes in hardware registers
// (see the vec.h contract note), so which form a host runs changes no
// result.

namespace bslrec::vec {

#if BSLREC_VEC_X86
namespace {

// Whether this process runs the AVX2 forms: CPUID, read once (the check
// includes the OS's support for the 256-bit register state). A build
// whose target already has AVX2 needs no check.
bool RunAvx2() {
#if defined(__AVX2__)
  return true;
#else
  static const bool avx2 = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") != 0;
  }();
  return avx2;
#endif
}

}  // namespace
#endif

const char* SimdTier() {
#if BSLREC_VEC_X86
  if (RunAvx2()) return "avx2";
#endif
  return "scalar";
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

void DotRows(const float* q, const float* table, size_t stride,
             const uint32_t* ids, size_t m, size_t d, float* out) {
  for (size_t r = 0; r < m; ++r) {
    out[r] = Dot(q, table + static_cast<size_t>(ids[r]) * stride, d);
  }
}

}  // namespace ref

namespace {

// Where row r of a multi-row dot starts: by id in a strided table
// (DotRows), or at r * d in a contiguous block (DotBatch).
struct IdRows {
  const float* table;
  size_t stride;
  const uint32_t* ids;
  const float* operator()(size_t r) const {
    return table + static_cast<size_t>(ids[r]) * stride;
  }
};

struct ContiguousRows {
  const float* rows;
  size_t d;
  const float* operator()(size_t r) const { return rows + r * d; }
};

#if BSLREC_VEC_X86
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

// The multi-row dot: four rows per block against one query widened once
// per block, each row with Dot's four lanes in one register (four
// independent add chains). The block ends as a DotTile block does: a
// 4 x 4 transpose turns the row registers into lane registers, the
// d % 4 tail goes into lane 0 term by term, and the lanes combine as
// (0+1)+(2+3) with vertical adds. The last m % 4 rows go through Dot.
template <typename Rows>
BSLREC_AVX2 void MultiDot(const float* q, Rows row, size_t m, size_t d,
                          float* out) {
  size_t r = 0;
  for (; r + 4 <= m; r += 4) {
    const float* x0 = row(r);
    const float* x1 = row(r + 1);
    const float* x2 = row(r + 2);
    const float* x3 = row(r + 3);
    __m256d a0 = _mm256_setzero_pd(), a1 = _mm256_setzero_pd();
    __m256d a2 = _mm256_setzero_pd(), a3 = _mm256_setzero_pd();
    size_t k = 0;
    for (; k + 4 <= d; k += 4) {
      const __m256d qv = _mm256_cvtps_pd(_mm_loadu_ps(q + k));
      a0 = _mm256_add_pd(
          a0, _mm256_mul_pd(qv, _mm256_cvtps_pd(_mm_loadu_ps(x0 + k))));
      a1 = _mm256_add_pd(
          a1, _mm256_mul_pd(qv, _mm256_cvtps_pd(_mm_loadu_ps(x1 + k))));
      a2 = _mm256_add_pd(
          a2, _mm256_mul_pd(qv, _mm256_cvtps_pd(_mm_loadu_ps(x2 + k))));
      a3 = _mm256_add_pd(
          a3, _mm256_mul_pd(qv, _mm256_cvtps_pd(_mm_loadu_ps(x3 + k))));
    }
    const __m256d t0 = _mm256_unpacklo_pd(a0, a1);
    const __m256d t1 = _mm256_unpackhi_pd(a0, a1);
    const __m256d t2 = _mm256_unpacklo_pd(a2, a3);
    const __m256d t3 = _mm256_unpackhi_pd(a2, a3);
    __m256d lane0 = _mm256_permute2f128_pd(t0, t2, 0x20);
    const __m256d lane1 = _mm256_permute2f128_pd(t1, t3, 0x20);
    const __m256d lane2 = _mm256_permute2f128_pd(t0, t2, 0x31);
    const __m256d lane3 = _mm256_permute2f128_pd(t1, t3, 0x31);
    for (; k < d; ++k) {
      const __m256d col = _mm256_set_pd(x3[k], x2[k], x1[k], x0[k]);
      lane0 = _mm256_add_pd(lane0, _mm256_mul_pd(_mm256_set1_pd(q[k]), col));
    }
    _mm_storeu_ps(out + r, _mm256_cvtpd_ps(_mm256_add_pd(
                               _mm256_add_pd(lane0, lane1),
                               _mm256_add_pd(lane2, lane3))));
  }
  for (; r < m; ++r) out[r] = Dot(q, row(r), d);
}

BSLREC_AVX2 void DotRows(const float* q, const float* table, size_t stride,
                         const uint32_t* ids, size_t m, size_t d,
                         float* out) {
  MultiDot(q, IdRows{table, stride, ids}, m, d, out);
}

}  // namespace avx2
#endif

}  // namespace

float Dot(const float* a, const float* b, size_t n) {
#if BSLREC_VEC_X86
  if (RunAvx2()) return avx2::Dot(a, b, n);
#endif
  return ref::Dot(a, b, n);
}

void DotRows(const float* q, const float* table, size_t stride,
             const uint32_t* ids, size_t m, size_t d, float* out) {
#if BSLREC_VEC_X86
  if (RunAvx2()) return avx2::DotRows(q, table, stride, ids, m, d, out);
#endif
  ref::DotRows(q, table, stride, ids, m, d, out);
}

void DotBatch(const float* q, const float* rows, size_t m, size_t d,
              float* out) {
#if BSLREC_VEC_X86
  if (RunAvx2()) return avx2::MultiDot(q, ContiguousRows{rows, d}, m, d, out);
#endif
  for (size_t r = 0; r < m; ++r) out[r] = ref::Dot(q, rows + r * d, d);
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

// The AVX2 forms of AccumulateCosineGradRun(s) and WeightedRowSum hand
// their last n % 8 columns to their references below, which stay out of
// line: inlined, a tail's calls make the AVX2 form save more registers and
// realign its stack on every call, tail or not. The SpMM row kernel pays
// that once per row; micro_kernels' BM_GraphPropagation/3 (dim 16) ran
// 20-35% slower with the tail inlined. The references are SSE code, so
// each AVX2 form clears the upper halves of the ymm registers
// (_mm256_zeroupper) before calling its tail: SSE code run with those
// halves dirty can run several times slower, and GCC emitted a
// vzeroupper before WeightedRowSum's tail but not before the gradient
// kernels' tails.
namespace ref {

[[gnu::noinline]] void AccumulateCosineGradRun(
    const float* self_hat, const float* others, size_t stride,
    const uint32_t* idx, const float* scores, const float* scales, size_t m,
    float* grad, size_t n) {
  for (size_t j = 0; j < m; ++j) {
    const float* x = others + static_cast<size_t>(idx[j]) * stride;
    for (size_t k = 0; k < n; ++k) {
      grad[k] += scales[j] * (x[k] - scores[j] * self_hat[k]);
    }
  }
}

[[gnu::noinline]] void AccumulateCosineGradRuns(
    const float* self_hat, const float* others, size_t stride,
    const uint32_t* idx, const float* scores, const float* scales,
    const uint32_t* run_ends, size_t num_runs, float* grad, size_t n) {
  // The per-run loop of the contract, on column slices of at most
  // kSlice elements so the partial lives on the stack (elements never
  // mix, so a slice computes its columns' bits).
  constexpr size_t kSlice = 16;
  float partial[kSlice];
  for (size_t k = 0; k < n; k += kSlice) {
    const size_t w = std::min(kSlice, n - k);
    size_t begin = 0;
    for (size_t r = 0; r < num_runs; ++r) {
      Fill(partial, w, 0.0f);
      AccumulateCosineGradRun(self_hat + k, others + k, stride, idx + begin,
                              scores + begin, scales + begin,
                              run_ends[r] - begin, partial, w);
      Axpy(1.0f, partial, grad + k, w);
      begin = run_ends[r];
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

void DotTileF32(const float* q, size_t m, const float* rows, size_t n,
                size_t d, float* out, size_t ld) {
  for (size_t i = 0; i < m; ++i) {
    const float* a = q + i * d;
    for (size_t j = 0; j < n; ++j) {
      const float* b = rows + j * d;
      float lane[8] = {};
      for (size_t k = 0; k < d; k += 8) {
        for (size_t l = 0; l < 8; ++l) {
          // Columns past d are zeros: their +0.0f products still go
          // through the add, as the AVX2 form's masked loads make them.
          const bool in = k + l < d;
          lane[l] += (in ? a[k + l] : 0.0f) * (in ? b[k + l] : 0.0f);
        }
      }
      out[i * ld + j] = ((lane[0] + lane[1]) + (lane[2] + lane[3])) +
                        ((lane[4] + lane[5]) + (lane[6] + lane[7]));
    }
  }
}

size_t IndicesNotBelow(const float* x, size_t n, float t, uint32_t* out) {
  size_t c = 0;
  for (size_t i = 0; i < n; ++i) {
    out[c] = static_cast<uint32_t>(i);
    c += !(x[i] < t);
  }
  return c;
}

[[gnu::noinline]] void WeightedRowSum(const float* values, const uint32_t* idx,
                                      size_t m, const float* x, size_t stride,
                                      float* out, size_t n) {
  Fill(out, n, 0.0f);
  for (size_t j = 0; j < m; ++j) {
    Axpy(values[j], x + static_cast<size_t>(idx[j]) * stride, out, n);
  }
}

}  // namespace ref

void Widen(const float* x, size_t n, double* out) {
  for (size_t k = 0; k < n; ++k) out[k] = static_cast<double>(x[k]);
}

double NormBound(const float* x, size_t n) {
  // Squares of floats are exact in double (no overflow, no underflow),
  // so the only roundings are the n adds, the square root and the final
  // multiply: the relative error of sqrt(ss) stays below
  // (n / 2 + 2) * 2^-53, which the factor covers with room to spare.
  double acc0 = 0.0, acc1 = 0.0, acc2 = 0.0, acc3 = 0.0;
  size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    acc0 += static_cast<double>(x[k + 0]) * x[k + 0];
    acc1 += static_cast<double>(x[k + 1]) * x[k + 1];
    acc2 += static_cast<double>(x[k + 2]) * x[k + 2];
    acc3 += static_cast<double>(x[k + 3]) * x[k + 3];
  }
  for (; k < n; ++k) acc0 += static_cast<double>(x[k]) * x[k];
  return std::sqrt((acc0 + acc1) + (acc2 + acc3)) *
         (1.0 + static_cast<double>(n + 2) * 0x1p-52);
}

// Derivation of DotTileF32Error. Write u = 2^-24 (float) and v = 2^-53
// (double) for the unit roundoffs, p_k = q_k * x_k for the exact
// products, P = sum_k |p_k| <= ||q||_2 * ||x||_2 (Cauchy-Schwarz), and
// gamma_n(u) = n u / (1 - n u).
//   * DotTileF32: each product is rounded once (float multiply), then
//     passes through at most ceil(d/8) lane adds and the three levels of
//     the lane tree, so every term sees at most n = ceil(d/8) + 4
//     roundings, and |fp32 - sum p| <= gamma_n(u) P (the inner-product
//     bound of Higham, Accuracy and Stability of Numerical Algorithms,
//     ch. 3, which holds for any summation tree), as long as nothing
//     overflows and ignoring underflow. A float add never underflows (a
//     subnormal sum is exact), but a product can lose up to 2^-150
//     absolutely; each of the d such errors grows by at most
//     (1 + gamma_n) on its way up. The padded columns add exact zeros.
//   * Dot: float products are exact in double, each passes through at
//     most floor(d/4) + 3 lane adds and two tree levels, so the double
//     sum D has |D - sum p| <= gamma_{d/4+5}(v) P; the final narrowing
//     gives |s - D| <= u |D| + 2^-150.
// Together, with delta = 2 gamma_{d/4+5}(v) covering the double sum and
// its growth by (1 + u):
//   |fp32 - s| <= (gamma_n(u) + u + delta) P + (d + 1) 2^-149.
// The last term is the underflow budget eta. The factor (1 + 2^-20)
// covers the double roundings of this very computation and of the
// caller's norm product; the narrowing to float rounds up. Overflow is
// excluded by refusing norm products above 2^100: then every partial sum
// of either form stays below 2^101 in magnitude, far under FLT_MAX.
float DotTileF32Error(size_t d, double norm_product) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  const double n = static_cast<double>((d + 7) / 8 + 4);
  const double nd = static_cast<double>(d / 4 + 5);
  constexpr double u = 0x1p-24;
  constexpr double v = 0x1p-53;
  if (!(norm_product <= 0x1p100) || n * u >= 0.5) return kInf;
  const double gamma = n * u / (1.0 - n * u);
  const double delta = 2.0 * nd * v / (1.0 - nd * v);
  const double eta = static_cast<double>(d + 1) * 0x1p-149;
  const double bound =
      ((gamma + u + delta) * norm_product + eta) * (1.0 + 0x1p-20);
  float e = static_cast<float>(bound);
  if (static_cast<double>(e) < bound) e = std::nextafter(e, kInf);
  return e;
}

#if BSLREC_VEC_X86
namespace {

// One cosine-gradient term on eight elements: acc + scale * (x - score * y),
// AccumulateCosineGrad's expression operation for operation.
BSLREC_AVX2 inline __m256 CosineGradTerm(__m256 acc, __m256 scale,
                                         __m256 score, const float* x,
                                         __m256 y) {
  const __m256 diff =
      _mm256_sub_ps(_mm256_loadu_ps(x), _mm256_mul_ps(score, y));
  return _mm256_add_ps(acc, _mm256_mul_ps(scale, diff));
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

// Eight pairs' lane registers a0..a7 reduced to one register whose
// entry t is ((at0 + at1) + (at2 + at3)) + ((at4 + at5) + (at6 + at7)),
// the reference's tree: the first two rounds of horizontal adds form
// each 128-bit half's sum of four, and one vertical add joins the
// halves.
BSLREC_AVX2 inline __m256 ReduceLanes8(__m256 a0, __m256 a1, __m256 a2,
                                       __m256 a3, __m256 a4, __m256 a5,
                                       __m256 a6, __m256 a7) {
  const __m256 h01 = _mm256_hadd_ps(a0, a1);
  const __m256 h23 = _mm256_hadd_ps(a2, a3);
  const __m256 h45 = _mm256_hadd_ps(a4, a5);
  const __m256 h67 = _mm256_hadd_ps(a6, a7);
  const __m256 g0 = _mm256_hadd_ps(h01, h23);  // pairs 0-3: low | high
  const __m256 g1 = _mm256_hadd_ps(h45, h67);  // pairs 4-7: low | high
  return _mm256_add_ps(_mm256_permute2f128_ps(g0, g1, 0x20),
                       _mm256_permute2f128_ps(g0, g1, 0x31));
}

// One block of eight pairs of the AVX2 DotTileF32: MQ queries (1 or 2)
// against 8 / MQ rows, pair (i, j) keeping its eight float lanes in
// acc[i * (8 / MQ) + j], all eight in registers. The d % 8 tail is read
// through `tail`, a load mask of its columns, so the padded lanes add
// +0.0f * +0.0f as the reference does. Returns ReduceLanes8 of the
// pairs, in pair order.
template <size_t MQ>
BSLREC_AVX2 inline __m256 DotTileF32Block(const float* const (&q)[MQ],
                                          const float* const (&x)[8 / MQ],
                                          size_t d, __m256i tail) {
  constexpr size_t NR = 8 / MQ;
  __m256 acc[8];
  for (size_t t = 0; t < 8; ++t) acc[t] = _mm256_setzero_ps();
  size_t k = 0;
  for (; k + 8 <= d; k += 8) {
    for (size_t i = 0; i < MQ; ++i) {
      const __m256 qv = _mm256_loadu_ps(q[i] + k);
      for (size_t j = 0; j < NR; ++j) {
        const __m256 xv = _mm256_loadu_ps(x[j] + k);
        acc[i * NR + j] = _mm256_add_ps(acc[i * NR + j], _mm256_mul_ps(qv, xv));
      }
    }
  }
  if (k < d) {
    for (size_t i = 0; i < MQ; ++i) {
      const __m256 qv = _mm256_maskload_ps(q[i] + k, tail);
      for (size_t j = 0; j < NR; ++j) {
        const __m256 xv = _mm256_maskload_ps(x[j] + k, tail);
        acc[i * NR + j] = _mm256_add_ps(acc[i * NR + j], _mm256_mul_ps(qv, xv));
      }
    }
  }
  return ReduceLanes8(acc[0], acc[1], acc[2], acc[3], acc[4], acc[5], acc[6],
                      acc[7]);
}

// The AVX2 DotTileF32's blocks for MQ queries (q[i] = query i) against
// rows [0, n), 8 / MQ rows at a time; out[i] is query i's output row.
template <size_t MQ>
BSLREC_AVX2 inline void DotTileF32Rows(const float* const (&q)[MQ],
                                       const float* rows, size_t n, size_t d,
                                       __m256i tail, float* const (&out)[MQ]) {
  constexpr size_t NR = 8 / MQ;
  size_t j0 = 0;
  for (; j0 + NR <= n; j0 += NR) {
    const float* x[NR];
    for (size_t j = 0; j < NR; ++j) x[j] = rows + (j0 + j) * d;
    const __m256 s = DotTileF32Block<MQ>(q, x, d, tail);
    if constexpr (MQ == 2) {
      _mm_storeu_ps(out[0] + j0, _mm256_castps256_ps128(s));
      _mm_storeu_ps(out[1] + j0, _mm256_extractf128_ps(s, 1));
    } else {
      _mm256_storeu_ps(out[0] + j0, s);
    }
  }
  if (j0 < n) {
    // The last n mod NR rows: the block repeats the last row in place of
    // the missing ones and drops their entries.
    const float* x[NR];
    for (size_t j = 0; j < NR; ++j) {
      x[j] = rows + std::min(j0 + j, n - 1) * d;
    }
    alignas(32) float s[8];
    _mm256_store_ps(s, DotTileF32Block<MQ>(q, x, d, tail));
    for (size_t i = 0; i < MQ; ++i) {
      for (size_t j = 0; j0 + j < n; ++j) out[i][j0 + j] = s[i * NR + j];
    }
  }
}

namespace avx2 {

BSLREC_AVX2 void AccumulateCosineGradRun(const float* self_hat,
                                         const float* others, size_t stride,
                                         const uint32_t* idx,
                                         const float* scores,
                                         const float* scales, size_t m,
                                         float* grad, size_t n) {
  // Element k sees the reference's operations in the reference's term
  // order; the blocks only decide which elements share registers: 32
  // elements in four accumulators across the whole run, then 8 at a time.
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
    // The last n % 8 elements: the reference on a column slice.
    _mm256_zeroupper();
    ref::AccumulateCosineGradRun(self_hat + k, others + k, stride, idx,
                                 scores, scales, m, grad + k, n - k);
  }
}

BSLREC_AVX2 void AccumulateCosineGradRuns(const float* self_hat,
                                          const float* others, size_t stride,
                                          const uint32_t* idx,
                                          const float* scores,
                                          const float* scales,
                                          const uint32_t* run_ends,
                                          size_t num_runs, float* grad,
                                          size_t n) {
  // A block of 32 elements keeps the row (g), the run's partial (p) and
  // self_hat (y) in 12 registers across every run, then 8 at a time; per
  // element the operations are the reference's, in its order.
  size_t k = 0;
  for (; k + 32 <= n; k += 32) {
    __m256 g0 = _mm256_loadu_ps(grad + k + 0);
    __m256 g1 = _mm256_loadu_ps(grad + k + 8);
    __m256 g2 = _mm256_loadu_ps(grad + k + 16);
    __m256 g3 = _mm256_loadu_ps(grad + k + 24);
    const __m256 y0 = _mm256_loadu_ps(self_hat + k + 0);
    const __m256 y1 = _mm256_loadu_ps(self_hat + k + 8);
    const __m256 y2 = _mm256_loadu_ps(self_hat + k + 16);
    const __m256 y3 = _mm256_loadu_ps(self_hat + k + 24);
    size_t j = 0;
    for (size_t r = 0; r < num_runs; ++r) {
      __m256 p0 = _mm256_setzero_ps(), p1 = _mm256_setzero_ps();
      __m256 p2 = _mm256_setzero_ps(), p3 = _mm256_setzero_ps();
      for (; j < run_ends[r]; ++j) {
        const float* x = others + static_cast<size_t>(idx[j]) * stride + k;
        const __m256 sc = _mm256_set1_ps(scores[j]);
        const __m256 sl = _mm256_set1_ps(scales[j]);
        p0 = CosineGradTerm(p0, sl, sc, x + 0, y0);
        p1 = CosineGradTerm(p1, sl, sc, x + 8, y1);
        p2 = CosineGradTerm(p2, sl, sc, x + 16, y2);
        p3 = CosineGradTerm(p3, sl, sc, x + 24, y3);
      }
      g0 = _mm256_add_ps(g0, p0);
      g1 = _mm256_add_ps(g1, p1);
      g2 = _mm256_add_ps(g2, p2);
      g3 = _mm256_add_ps(g3, p3);
    }
    _mm256_storeu_ps(grad + k + 0, g0);
    _mm256_storeu_ps(grad + k + 8, g1);
    _mm256_storeu_ps(grad + k + 16, g2);
    _mm256_storeu_ps(grad + k + 24, g3);
  }
  for (; k + 8 <= n; k += 8) {
    __m256 g = _mm256_loadu_ps(grad + k);
    const __m256 y = _mm256_loadu_ps(self_hat + k);
    size_t j = 0;
    for (size_t r = 0; r < num_runs; ++r) {
      __m256 p = _mm256_setzero_ps();
      for (; j < run_ends[r]; ++j) {
        const float* x = others + static_cast<size_t>(idx[j]) * stride + k;
        p = CosineGradTerm(p, _mm256_set1_ps(scales[j]),
                           _mm256_set1_ps(scores[j]), x, y);
      }
      g = _mm256_add_ps(g, p);
    }
    _mm256_storeu_ps(grad + k, g);
  }
  if (k < n) {
    // The last n % 8 elements: the reference on a column slice.
    _mm256_zeroupper();
    ref::AccumulateCosineGradRuns(self_hat + k, others + k, stride, idx,
                                  scores, scales, run_ends, num_runs,
                                  grad + k, n - k);
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

BSLREC_AVX2 void DotTileF32(const float* q, size_t m, const float* rows,
                            size_t n, size_t d, float* out, size_t ld) {
  // Lane l of the tail load is read iff l < d % 8.
  const __m256i lanes = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  const __m256i tail =
      _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(d % 8)), lanes);
  // Two queries against four rows per block (eight accumulators, four
  // row operands and two query operands in AVX2's 16 registers); a last
  // single query against eight rows.
  size_t i = 0;
  for (; i + 2 <= m; i += 2) {
    const float* const qs[2] = {q + i * d, q + (i + 1) * d};
    float* const outs[2] = {out + i * ld, out + (i + 1) * ld};
    DotTileF32Rows<2>(qs, rows, n, d, tail, outs);
  }
  if (i < m) {
    const float* const qs[1] = {q + i * d};
    float* const outs[1] = {out + i * ld};
    DotTileF32Rows<1>(qs, rows, n, d, tail, outs);
  }
}

BSLREC_AVX2 size_t IndicesNotBelow(const float* x, size_t n, float t,
                                   uint32_t* out) {
  // _CMP_NLT_UQ is !(x < t): true for NaN, like the reference's test.
  const __m256 tv = _mm256_set1_ps(t);
  size_t c = 0;
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 keep = _mm256_cmp_ps(_mm256_loadu_ps(x + i), tv, _CMP_NLT_UQ);
    unsigned mask = static_cast<unsigned>(_mm256_movemask_ps(keep));
    for (; mask != 0; mask &= mask - 1) {
      out[c++] = static_cast<uint32_t>(i + __builtin_ctz(mask));
    }
  }
  for (; i < n; ++i) {
    out[c] = static_cast<uint32_t>(i);
    c += !(x[i] < t);
  }
  return c;
}

BSLREC_AVX2 void WeightedRowSum(const float* values, const uint32_t* idx,
                                size_t m, const float* x, size_t stride,
                                float* out, size_t n) {
  // Per element: +0.0f, then each term added in order, as the reference
  // does; 32 elements stay in four registers across the row's terms,
  // then 8 at a time.
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
    // The last n % 8 elements: the reference on a column slice.
    _mm256_zeroupper();
    ref::WeightedRowSum(values, idx, m, x + k, stride, out + k, n - k);
  }
}

}  // namespace avx2
}  // namespace
#endif

void AccumulateCosineGradRun(const float* self_hat, const float* others,
                             size_t stride, const uint32_t* idx,
                             const float* scores, const float* scales,
                             size_t m, float* grad, size_t n) {
#if BSLREC_VEC_X86
  if (RunAvx2()) {
    return avx2::AccumulateCosineGradRun(self_hat, others, stride, idx,
                                         scores, scales, m, grad, n);
  }
#endif
  ref::AccumulateCosineGradRun(self_hat, others, stride, idx, scores, scales,
                               m, grad, n);
}

void AccumulateCosineGradRuns(const float* self_hat, const float* others,
                              size_t stride, const uint32_t* idx,
                              const float* scores, const float* scales,
                              const uint32_t* run_ends, size_t num_runs,
                              float* grad, size_t n) {
#if BSLREC_VEC_X86
  if (RunAvx2()) {
    return avx2::AccumulateCosineGradRuns(self_hat, others, stride, idx,
                                          scores, scales, run_ends, num_runs,
                                          grad, n);
  }
#endif
  ref::AccumulateCosineGradRuns(self_hat, others, stride, idx, scores, scales,
                                run_ends, num_runs, grad, n);
}

void DotTile(const double* q, size_t m, const double* rows, size_t n,
             size_t d, float* out, size_t out_stride) {
#if BSLREC_VEC_X86
  if (RunAvx2()) return avx2::DotTile(q, m, rows, n, d, out, out_stride);
#endif
  ref::DotTile(q, m, rows, n, d, out, out_stride);
}

void DotTileF32(const float* q, size_t m, const float* rows, size_t n,
                size_t d, float* out, size_t ld) {
#if BSLREC_VEC_X86
  if (RunAvx2()) return avx2::DotTileF32(q, m, rows, n, d, out, ld);
#endif
  ref::DotTileF32(q, m, rows, n, d, out, ld);
}

size_t IndicesNotBelow(const float* x, size_t n, float t, uint32_t* out) {
#if BSLREC_VEC_X86
  if (RunAvx2()) return avx2::IndicesNotBelow(x, n, t, out);
#endif
  return ref::IndicesNotBelow(x, n, t, out);
}

void WeightedRowSum(const float* values, const uint32_t* idx, size_t m,
                    const float* x, size_t stride, float* out, size_t n) {
#if BSLREC_VEC_X86
  if (RunAvx2()) return avx2::WeightedRowSum(values, idx, m, x, stride, out, n);
#endif
  ref::WeightedRowSum(values, idx, m, x, stride, out, n);
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

#if BSLREC_VEC_X86
namespace {
namespace avx2 {

BSLREC_AVX2 void AdamStep(const AdamCoeffs& c, const float* g, float* w,
                          float* m, float* v, size_t n) {
  // The reference's expression, four double lanes per register, with the
  // same operations in the same order (see the vec.h contract note).
  const __m256d beta1 = _mm256_set1_pd(c.beta1);
  const __m256d one_minus_beta1 = _mm256_set1_pd(1.0 - c.beta1);
  const __m256d beta2 = _mm256_set1_pd(c.beta2);
  const __m256d one_minus_beta2 = _mm256_set1_pd(1.0 - c.beta2);
  const __m256d bc1 = _mm256_set1_pd(c.bc1);
  const __m256d bc2 = _mm256_set1_pd(c.bc2);
  const __m256d eps = _mm256_set1_pd(c.eps);
  const __m256d lr = _mm256_set1_pd(c.lr);
  const __m256d wd = _mm256_set1_pd(c.weight_decay);
  size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    const __m128 w4 = _mm_loadu_ps(w + k);
    const __m256d gd = _mm256_cvtps_pd(_mm_loadu_ps(g + k));
    const __m128 m_new = _mm256_cvtpd_ps(_mm256_add_pd(
        _mm256_mul_pd(beta1, _mm256_cvtps_pd(_mm_loadu_ps(m + k))),
        _mm256_mul_pd(one_minus_beta1, gd)));
    const __m128 v_new = _mm256_cvtpd_ps(_mm256_add_pd(
        _mm256_mul_pd(beta2, _mm256_cvtps_pd(_mm_loadu_ps(v + k))),
        _mm256_mul_pd(_mm256_mul_pd(one_minus_beta2, gd), gd)));
    const __m256d m_hat = _mm256_div_pd(_mm256_cvtps_pd(m_new), bc1);
    const __m256d v_hat = _mm256_div_pd(_mm256_cvtps_pd(v_new), bc2);
    const __m256d ratio =
        _mm256_div_pd(m_hat, _mm256_add_pd(_mm256_sqrt_pd(v_hat), eps));
    const __m128 step = _mm256_cvtpd_ps(_mm256_mul_pd(
        lr, _mm256_add_pd(ratio, _mm256_mul_pd(wd, _mm256_cvtps_pd(w4)))));
    _mm_storeu_ps(m + k, m_new);
    _mm_storeu_ps(v + k, v_new);
    _mm_storeu_ps(w + k, _mm_sub_ps(w4, step));
  }
  ref::AdamStep(c, g + k, w + k, m + k, v + k, n - k);
}

}  // namespace avx2
}  // namespace
#endif

void AdamStep(const AdamCoeffs& c, const float* g, float* w, float* m,
              float* v, size_t n) {
#if BSLREC_VEC_X86
  if (RunAvx2()) return avx2::AdamStep(c, g, w, m, v, n);
#endif
  ref::AdamStep(c, g, w, m, v, n);
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
