// Dense vector kernels used throughout the library.
//
// Embeddings are stored as contiguous rows of float; all heavy inner loops
// (dot products, AXPY updates, normalization) funnel through these free
// functions so they can be audited and benchmarked in one place. The span
// arguments are raw pointers + length to keep call sites allocation-free.
//
// ---- SIMD dispatch contract ----
//
// The hot kernels (`Dot`, `DotRows`, `DotTile`, `AccumulateCosineGradRun`,
// `DotI8`, `DotBatchI8`, `WeightedRowSum`, `AdamStep`, `QuantizeRow`) have
// explicitly vectorized forms. On x86-64 every build carries an SSE2
// tier (the x86-64 baseline) and, for all but `QuantizeRow`, an AVX2
// tier; each process reads CPUID once and runs AVX2 where the CPU has
// it, SSE2 otherwise (a build that targets AVX2 itself, e.g.
// -march=native on such a host, skips the check). Other architectures
// run the scalar forms. `DotBatch` is `DotRows` over contiguous rows and
// runs the same tiers.
// The scalar forms are always compiled and exposed under `vec::ref`, and
// each x86-64 tier's entry points under `vec::sse2` and `vec::avx2`;
// every SIMD kernel is contractually *bit-identical* to its reference,
// so the tier a host picks changes speed, never a result:
//
//   * integer kernels (`DotI8`, `DotBatchI8`) exactly — int32 arithmetic
//     is associative, so lane layout cannot change the result;
//   * `QuantizeRow` exactly — the max-abs reduction is order-invariant,
//     each code is a float multiply (identical IEEE rounding in scalar
//     and packed form) followed by round-to-nearest-even (the default
//     rounding mode of both std::nearbyintf and CVTPS2DQ);
//   * fp32 `Dot` via an *identical summation tree*: the SIMD forms keep
//     the reference's four double-precision accumulator lanes (lane j
//     sums elements k+j), combined in the same fixed ((0+1)+(2+3))
//     order. float*float products are exact in double (24+24 < 53
//     mantissa bits), so mul+add and fma agree bitwise, too.
//   * `DotRows` (and `DotBatch`) via the same tree per row: every output
//     equals Dot over its row bitwise. The tiers score a block of rows
//     against one query (two rows per block in SSE2, four in AVX2), one
//     accumulator per row, so a block runs several independent add
//     chains where Dot runs one; the AVX2 tier combines its four rows'
//     lanes with DotTile's transpose.
//   * `DotTile` via the same tree: each (query, row) entry keeps Dot's
//     four double lanes (lane j sums the products with k = j mod 4, the
//     d % 4 tail goes to lane 0, the lanes combine as (0+1)+(2+3)), so
//     every entry equals Dot over the float rows bitwise. Its operands
//     are rows widened to double once (`Widen`, exact), so a tile
//     reuses each widened row across queries instead of re-widening it
//     per pair. The AVX2 tier holds one pair's four lanes in one
//     register and transposes four pairs' registers before combining
//     their lanes, so four adjacent entries combine in one vector add
//     tree instead of four horizontal sums.
//   * `AccumulateCosineGradRun` exactly — per element it performs
//     AccumulateCosineGrad's float expression, term by term in run
//     order, on the same operands; the SIMD forms only keep a block of
//     the accumulator in registers across the run (elements never mix).
//   * `WeightedRowSum` exactly — per element it starts at +0.0f and adds
//     each weighted term in order, as Fill + one Axpy per term does; the
//     SIMD forms keep a block of the output row in registers.
//   * `AdamStep` exactly — its SSE2 form runs the reference's double-
//     precision expression two lanes at a time, and its AVX2 form four,
//     operation for operation: float -> double widening is exact, and
//     IEEE add, mul, div, sqrt and the double -> float narrowing are
//     correctly rounded in packed and scalar form alike. (The step is
//     bound by the divider, which AVX-512 does not widen here.)
//
// No kernel may fuse a multiply-add into an FMA: an FMA rounds once
// where mul + add rounds twice, so the float kernels (the cosine
// gradient, the weighted row sums, Adam) would compute other bits than
// their references. Every target of the root build is compiled with
// -ffp-contract=off (CMakeLists.txt), and the AVX2 forms are compiled
// with target("avx2") alone, which adds no FMA to a portable build, so
// even a build without that flag has no FMA to fuse into.
//
// tests/test_vec.cc enforces all of these contracts, for every tier the
// host can run (AdamStep's lives in tests/test_optimizer.cc, next to
// the pooled optimizer step it feeds, and runs each tier by name too);
// SimdTier() reports the tier the dispatched kernels run.
#ifndef BSLREC_MATH_VEC_H_
#define BSLREC_MATH_VEC_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace bslrec::vec {

// The tier the dispatched kernels run in this process: "avx2" on an
// x86-64 CPU with AVX2, "sse2" on any other x86-64 CPU, "scalar"
// elsewhere. Diagnostic only (recorded into BENCH_*.json machine info).
const char* SimdTier();

// Coefficients of one Adam update (Kingma & Ba, with decoupled weight
// decay): bc1 = 1 - beta1^t and bc2 = 1 - beta2^t are the bias
// corrections of step t.
struct AdamCoeffs {
  double lr = 0.0;
  double weight_decay = 0.0;
  double beta1 = 0.0;
  double beta2 = 0.0;
  double eps = 0.0;
  double bc1 = 1.0;
  double bc2 = 1.0;
};

// Always-compiled scalar reference forms of the SIMD-dispatched kernels.
// The public kernels below must match these bit-for-bit (see the header
// note); benches compare against them to quantify the SIMD win.
namespace ref {
float Dot(const float* a, const float* b, size_t n);
void DotRows(const float* q, const float* table, size_t stride,
             const uint32_t* ids, size_t m, size_t d, float* out);
void DotTile(const double* q, size_t m, const double* rows, size_t n,
             size_t d, float* out, size_t out_stride);
void AccumulateCosineGradRun(const float* self_hat, const float* others,
                             size_t stride, const uint32_t* idx,
                             const float* scores, const float* scales,
                             size_t m, float* grad, size_t n);
int32_t DotI8(const int8_t* a, const int8_t* b, size_t n);
void DotBatchI8(const int8_t* q, const int8_t* rows, size_t m, size_t d,
                int32_t* out);
void WeightedRowSum(const float* values, const uint32_t* idx, size_t m,
                    const float* x, size_t stride, float* out, size_t n);
float QuantizeRow(const float* x, size_t n, int8_t* out);
void AdamStep(const AdamCoeffs& c, const float* g, float* w, float* m,
              float* v, size_t n);
}  // namespace ref

#if defined(__x86_64__)
// Each x86-64 tier's forms of the kernels that have an AVX2 tier. The
// dispatched kernels below call one of them; they are exposed so the
// tests can hold every tier the host can run to the vec::ref oracles (a
// host with AVX2 would otherwise never run the SSE2 tier) and the
// micro benchmarks can time the tiers side by side. An avx2:: kernel
// may only be called where SimdTier() is "avx2".
namespace sse2 {
float Dot(const float* a, const float* b, size_t n);
void DotRows(const float* q, const float* table, size_t stride,
             const uint32_t* ids, size_t m, size_t d, float* out);
void DotTile(const double* q, size_t m, const double* rows, size_t n,
             size_t d, float* out, size_t out_stride);
void AccumulateCosineGradRun(const float* self_hat, const float* others,
                             size_t stride, const uint32_t* idx,
                             const float* scores, const float* scales,
                             size_t m, float* grad, size_t n);
int32_t DotI8(const int8_t* a, const int8_t* b, size_t n);
void DotBatchI8(const int8_t* q, const int8_t* rows, size_t m, size_t d,
                int32_t* out);
void WeightedRowSum(const float* values, const uint32_t* idx, size_t m,
                    const float* x, size_t stride, float* out, size_t n);
void AdamStep(const AdamCoeffs& c, const float* g, float* w, float* m,
              float* v, size_t n);
}  // namespace sse2

namespace avx2 {
float Dot(const float* a, const float* b, size_t n);
void DotRows(const float* q, const float* table, size_t stride,
             const uint32_t* ids, size_t m, size_t d, float* out);
void DotTile(const double* q, size_t m, const double* rows, size_t n,
             size_t d, float* out, size_t out_stride);
void AccumulateCosineGradRun(const float* self_hat, const float* others,
                             size_t stride, const uint32_t* idx,
                             const float* scores, const float* scales,
                             size_t m, float* grad, size_t n);
int32_t DotI8(const int8_t* a, const int8_t* b, size_t n);
void DotBatchI8(const int8_t* q, const int8_t* rows, size_t m, size_t d,
                int32_t* out);
void WeightedRowSum(const float* values, const uint32_t* idx, size_t m,
                    const float* x, size_t stride, float* out, size_t n);
void AdamStep(const AdamCoeffs& c, const float* g, float* w, float* m,
              float* v, size_t n);
}  // namespace avx2
#endif

// Returns sum_i a[i] * b[i].
float Dot(const float* a, const float* b, size_t n);

// Integer dot product over int8 codes, accumulated in int32 (exact — no
// rounding anywhere, so SIMD and scalar agree trivially). Safe from
// overflow for n < 2^17: each product is at most 127*127 < 2^14, so the
// int32 accumulator holds at least 2^31 / 2^14 = 2^17 terms.
int32_t DotI8(const int8_t* a, const int8_t* b, size_t n);

// Batch form: out[r] = DotI8(q, rows + r*d, d) for r in [0, m). `rows`
// is a contiguous m x d int8 block (an IVF list's grouped int8 rows).
// This is the IVF list-scan kernel under ScorerOptions::quantize.
void DotBatchI8(const int8_t* q, const int8_t* rows, size_t m, size_t d,
                int32_t* out);

// Symmetric int8 quantization of one row: scale = max_i |x[i]| / 127,
// out[i] = round-to-nearest-even(x[i] / scale). Returns the scale (the
// dequantization multiplier: x[i] ≈ out[i] * scale, with per-element
// error |x[i] - out[i]*scale| <= scale * (0.5 + eps)). An all-zero row
// gets scale 0 and all-zero codes.
float QuantizeRow(const float* x, size_t n, int8_t* out);

// y += alpha * x  (the classic AXPY update).
void Axpy(float alpha, const float* x, float* y, size_t n);

// x *= alpha.
void Scale(float* x, size_t n, float alpha);

// Returns the Euclidean norm ||x||_2.
float Norm(const float* x, size_t n);

// Writes x / max(||x||, eps) into `out` (out may alias x). Returns the
// original norm. `eps` guards against division by zero for all-zero rows.
float Normalize(const float* x, float* out, size_t n, float eps = 1e-12f);

// Returns the cosine similarity a·b / (||a||·||b||), with zero-norm guard.
float Cosine(const float* a, const float* b, size_t n);

// out = a - b.
void Sub(const float* a, const float* b, float* out, size_t n);

// out = a + b.
void Add(const float* a, const float* b, float* out, size_t n);

// Sets all n entries to v.
void Fill(float* x, size_t n, float v);

// Returns squared Euclidean distance ||a - b||^2.
float SquaredDistance(const float* a, const float* b, size_t n);

// Indexed multi-row scoring: out[r] = Dot(q, table + ids[r]*stride, d)
// for r in [0, m), bitwise (see the header note). Repeated ids are fine.
// It scores a sampled-mode training sample's positive and N- draws
// straight from the trainer's per-batch normalized item table, by item
// id, with no gather copy.
void DotRows(const float* q, const float* table, size_t stride,
             const uint32_t* ids, size_t m, size_t d, float* out);

// DotRows over a contiguous m x d block: out[r] = Dot(q, rows + r*d, d)
// bitwise, through the same block kernel. It scores the IVF centroids
// and an IVF list's grouped fp32 rows.
void DotBatch(const float* q, const float* rows, size_t m, size_t d,
              float* out);

// Gathers rows ids[0..m) from `table` (row stride `stride` floats) into
// the contiguous m x d block `out_rows`, L2-normalizing each row;
// out_norms[r] receives the original norm. Per row this is exactly
// Normalize(table + ids[r]*stride, out_rows + r*d, d). The trainer no
// longer calls it (it normalizes each item once per batch instead);
// perfbench's kernel replay and the tests still do.
void GatherNormalize(const float* table, size_t stride, const uint32_t* ids,
                     size_t m, size_t d, float* out_rows, float* out_norms);

// Gradient of the cosine score f = cos(u, i) with respect to u:
//   d f / d u = (i_hat - f * u_hat) / ||u||
// where u_hat, i_hat are the normalized vectors. The caller passes the
// *normalized* vectors plus the original norm of u; the result is
// accumulated into `grad_u` scaled by `coeff` (the upstream gradient).
void AccumulateCosineGrad(const float* u_hat, const float* i_hat, float score,
                          float u_norm, float coeff, float* grad_u, size_t n);

// The multiplier AccumulateCosineGrad applies to one pair's term:
// coeff / max(norm, 1e-12f). Callers of AccumulateCosineGradRun compute
// it once per pair with this function, so both kernels see the same bits.
inline float CosineGradScale(float coeff, float norm) {
  return coeff / std::max(norm, 1e-12f);
}

// A run of cosine-gradient terms into one row's accumulator: for j in
// [0, m), in order,
//   grad[k] += scales[j] * (x_j[k] - scores[j] * self_hat[k]),
// where x_j = others + idx[j] * stride. With scales[j] ==
// CosineGradScale(coeffs[j], norm) it equals, bitwise, the loop
//   for j: AccumulateCosineGrad(self_hat, x_j, scores[j], norm,
//                               coeffs[j], grad, n)
// zero coefficients included (the run skips nothing; callers leave out
// the terms they skip). It keeps a block of `grad` in registers across
// the whole run instead of loading and storing it once per term.
void AccumulateCosineGradRun(const float* self_hat, const float* others,
                             size_t stride, const uint32_t* idx,
                             const float* scores, const float* scales,
                             size_t m, float* grad, size_t n);

// Widens n floats to double (exact): the operand form of DotTile.
void Widen(const float* x, size_t n, double* out);

// Tiled scoring of m queries against n rows (both widened with Widen,
// row-major with stride d): out[i * out_stride + j] equals
// Dot(query i, row j, d) over the original float rows, bitwise (see the
// header note). Each widened row is loaded once per block of two (SSE2)
// or three (AVX2) queries and stays in L1 across the whole query block.
// It scores the trainer's in-batch shards (Algorithm 2: a shard's users
// against the batch's positives) and the exact catalog scan's query
// blocks (serve::ShardTopK: a block of users or requests against a
// chunk of item rows), which the evaluator pass and
// CatalogScorer::BatchTopK both run.
void DotTile(const double* q, size_t m, const double* rows, size_t n,
             size_t d, float* out, size_t out_stride);

// One sparse row times a dense matrix: for j in [0, m), in order,
//   out[k] += values[j] * x[idx[j] * stride + k]   for k in [0, n),
// with out starting at +0.0f. It equals, bitwise, Fill(out, n, 0.0f)
// followed by one Axpy(values[j], x + idx[j] * stride, out, n) per term
// (the +0.0f start turns a -0.0f first product into +0.0f, as that loop
// does), but keeps a block of `out` in registers across all the terms
// instead of loading and storing the row once per term. Repeated ids
// are fine; `out` must not overlap the rows of x it reads. This is the
// row kernel of SparseMatrix's products (one CSR or CSC row per call),
// which carry every graph backbone's propagation. A NaN result is NaN
// in every tier, but which operand's payload it carries is not part of
// the contract (the compiler may commute an add or a multiply).
void WeightedRowSum(const float* values, const uint32_t* idx, size_t m,
                    const float* x, size_t stride, float* out, size_t n);

// One Adam update of n parameters w in place, with their moment
// estimates m and v and gradients g. Per element, in double precision:
//   m = f32(beta1 * m + (1 - beta1) * g)
//   v = f32(beta2 * v + (1 - beta2) * g * g)
//   w = w - f32(lr * ((m / bc1) / (sqrt(v / bc2) + eps) + wd * w))
// Each element's update reads only that element, so splitting [0, n)
// into ranges (the optimizer's pooled shards) never changes a bit.
void AdamStep(const AdamCoeffs& c, const float* g, float* w, float* m,
              float* v, size_t n);

// One SGD update in place, in float: w -= lr * (g + weight_decay * w).
// Elementwise like AdamStep, and like it never fused into FMAs (vec.cc
// is compiled with -ffp-contract=off).
void SgdStep(float lr, float weight_decay, const float* g, float* w,
             size_t n);

// Numerically stable log(sum_j exp(x[j])) over n values.
double LogSumExp(const float* x, size_t n);

// Writes softmax(x) into out (out may alias x). Numerically stable.
void Softmax(const float* x, float* out, size_t n);

}  // namespace bslrec::vec

#endif  // BSLREC_MATH_VEC_H_
