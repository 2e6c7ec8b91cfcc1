// Dense vector kernels used throughout the library.
//
// Embeddings are stored as contiguous rows of float; all heavy inner loops
// (dot products, AXPY updates, normalization) funnel through these free
// functions so they can be audited and benchmarked in one place. The span
// arguments are raw pointers + length to keep call sites allocation-free.
//
// ---- SIMD dispatch contract ----
//
// The hot kernels (`Dot`, `DotRows`, `DotTile`, `DotTileF32`,
// `IndicesNotBelow`, `AccumulateCosineGradRun`, `AccumulateCosineGradRuns`,
// `WeightedRowSum`, `AdamStep`) each exist in two forms: a scalar
// reference, always compiled and exposed under `vec::ref`, and an AVX2
// form, internal to vec.cc and compiled into every x86-64 build. Each
// process reads CPUID once and runs the AVX2 forms where the CPU has
// AVX2, the references otherwise (a build that targets AVX2 itself, e.g.
// -march=native on such a host, skips the check); other architectures
// run the references. `DotBatch` is `DotRows` over contiguous rows and
// runs the same forms. Every SIMD form is contractually *bit-identical*
// to its reference, so the form a host runs changes speed, never a
// result:
//
//   * `IndicesNotBelow` exactly — a packed compare is the scalar one;
//   * fp32 `Dot` via an *identical summation tree*: the AVX2 form keeps
//     the reference's four double-precision accumulator lanes in one
//     register (lane j sums elements k+j), combined in the same fixed
//     ((0+1)+(2+3)) order. float*float products are exact in double
//     (24+24 < 53 mantissa bits), so mul+add and fma agree bitwise, too.
//   * `DotRows` (and `DotBatch`) via the same tree per row: every output
//     equals Dot over its row bitwise. The AVX2 form scores four rows per
//     block against one query, one accumulator per row, so a block runs
//     four independent add chains where Dot runs one, and combines its
//     four rows' lanes with DotTile's transpose.
//   * `DotTile` via the same tree: each (query, row) entry keeps Dot's
//     four double lanes (lane j sums the products with k = j mod 4, the
//     d % 4 tail goes to lane 0, the lanes combine as (0+1)+(2+3)), so
//     every entry equals Dot over the float rows bitwise. Its operands
//     are rows widened to double once (`Widen`, exact), so a tile
//     reuses each widened row across queries instead of re-widening it
//     per pair. The AVX2 form holds one pair's four lanes in one
//     register and transposes four pairs' registers before combining
//     their lanes, so four adjacent entries combine in one vector add
//     tree instead of four horizontal sums.
//   * `DotTileF32` via its own fixed tree in float: per (query, row)
//     entry, lane l of eight sums the float products with k = l mod 8 in
//     order of k over the rows zero-padded to a multiple of 8 columns,
//     and the lanes combine as ((0+1)+(2+3))+((4+5)+(6+7)). The AVX2 form
//     holds one pair's eight lanes in one register, reads the padded
//     columns with masked loads (zeros), and combines eight pairs'
//     registers with horizontal adds that perform exactly those sums.
//     A NaN entry is NaN in both forms; its payload is not part of the
//     contract. Its entries are not Dot's: DotTileF32Error bounds the
//     difference, which is all its one user, the top-k scan, relies on.
//   * `AccumulateCosineGradRun` exactly — per element it performs
//     AccumulateCosineGrad's float expression, term by term in run
//     order, on the same operands; the AVX2 form only keeps a block of
//     the accumulator in registers across the run (elements never mix).
//   * `AccumulateCosineGradRuns` exactly — per element and per run it
//     starts a partial at +0.0f, adds the run's terms as
//     AccumulateCosineGradRun does, then adds the partial into the row as
//     Axpy(1.0f, ...) does (1.0f * p == p for every p an add can make);
//     the AVX2 form keeps a block of the row, of the partial and of
//     self_hat in registers across all the runs of one call.
//   * `WeightedRowSum` exactly — per element it starts at +0.0f and adds
//     each weighted term in order, as Fill + one Axpy per term does; the
//     AVX2 form keeps a block of the output row in registers.
//   * `AdamStep` exactly — its AVX2 form runs the reference's double-
//     precision expression four lanes at a time, operation for
//     operation: float -> double widening is exact, and IEEE add, mul,
//     div, sqrt and the double -> float narrowing are correctly rounded
//     in packed and scalar form alike. (The step is bound by the divider,
//     which AVX-512 does not widen here.)
//
// Elements never mix in the last four kernels, so their AVX2 forms hand
// the columns past their last full register to the reference itself.
//
// No kernel may fuse a multiply-add into an FMA: an FMA rounds once
// where mul + add rounds twice, so the float kernels (the cosine
// gradient, the weighted row sums, Adam) would compute other bits than
// their references. Every target of the root build is compiled with
// -ffp-contract=off (CMakeLists.txt), and the AVX2 forms are compiled
// with target("avx2") alone, which adds no FMA to a portable build, so
// even a build without that flag has no FMA to fuse into.
//
// tests/test_vec.cc holds every dispatched kernel to these contracts, so
// each host tests the form it runs (AdamStep's test lives in
// tests/test_optimizer.cc, next to the pooled optimizer step it feeds);
// SimdTier() reports which form that is.
#ifndef BSLREC_MATH_VEC_H_
#define BSLREC_MATH_VEC_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace bslrec::vec {

// The form the dispatched kernels run in this process: "avx2" on an
// x86-64 CPU with AVX2, "scalar" (the vec::ref forms) on any other CPU.
// Diagnostic only (recorded into BENCH_*.json machine info).
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

// Always-compiled scalar reference forms of the SIMD-dispatched kernels,
// which a CPU without AVX2 runs. The public kernels below must match
// these bit-for-bit (see the header note); benches compare against them
// to quantify the SIMD win.
namespace ref {
float Dot(const float* a, const float* b, size_t n);
void DotRows(const float* q, const float* table, size_t stride,
             const uint32_t* ids, size_t m, size_t d, float* out);
void DotTile(const double* q, size_t m, const double* rows, size_t n,
             size_t d, float* out, size_t out_stride);
void DotTileF32(const float* q, size_t m, const float* rows, size_t n,
                size_t d, float* out, size_t ld);
size_t IndicesNotBelow(const float* x, size_t n, float t, uint32_t* out);
void AccumulateCosineGradRun(const float* self_hat, const float* others,
                             size_t stride, const uint32_t* idx,
                             const float* scores, const float* scales,
                             size_t m, float* grad, size_t n);
void AccumulateCosineGradRuns(const float* self_hat, const float* others,
                              size_t stride, const uint32_t* idx,
                              const float* scores, const float* scales,
                              const uint32_t* run_ends, size_t num_runs,
                              float* grad, size_t n);
void WeightedRowSum(const float* values, const uint32_t* idx, size_t m,
                    const float* x, size_t stride, float* out, size_t n);
void AdamStep(const AdamCoeffs& c, const float* g, float* w, float* m,
              float* v, size_t n);
}  // namespace ref


// Returns sum_i a[i] * b[i].
float Dot(const float* a, const float* b, size_t n);

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
// bitwise, through the same block kernel. It scores each row against
// the IVF build's centroids (the k-means assignment).
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

// Several runs of cosine-gradient terms into one row, each through its
// own partial: run r holds terms [run_ends[r - 1], run_ends[r]) of the
// idx/scores/scales arrays (run 0 starts at term 0), and for r in
// [0, num_runs), in order,
//   partial = +0.0f;
//   AccumulateCosineGradRun(self_hat, others, stride, <run r's terms>,
//                           partial, n);
//   Axpy(1.0f, partial, grad, n);
// bitwise, which is what vec::ref spells out. An empty run adds +0.0f.
// The runs of one row may be split across several calls (the row is
// reloaded between them) with the same bits. It keeps a block of the
// row, of the partial and of self_hat in registers across every run of
// the call, so a row whose terms fall into many one-term runs (a sampled
// item in the trainer's phase B: about 8 terms in 32 shards) is loaded
// and stored once, not once per run.
void AccumulateCosineGradRuns(const float* self_hat, const float* others,
                              size_t stride, const uint32_t* idx,
                              const float* scores, const float* scales,
                              const uint32_t* run_ends, size_t num_runs,
                              float* grad, size_t n);

// Widens n floats to double (exact): the operand form of DotTile (the
// trainer's in-batch shards).
void Widen(const float* x, size_t n, double* out);

// Tiled scoring of m queries against n rows (both widened with Widen,
// row-major with stride d): out[i * out_stride + j] equals
// Dot(query i, row j, d) over the original float rows, bitwise (see the
// header note). Each widened row is loaded once per block of three
// queries (AVX2) and stays in L1 across the whole query block.
// It scores the trainer's in-batch shards (Algorithm 2: a shard's users
// against the batch's positives), where every score is used.
void DotTile(const double* q, size_t m, const double* rows, size_t n,
             size_t d, float* out, size_t out_stride);

// Single-precision tiled scoring of m queries against n rows, both read
// in place (row-major floats with stride d, no widening):
// out[i * ld + j] is query i . row j summed in float by the fixed tree of
// the header note (eight lanes over the rows zero-padded to a multiple of
// 8 columns). Half of DotTile's multiply-adds, but not Dot's bits:
// |out - Dot| <= DotTileF32Error(d, ||q||_2 * ||row||_2). The top-k
// scan (serve/topk_scorer.h: the catalog's item rows, the IVF centroids
// and list rows) scores each chunk of rows against a query block with
// it, and re-scores with Dot only the rows whose entry lies within that
// bound of the query's running k-th.
void DotTileF32(const float* q, size_t m, const float* rows, size_t n,
                size_t d, float* out, size_t ld);

// An upper bound on |DotTileF32(q, x) - Dot(q, x, d)| over every pair of
// float rows of dim d with ||q||_2 * ||x||_2 <= norm_product, in the
// default floating-point environment (round to nearest, subnormals
// kept). Rounded up to a float. +inf when norm_product is NaN, infinite
// or above 2^100 (where float partial sums could overflow), so a caller
// that skips items on it skips nothing then. vec.cc derives it.
float DotTileF32Error(size_t d, double norm_product);

// Writes, in ascending order, every index i < n with !(x[i] < t) (NaN
// entries included) into `out`, which needs room for n, and returns how
// many it wrote. The top-k scan's skip test over a query's row of a
// DotTileF32 tile. Exact in both forms: the AVX2 form compares eight
// entries at a time and writes the set bits of their mask.
size_t IndicesNotBelow(const float* x, size_t n, float t, uint32_t* out);

// An upper bound on ||x||_2 (sum of squares in double, raised to cover
// its rounding): NaN if x has a NaN, +inf if it has an infinity. The
// operand of DotTileF32Error.
double NormBound(const float* x, size_t n);

// One sparse row times a dense matrix: for j in [0, m), in order,
//   out[k] += values[j] * x[idx[j] * stride + k]   for k in [0, n),
// with out starting at +0.0f. It equals, bitwise, Fill(out, n, 0.0f)
// followed by one Axpy(values[j], x + idx[j] * stride, out, n) per term
// (the +0.0f start turns a -0.0f first product into +0.0f, as that loop
// does), but keeps a block of `out` in registers across all the terms
// instead of loading and storing the row once per term. Repeated ids
// are fine; `out` must not overlap the rows of x it reads. This is the
// row kernel of SparseMatrix::Multiply (one CSR row per call), which
// carries every graph backbone's propagation. A NaN result is NaN
// in both forms, but which operand's payload it carries is not part of
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

// Numerically stable log(sum_j exp(x[j])) over n values.
double LogSumExp(const float* x, size_t n);

// Writes softmax(x) into out (out may alias x). Numerically stable.
void Softmax(const float* x, float* out, size_t n);

}  // namespace bslrec::vec

#endif  // BSLREC_MATH_VEC_H_
