// Sparse matrix kernels and the deterministic parallel propagation engine.
//
// Graph-based backbones (NGCF, LightGCN, SGL, SimGCL, LightGCL) propagate
// embeddings through the normalized bipartite adjacency. `SparseMatrix` is
// a CSR matrix with the products the models need — A*X, sharded across a
// `runtime::ThreadPool`, and a serial A^T*X — over row-major dense
// matrices, and `graph::PropagationEngine` layers multi-hop propagation
// with layer combination on top.
//
// ========================== Design notes ==============================
//
// Sharded-rows determinism contract
//   Every parallel kernel in this module shards the *output rows* of the
//   product into fixed-size contiguous ranges (`row_grain` rows per
//   shard) via `runtime::ParallelFor`. Each output row is produced by
//   exactly one shard, no two shards touch the same row, and within a
//   row the nonzeros are accumulated in CSR storage order by the same
//   row kernel the serial path uses (`vec::WeightedRowSum`: +0.0f, then
//   each weighted input row added in order, bitwise one `vec::Axpy` per
//   nonzero into a zeroed row, with the output row held in registers).
//   The floating-point summation tree of every output element is
//   therefore a pure function of the matrix and the input — never of
//   the worker count, the shard grain, or OS scheduling — so the
//   parallel products are *bit identical* to the serial ones for any
//   pool size (the contract documented atop
//   src/runtime/thread_pool.h).
//
// PropagationEngine
//   The engine owns (a pointer to) the pool plus persistent ping-pong
//   and named workspace matrices, so repeated Forward/Backward passes
//   through a model allocate nothing after the first call. A null pool
//   runs every shard inline on the calling thread in shard order —
//   useful for standalone models — and produces the same bits as any
//   pool, by the contract above. One engine must be driven from one
//   thread at a time, and never from inside a pool task (no nested Run).
// ======================================================================
#ifndef BSLREC_GRAPH_PROPAGATION_H_
#define BSLREC_GRAPH_PROPAGATION_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "math/matrix.h"
#include "runtime/thread_pool.h"

namespace bslrec {

class SparseMatrix {
 public:
  SparseMatrix() = default;

  // Builds a rows x cols CSR matrix from COO triplets. Duplicate entries
  // are summed.
  SparseMatrix(size_t rows, size_t cols,
               const std::vector<uint32_t>& coo_rows,
               const std::vector<uint32_t>& coo_cols,
               const std::vector<float>& coo_vals);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t nnz() const { return values_.size(); }

  // out = this * x. Requires x.rows() == cols(), out.rows() == rows(),
  // matching column counts. `out` is overwritten.
  void Multiply(const Matrix& x, Matrix& out) const;
  // Pool-parallel variant: output rows are split into fixed `row_grain`
  // shards; bit-identical to the serial product for any worker count.
  void Multiply(const Matrix& x, Matrix& out, runtime::ThreadPool& pool,
                size_t row_grain) const;

  // out = this^T * x, serially: an index-free scatter, one vec::Axpy per
  // nonzero in CSR order. Requires x.rows() == rows(), out.rows() ==
  // cols(). The truncated SVD's products use it.
  void TransposeMultiply(const Matrix& x, Matrix& out) const;

  // Row-range kernel shared by the serial and sharded paths: overwrites
  // output rows [row_begin, row_end) of A*X. Both Multiply overloads
  // funnel through it, which is what makes parallel == serial.
  void MultiplyRowRange(const Matrix& x, Matrix& out, size_t row_begin,
                        size_t row_end) const;
  // Row r of A*X into out (x.cols() floats), by the same row kernel:
  // the propagation engine's last hop, which finishes each row where it
  // is computed instead of storing a whole table.
  void MultiplyRow(const Matrix& x, size_t r, float* out) const;

  // Row iteration helpers (used by tests and by the SVD).
  const std::vector<size_t>& row_offsets() const { return row_offsets_; }
  const std::vector<uint32_t>& col_indices() const { return col_indices_; }
  const std::vector<float>& values() const { return values_; }

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  std::vector<size_t> row_offsets_;
  std::vector<uint32_t> col_indices_;
  std::vector<float> values_;
};

namespace graph {

// Rows per shard for the parallel kernels. Chosen so a shard's work
// (grain x dim x avg-degree flops) comfortably exceeds the pool's task
// dispatch cost at the library's typical dims; results do not depend on
// it (see the determinism contract above).
inline constexpr size_t kDefaultRowGrain = 128;

// Deterministic parallel multi-hop propagation with persistent scratch.
//
// The engine is the single seam through which every graph backbone's
// forward and backward pass runs its heavy linear algebra. It borrows a
// pool (never owns one) so the trainer's `--threads` governs propagation
// too, and it keeps ping-pong buffers plus caller-named workspace
// matrices alive across calls so steady-state passes do not allocate.
class PropagationEngine {
 public:
  // `pool` may be null (inline execution) and must outlive the engine.
  explicit PropagationEngine(runtime::ThreadPool* pool = nullptr,
                             size_t row_grain = kDefaultRowGrain);

  // Swaps the pool the engine drives; null reverts to inline execution.
  // Results are unaffected (sharded-rows contract above).
  void SetPool(runtime::ThreadPool* pool) { pool_ = pool; }
  runtime::ThreadPool* pool() const { return pool_; }
  size_t row_grain() const { return row_grain_; }

  // out = a * x, sharded through the pool. out is overwritten.
  void Multiply(const SparseMatrix& a, const Matrix& x, Matrix& out) const;

  // Mean-of-powers layer combination (the LightGCN readout, also the
  // per-layer trunk the contrastive views reuse):
  //   out = 1/(L+1) * sum_{k=0..L} A^k base,
  // bitwise the loop out = base; cur = base; L times { next = A * cur;
  // Axpy(1.0f, next, out); swap(cur, next) }; Scale(out, 1/(L+1)), but
  // without its copies and whole-table passes: hop 1 reads `base` where
  // it is and starts `out` as base + h1, and the last hop finishes each
  // row of `out` in the shard that computes it (L = 0 copies base).
  // Buffers: the engine's next_ holds h1 (L >= 2) and its cur_ the
  // hops after it, ping-ponging with next_ (L >= 3 only); the last hop
  // writes one row at a time into a d-float buffer per worker. `out`
  // must not alias `base`.
  void MeanPropagate(const SparseMatrix& adjacency, const Matrix& base,
                     int num_layers, Matrix& out);

  // accum += 1/(L+1) * sum_{k=0..L} A^k grad — the backward form (the
  // mean-of-powers operator is symmetric for symmetric A), bitwise
  // MeanPropagate into a staging table followed by Axpy(1.0f) of each
  // of its rows into accum. The last hop adds each finished row into
  // accum in its own shard, so the staging table (an engine workspace)
  // only holds the running sum of the hops before the last, and exists
  // only for L >= 2. `accum` must not alias `grad`.
  void MeanPropagateAccum(const SparseMatrix& adjacency, const Matrix& grad,
                          int num_layers, Matrix& accum);

  // Row-sharded dense products (NGCF's layer transforms). Deterministic
  // for any worker count: output rows are disjoint.
  //   MatMul:       out = a * b     (accumulate=false) / out += a * b
  //   MatMulTAccum: out += a * b^T
  void DenseMatMul(const Matrix& a, const Matrix& b, Matrix& out,
                   bool accumulate) const;
  void DenseMatMulTAccum(const Matrix& a, const Matrix& b, Matrix& out) const;

  // Deterministic sharded loop: same shard boundaries as
  // runtime::ParallelFor; runs inline in shard order when the engine has
  // no pool. fn(shard_begin, shard_end, shard_index, worker_id).
  void For(size_t begin, size_t end, size_t grain,
           const std::function<void(size_t, size_t, size_t, size_t)>& fn)
      const;

  // Persistent named workspace: returns the matrix registered under
  // `slot`, reshaping (and zero-filling) it only when the requested
  // shape differs from the cached one. Contents are otherwise preserved
  // from the previous call — callers that need zeros must clear. The
  // returned reference stays valid across later Workspace calls (the
  // store is a deque: growing it never moves existing slots).
  Matrix& Workspace(size_t slot, size_t rows, size_t cols);

 private:
  // Hops 1..L (L >= 1) of the mean of powers over x. Every hop but the
  // last writes a table, and sum[r] collects x[r] and those hops' rows.
  // The last hop finishes row r as (sum[r] + h_L[r]) * inv (x[r] in
  // place of sum[r] at L = 1) and stores it into sum's row r, or, with a
  // non-null accum, adds it into accum's row r.
  void MeanOfPowers(const SparseMatrix& adjacency, const Matrix& x,
                    int num_layers, Matrix& sum, Matrix* accum);

  runtime::ThreadPool* pool_;
  size_t row_grain_;
  Matrix cur_, next_;   // mean-propagate ping-pong buffers
  Matrix accum_ws_;     // MeanPropagateAccum's running sum (L >= 2)
  std::vector<float> row_ws_;  // the last hop's row, d floats per worker
  std::deque<Matrix> workspace_;
};

}  // namespace graph
}  // namespace bslrec

#endif  // BSLREC_GRAPH_PROPAGATION_H_
