// Sparse matrix kernels and the deterministic parallel propagation engine.
//
// Graph-based backbones (NGCF, LightGCN, SGL, SimGCL, LightGCL) propagate
// embeddings through the normalized bipartite adjacency. `SparseMatrix` is
// a CSR matrix with the two products the models need — A*X and A^T*X over
// row-major dense matrices — and `graph::PropagationEngine` layers
// multi-hop propagation with layer combination on top, fanning the work
// across a `runtime::ThreadPool`.
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
//   A^T*X is made row-shardable by a column-compressed (CSC) view of the
//   matrix, built lazily on the first transpose product (edge-dropped
//   adjacencies drawn per batch never pay for it — their operator is
//   symmetric): gathering column c's entries in increasing row order
//   reproduces, bit for bit, the order in which the classic row-major
//   scatter would have accumulated into output row c.
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

  // out = this^T * x. Requires x.rows() == rows(), out.rows() == cols().
  // The serial overload is an index-free scatter; the pool overload
  // gathers through the CSC index, building it on the first call (one
  // O(nnz) pass on the calling thread, cached thereafter — that first
  // call must not race with other operations on the same matrix). Both
  // orders coincide, so the overloads are bit-identical.
  void TransposeMultiply(const Matrix& x, Matrix& out) const;
  void TransposeMultiply(const Matrix& x, Matrix& out,
                         runtime::ThreadPool& pool, size_t row_grain) const;

  // Row-range kernels shared by the serial and sharded paths: overwrite
  // output rows [row_begin, row_end) of A*X (resp. A^T*X). All variants
  // above funnel through these, which is what makes parallel == serial.
  void MultiplyRowRange(const Matrix& x, Matrix& out, size_t row_begin,
                        size_t row_end) const;
  void TransposeMultiplyRowRange(const Matrix& x, Matrix& out,
                                 size_t row_begin, size_t row_end) const;

  // Row iteration helpers (used by tests and by the SVD).
  const std::vector<size_t>& row_offsets() const { return row_offsets_; }
  const std::vector<uint32_t>& col_indices() const { return col_indices_; }
  const std::vector<float>& values() const { return values_; }

 private:
  // Builds the CSC transpose index if absent. Lazy (and `mutable`)
  // because most matrices — notably the per-batch edge-dropped
  // adjacencies — never take a transpose product; not thread-safe on
  // the building call (see TransposeMultiply).
  void EnsureTransposeIndex() const;

  size_t rows_ = 0;
  size_t cols_ = 0;
  std::vector<size_t> row_offsets_;
  std::vector<uint32_t> col_indices_;
  std::vector<float> values_;
  // Column-compressed transpose index: column c's entries live at
  // [col_offsets_[c], col_offsets_[c+1]) in increasing row order, with
  // values copied out so the gather runs without indirection.
  mutable bool transpose_built_ = false;
  mutable std::vector<size_t> col_offsets_;
  mutable std::vector<uint32_t> row_indices_;
  mutable std::vector<float> col_values_;
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

  // Sharded products through the pool. out is overwritten.
  void Multiply(const SparseMatrix& a, const Matrix& x, Matrix& out) const;
  void TransposeMultiply(const SparseMatrix& a, const Matrix& x,
                         Matrix& out) const;

  // Mean-of-powers layer combination (the LightGCN readout, also the
  // per-layer trunk the contrastive views reuse):
  //   out = 1/(L+1) * sum_{k=0..L} A^k base.
  // `out` must not alias `base`. Scratch comes from the engine.
  void MeanPropagate(const SparseMatrix& adjacency, const Matrix& base,
                     int num_layers, Matrix& out);

  // accum += 1/(L+1) * sum_{k=0..L} A^k grad — the backward form (the
  // mean-of-powers operator is symmetric for symmetric A). Uses an
  // internal workspace; `accum` must not alias `grad`.
  void MeanPropagateAccum(const SparseMatrix& adjacency, const Matrix& grad,
                          int num_layers, Matrix& accum);

  // Per-layer propagation for backbones that combine layers themselves
  // (NGCF's per-layer transform path): writes A*x into `out` only.
  // Identical to Multiply; named for intent at call sites.
  void PropagateLayer(const SparseMatrix& adjacency, const Matrix& x,
                      Matrix& out) const {
    Multiply(adjacency, x, out);
  }

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
  runtime::ThreadPool* pool_;
  size_t row_grain_;
  Matrix cur_, next_;   // mean-propagate ping-pong buffers
  Matrix accum_ws_;     // MeanPropagateAccum staging buffer
  std::deque<Matrix> workspace_;
};

}  // namespace graph
}  // namespace bslrec

#endif  // BSLREC_GRAPH_PROPAGATION_H_
