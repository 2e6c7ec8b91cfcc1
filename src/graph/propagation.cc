#include "graph/propagation.h"

#include <algorithm>
#include <numeric>

#include "math/check.h"
#include "math/vec.h"

namespace bslrec {

SparseMatrix::SparseMatrix(size_t rows, size_t cols,
                           const std::vector<uint32_t>& coo_rows,
                           const std::vector<uint32_t>& coo_cols,
                           const std::vector<float>& coo_vals)
    : rows_(rows), cols_(cols) {
  BSLREC_CHECK(coo_rows.size() == coo_cols.size() &&
               coo_rows.size() == coo_vals.size());
  const size_t nnz_in = coo_rows.size();

  // Sort triplet indices by (row, col) so duplicates are adjacent.
  std::vector<size_t> order(nnz_in);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (coo_rows[a] != coo_rows[b]) return coo_rows[a] < coo_rows[b];
    return coo_cols[a] < coo_cols[b];
  });

  row_offsets_.assign(rows + 1, 0);
  col_indices_.reserve(nnz_in);
  values_.reserve(nnz_in);
  uint32_t prev_row = 0, prev_col = 0;
  bool have_prev = false;
  for (size_t n = 0; n < nnz_in; ++n) {
    const size_t k = order[n];
    const uint32_t r = coo_rows[k];
    const uint32_t c = coo_cols[k];
    BSLREC_CHECK(r < rows && c < cols);
    if (have_prev && r == prev_row && c == prev_col) {
      values_.back() += coo_vals[k];  // merge duplicate entry
      continue;
    }
    col_indices_.push_back(c);
    values_.push_back(coo_vals[k]);
    ++row_offsets_[r + 1];
    prev_row = r;
    prev_col = c;
    have_prev = true;
  }
  for (size_t r = 0; r < rows; ++r) row_offsets_[r + 1] += row_offsets_[r];
}

void SparseMatrix::EnsureTransposeIndex() const {
  if (transpose_built_) return;
  // Column-compressed transpose index. Filling in row-major order leaves
  // each column's entries sorted by row, which preserves the summation
  // order of the classic scatter-based A^T*X (see header design notes).
  const size_t nnz = values_.size();
  col_offsets_.assign(cols_ + 1, 0);
  for (uint32_t c : col_indices_) ++col_offsets_[c + 1];
  for (size_t c = 0; c < cols_; ++c) col_offsets_[c + 1] += col_offsets_[c];
  row_indices_.resize(nnz);
  col_values_.resize(nnz);
  std::vector<size_t> cursor(col_offsets_.begin(), col_offsets_.end() - 1);
  for (size_t r = 0; r < rows_; ++r) {
    for (size_t k = row_offsets_[r]; k < row_offsets_[r + 1]; ++k) {
      const size_t pos = cursor[col_indices_[k]]++;
      row_indices_[pos] = static_cast<uint32_t>(r);
      col_values_[pos] = values_[k];
    }
  }
  transpose_built_ = true;
}

void SparseMatrix::MultiplyRowRange(const Matrix& x, Matrix& out,
                                    size_t row_begin, size_t row_end) const {
  const size_t d = x.cols();
  // The row kernel reads x's rows unchecked; CSR ids are < cols().
  BSLREC_CHECK(x.rows() == cols_ && out.cols() == d);
  for (size_t r = row_begin; r < row_end; ++r) {
    const size_t lo = row_offsets_[r];
    vec::WeightedRowSum(values_.data() + lo, col_indices_.data() + lo,
                        row_offsets_[r + 1] - lo, x.data(), d, out.Row(r), d);
  }
}

void SparseMatrix::TransposeMultiplyRowRange(const Matrix& x, Matrix& out,
                                             size_t row_begin,
                                             size_t row_end) const {
  EnsureTransposeIndex();  // no-op after the first transpose product
  const size_t d = x.cols();
  BSLREC_CHECK(x.rows() == rows_ && out.cols() == d);
  for (size_t c = row_begin; c < row_end; ++c) {
    const size_t lo = col_offsets_[c];
    vec::WeightedRowSum(col_values_.data() + lo, row_indices_.data() + lo,
                        col_offsets_[c + 1] - lo, x.data(), d, out.Row(c), d);
  }
}

void SparseMatrix::Multiply(const Matrix& x, Matrix& out) const {
  BSLREC_CHECK(x.rows() == cols_ && out.rows() == rows_ &&
               x.cols() == out.cols());
  MultiplyRowRange(x, out, 0, rows_);
}

void SparseMatrix::Multiply(const Matrix& x, Matrix& out,
                            runtime::ThreadPool& pool,
                            size_t row_grain) const {
  BSLREC_CHECK(x.rows() == cols_ && out.rows() == rows_ &&
               x.cols() == out.cols());
  runtime::ParallelFor(pool, 0, rows_, row_grain,
                       [&](size_t lo, size_t hi, size_t /*shard*/,
                           size_t /*worker*/) {
                         MultiplyRowRange(x, out, lo, hi);
                       });
}

void SparseMatrix::TransposeMultiply(const Matrix& x, Matrix& out) const {
  BSLREC_CHECK(x.rows() == rows_ && out.rows() == cols_ &&
               x.cols() == out.cols());
  // Index-free scatter: serial-only callers (e.g. the SVD's one-shot
  // products) never pay for the CSC index. Accumulation into output row
  // c happens in increasing source-row order — exactly the gather order
  // of TransposeMultiplyRowRange, so the two paths are bit-identical
  // (locked by tests/test_propagation_engine.cc).
  const size_t d = x.cols();
  out.SetZero();
  for (size_t r = 0; r < rows_; ++r) {
    const float* x_row = x.Row(r);
    for (size_t k = row_offsets_[r]; k < row_offsets_[r + 1]; ++k) {
      vec::Axpy(values_[k], x_row, out.Row(col_indices_[k]), d);
    }
  }
}

void SparseMatrix::TransposeMultiply(const Matrix& x, Matrix& out,
                                     runtime::ThreadPool& pool,
                                     size_t row_grain) const {
  BSLREC_CHECK(x.rows() == rows_ && out.rows() == cols_ &&
               x.cols() == out.cols());
  EnsureTransposeIndex();  // build on the calling thread, not in a task
  runtime::ParallelFor(pool, 0, cols_, row_grain,
                       [&](size_t lo, size_t hi, size_t /*shard*/,
                           size_t /*worker*/) {
                         TransposeMultiplyRowRange(x, out, lo, hi);
                       });
}

namespace graph {

PropagationEngine::PropagationEngine(runtime::ThreadPool* pool,
                                     size_t row_grain)
    : pool_(pool), row_grain_(row_grain) {
  BSLREC_CHECK(row_grain > 0);
}

void PropagationEngine::For(
    size_t begin, size_t end, size_t grain,
    const std::function<void(size_t, size_t, size_t, size_t)>& fn) const {
  if (pool_ != nullptr) {
    runtime::ParallelFor(*pool_, begin, end, grain, fn);
    return;
  }
  // Inline fallback with runtime::ParallelFor's exact shard boundaries,
  // executed in shard order on the calling thread (worker 0).
  BSLREC_CHECK(grain > 0);
  size_t shard = 0;
  for (size_t lo = begin; lo < end; lo += grain, ++shard) {
    fn(lo, std::min(end, lo + grain), shard, 0);
  }
}

void PropagationEngine::Multiply(const SparseMatrix& a, const Matrix& x,
                                 Matrix& out) const {
  BSLREC_CHECK(x.rows() == a.cols() && out.rows() == a.rows() &&
               x.cols() == out.cols());
  For(0, a.rows(), row_grain_,
      [&](size_t lo, size_t hi, size_t, size_t) {
        a.MultiplyRowRange(x, out, lo, hi);
      });
}

void PropagationEngine::TransposeMultiply(const SparseMatrix& a,
                                          const Matrix& x,
                                          Matrix& out) const {
  // Delegate so the lazy CSC index is built on the calling thread
  // before any task shard touches it.
  if (pool_ != nullptr) {
    a.TransposeMultiply(x, out, *pool_, row_grain_);
  } else {
    a.TransposeMultiply(x, out);
  }
}

void PropagationEngine::MeanPropagate(const SparseMatrix& adjacency,
                                      const Matrix& base, int num_layers,
                                      Matrix& out) {
  BSLREC_CHECK(num_layers >= 0);
  BSLREC_CHECK(adjacency.rows() == base.rows() &&
               adjacency.cols() == base.rows());
  BSLREC_CHECK(&out != &base);
  const size_t n = base.rows();
  const size_t d = base.cols();
  out = base;  // layer-0 term (vector copy-assign: no realloc once sized)
  if (num_layers == 0) return;
  cur_ = base;
  if (next_.rows() != n || next_.cols() != d) next_ = Matrix(n, d);
  for (int layer = 1; layer <= num_layers; ++layer) {
    // Fused hop + readout accumulate: each shard owns a disjoint row
    // range of both `next_` and `out`, so the fusion keeps the
    // sharded-rows determinism contract.
    For(0, n, row_grain_, [&](size_t lo, size_t hi, size_t, size_t) {
      adjacency.MultiplyRowRange(cur_, next_, lo, hi);
      for (size_t r = lo; r < hi; ++r) {
        vec::Axpy(1.0f, next_.Row(r), out.Row(r), d);
      }
    });
    std::swap(cur_, next_);
  }
  const float inv = 1.0f / static_cast<float>(num_layers + 1);
  For(0, n, row_grain_, [&](size_t lo, size_t hi, size_t, size_t) {
    for (size_t r = lo; r < hi; ++r) vec::Scale(out.Row(r), d, inv);
  });
}

void PropagationEngine::MeanPropagateAccum(const SparseMatrix& adjacency,
                                           const Matrix& grad, int num_layers,
                                           Matrix& accum) {
  BSLREC_CHECK(accum.rows() == grad.rows() && accum.cols() == grad.cols());
  MeanPropagate(adjacency, grad, num_layers, accum_ws_);
  const size_t d = grad.cols();
  For(0, grad.rows(), row_grain_, [&](size_t lo, size_t hi, size_t, size_t) {
    for (size_t r = lo; r < hi; ++r) {
      vec::Axpy(1.0f, accum_ws_.Row(r), accum.Row(r), d);
    }
  });
}

void PropagationEngine::DenseMatMul(const Matrix& a, const Matrix& b,
                                    Matrix& out, bool accumulate) const {
  BSLREC_CHECK(a.cols() == b.rows() && out.rows() == a.rows() &&
               out.cols() == b.cols());
  For(0, a.rows(), row_grain_, [&](size_t lo, size_t hi, size_t, size_t) {
    if (!accumulate) {
      for (size_t r = lo; r < hi; ++r) {
        vec::Fill(out.Row(r), out.cols(), 0.0f);
      }
    }
    MatMulAccumRowRange(a, b, out, lo, hi);
  });
}

void PropagationEngine::DenseMatMulTAccum(const Matrix& a, const Matrix& b,
                                          Matrix& out) const {
  BSLREC_CHECK(a.cols() == b.cols() && out.rows() == a.rows() &&
               out.cols() == b.rows());
  For(0, a.rows(), row_grain_, [&](size_t lo, size_t hi, size_t, size_t) {
    MatMulTAccumRowRange(a, b, out, lo, hi);
  });
}

Matrix& PropagationEngine::Workspace(size_t slot, size_t rows, size_t cols) {
  if (workspace_.size() <= slot) workspace_.resize(slot + 1);
  Matrix& m = workspace_[slot];
  if (m.rows() != rows || m.cols() != cols) m = Matrix(rows, cols);
  return m;
}

}  // namespace graph
}  // namespace bslrec
