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

void SparseMatrix::MultiplyRowRange(const Matrix& x, Matrix& out,
                                    size_t row_begin, size_t row_end) const {
  BSLREC_CHECK(out.cols() == x.cols());
  for (size_t r = row_begin; r < row_end; ++r) MultiplyRow(x, r, out.Row(r));
}

void SparseMatrix::MultiplyRow(const Matrix& x, size_t r, float* out) const {
  // The row kernel reads x's rows unchecked; CSR ids are < cols().
  BSLREC_CHECK(x.rows() == cols_ && r < rows_);
  const size_t lo = row_offsets_[r];
  vec::WeightedRowSum(values_.data() + lo, col_indices_.data() + lo,
                      row_offsets_[r + 1] - lo, x.data(), x.cols(), out,
                      x.cols());
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
  // Index-free scatter: accumulation into output row c happens in
  // increasing source-row order.
  const size_t d = x.cols();
  out.SetZero();
  for (size_t r = 0; r < rows_; ++r) {
    const float* x_row = x.Row(r);
    for (size_t k = row_offsets_[r]; k < row_offsets_[r + 1]; ++k) {
      vec::Axpy(values_[k], x_row, out.Row(col_indices_[k]), d);
    }
  }
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

void PropagationEngine::MeanPropagate(const SparseMatrix& adjacency,
                                      const Matrix& base, int num_layers,
                                      Matrix& out) {
  BSLREC_CHECK(num_layers >= 0);
  BSLREC_CHECK(adjacency.rows() == base.rows() &&
               adjacency.cols() == base.rows());
  BSLREC_CHECK(&out != &base);
  if (num_layers == 0) {
    out = base;  // vector copy-assign: no realloc once sized
    return;
  }
  if (out.rows() != base.rows() || out.cols() != base.cols()) {
    out = Matrix(base.rows(), base.cols());
  }
  MeanOfPowers(adjacency, base, num_layers, out, nullptr);
}

void PropagationEngine::MeanPropagateAccum(const SparseMatrix& adjacency,
                                           const Matrix& grad, int num_layers,
                                           Matrix& accum) {
  BSLREC_CHECK(num_layers >= 0);
  BSLREC_CHECK(adjacency.rows() == grad.rows() &&
               adjacency.cols() == grad.rows());
  BSLREC_CHECK(accum.rows() == grad.rows() && accum.cols() == grad.cols());
  BSLREC_CHECK(&accum != &grad);
  const size_t d = grad.cols();
  if (num_layers == 0) {
    For(0, grad.rows(), row_grain_, [&](size_t lo, size_t hi, size_t, size_t) {
      for (size_t r = lo; r < hi; ++r) {
        vec::Axpy(1.0f, grad.Row(r), accum.Row(r), d);
      }
    });
    return;
  }
  // The running sum of the hops before the last lives in accum_ws_; at
  // L = 1 there is none (the last hop reads grad itself).
  if (num_layers >= 2 &&
      (accum_ws_.rows() != grad.rows() || accum_ws_.cols() != d)) {
    accum_ws_ = Matrix(grad.rows(), d);
  }
  MeanOfPowers(adjacency, grad, num_layers, accum_ws_, &accum);
}

void PropagationEngine::MeanOfPowers(const SparseMatrix& adjacency,
                                     const Matrix& x, int num_layers,
                                     Matrix& sum, Matrix* accum) {
  const size_t n = x.rows();
  const size_t d = x.cols();
  const size_t workers = pool_ != nullptr ? pool_->num_workers() : 1;
  if (row_ws_.size() < workers * d) row_ws_.resize(workers * d);
  const auto ensure = [&](Matrix& m) {
    if (m.rows() != n || m.cols() != d) m = Matrix(n, d);
  };
  // Hops 1 .. L-1 write whole tables, since the next hop reads any row of
  // them: hop 1 reads x in place into next_ and starts the running sum,
  // sum[r] = x[r] + h1[r] (what `sum = x` and one Axpy(1.0f, h1, sum)
  // compute); later hops ping-pong between next_ and cur_ and Axpy
  // their row into sum, each in the shard that computed it.
  const Matrix* in = &x;
  const Matrix* prev = &x;  // the running sum the last hop finishes
  if (num_layers >= 2) {
    ensure(next_);
    For(0, n, row_grain_, [&](size_t lo, size_t hi, size_t, size_t) {
      adjacency.MultiplyRowRange(x, next_, lo, hi);
      for (size_t r = lo; r < hi; ++r) {
        vec::Add(x.Row(r), next_.Row(r), sum.Row(r), d);
      }
    });
    in = &next_;
    prev = &sum;
  }
  if (num_layers >= 3) ensure(cur_);
  for (int layer = 2; layer < num_layers; ++layer) {
    Matrix& hop = in == &next_ ? cur_ : next_;
    For(0, n, row_grain_, [&](size_t lo, size_t hi, size_t, size_t) {
      adjacency.MultiplyRowRange(*in, hop, lo, hi);
      for (size_t r = lo; r < hi; ++r) {
        vec::Axpy(1.0f, hop.Row(r), sum.Row(r), d);
      }
    });
    in = &hop;
  }
  // The last hop: each row into its worker's d floats, finished in the
  // same shard as (prev[r] + h_L[r]) * inv, then stored into sum's row
  // r, or Axpy'd into accum's (the separate scale and accumulate passes
  // of the operator's definition, row by row).
  const float inv = 1.0f / static_cast<float>(num_layers + 1);
  For(0, n, row_grain_, [&](size_t lo, size_t hi, size_t, size_t worker) {
    float* row = row_ws_.data() + worker * d;
    for (size_t r = lo; r < hi; ++r) {
      adjacency.MultiplyRow(*in, r, row);
      const float* pr = prev->Row(r);
      float* dst = accum != nullptr ? row : sum.Row(r);
      for (size_t k = 0; k < d; ++k) dst[k] = (pr[k] + row[k]) * inv;
      if (accum != nullptr) vec::Axpy(1.0f, row, accum->Row(r), d);
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
