#include "models/ngcf.h"

#include <cstring>

#include "math/check.h"
#include "math/vec.h"

namespace bslrec {

namespace {

inline float LeakyRelu(float x) {
  return x > 0.0f ? x : NgcfModel::kLeakySlope * x;
}

inline float LeakyReluGrad(float pre_activation) {
  return pre_activation > 0.0f ? 1.0f : NgcfModel::kLeakySlope;
}

}  // namespace

NgcfModel::NgcfModel(const BipartiteGraph& graph, size_t dim, int num_layers,
                     Rng& rng)
    : EmbeddingModel(graph.num_users(), graph.num_items(), dim),
      graph_(graph),
      num_layers_(num_layers),
      base_(graph.num_nodes(), dim),
      base_grad_(graph.num_nodes(), dim) {
  BSLREC_CHECK(num_layers >= 1);
  base_.InitXavierUniform(rng);
  w1_.reserve(num_layers);
  w2_.reserve(num_layers);
  for (int l = 0; l < num_layers; ++l) {
    w1_.emplace_back(dim, dim);
    w2_.emplace_back(dim, dim);
    w1_.back().InitXavierUniform(rng);
    w2_.back().InitXavierUniform(rng);
    w1_grad_.emplace_back(dim, dim);
    w2_grad_.emplace_back(dim, dim);
  }
  // Preallocate the forward caches so Forward never allocates. The
  // reverse-pass buffers are sized lazily on the first Backward — a
  // forward-only model (checkpoint-load-and-serve) never pays for them.
  const size_t n = graph.num_nodes();
  e_.assign(num_layers + 1, Matrix(n, dim));
  s_.assign(num_layers, Matrix(n, dim));
  h_.assign(num_layers, Matrix(n, dim));
  combined_ = Matrix(n, dim);
  x1_ = Matrix(n, dim);
  x2_ = Matrix(n, dim);
}

void NgcfModel::EnsureBackwardBuffers() {
  const size_t n = graph_.num_nodes();
  if (grad_readout_.rows() == n && grad_readout_.cols() == dim_) return;
  d_e_.assign(num_layers_ + 1, Matrix(n, dim_));
  grad_readout_ = Matrix(n, dim_);
  dh_ = Matrix(n, dim_);
  dx_ = Matrix(n, dim_);
  ds_ = Matrix(n, dim_);
  prop_ = Matrix(n, dim_);
  tmp_w_ = Matrix(dim_, dim_);
}

void NgcfModel::SetRuntime(runtime::ThreadPool* pool) {
  engine_.SetPool(pool);
}

void NgcfModel::Forward(Rng&) {
  const size_t n = graph_.num_nodes();
  const size_t d = dim_;
  const size_t grain = engine_.row_grain();
  e_[0] = base_;
  for (int l = 0; l < num_layers_; ++l) {
    const Matrix& e = e_[l];
    Matrix& s = s_[l];
    engine_.Multiply(graph_.Adjacency(), e, s);
    // x1 = e + s; x2 = s ⊙ e (element-wise, row-disjoint shards).
    engine_.For(0, n, grain, [&](size_t lo, size_t hi, size_t, size_t) {
      for (size_t k = lo * d; k < hi * d; ++k) {
        x1_.data()[k] = e.data()[k] + s.data()[k];
        x2_.data()[k] = s.data()[k] * e.data()[k];
      }
    });
    Matrix& h = h_[l];
    engine_.DenseMatMul(x1_, w1_[l], h, /*accumulate=*/false);
    engine_.DenseMatMul(x2_, w2_[l], h, /*accumulate=*/true);
    Matrix& next = e_[l + 1];
    engine_.For(0, n, grain, [&](size_t lo, size_t hi, size_t, size_t) {
      for (size_t k = lo * d; k < hi * d; ++k) {
        next.data()[k] = LeakyRelu(h.data()[k]);
      }
    });
  }
  // Readout: mean over layers 0..L.
  const float inv = 1.0f / static_cast<float>(e_.size());
  engine_.For(0, n, grain, [&](size_t lo, size_t hi, size_t, size_t) {
    for (size_t k = lo * d; k < hi * d; ++k) {
      float acc = 0.0f;
      for (const Matrix& e : e_) acc += e.data()[k];
      combined_.data()[k] = acc * inv;
    }
  });

  for (uint32_t u = 0; u < num_users_; ++u) {
    std::memcpy(final_user_.Row(u), combined_.Row(u), d * sizeof(float));
  }
  for (uint32_t i = 0; i < num_items_; ++i) {
    std::memcpy(final_item_.Row(i), combined_.Row(num_users_ + i),
                d * sizeof(float));
  }
  forward_ran_ = true;
}

void NgcfModel::Backward() {
  BSLREC_CHECK_MSG(forward_ran_, "Backward called before Forward");
  EnsureBackwardBuffers();
  const size_t n = graph_.num_nodes();
  const size_t d = dim_;
  const size_t grain = engine_.row_grain();
  const float inv = 1.0f / static_cast<float>(num_layers_ + 1);

  // Gradient w.r.t. the mean readout reaches every layer output equally.
  for (uint32_t u = 0; u < num_users_; ++u) {
    std::memcpy(grad_readout_.Row(u), grad_user_.Row(u), d * sizeof(float));
  }
  for (uint32_t i = 0; i < num_items_; ++i) {
    std::memcpy(grad_readout_.Row(num_users_ + i), grad_item_.Row(i),
                d * sizeof(float));
  }
  for (size_t k = 0; k < grad_readout_.size(); ++k) {
    grad_readout_.data()[k] *= inv;
  }

  // d_e_[l]: accumulated gradient at E^l. Start with the readout share.
  for (size_t l = 0; l < e_.size(); ++l) d_e_[l] = grad_readout_;

  for (int l = num_layers_ - 1; l >= 0; --l) {
    const Matrix& e = e_[l];
    const Matrix& s = s_[l];
    const Matrix& h = h_[l];
    Matrix& d_e = d_e_[l];
    const Matrix& d_next = d_e_[l + 1];
    // dH = dE^{l+1} ⊙ LeakyReLU'(H); recompute the cheap forward
    // intermediates x1, x2 in the same row-disjoint pass.
    engine_.For(0, n, grain, [&](size_t lo, size_t hi, size_t, size_t) {
      for (size_t k = lo * d; k < hi * d; ++k) {
        dh_.data()[k] = d_next.data()[k] * LeakyReluGrad(h.data()[k]);
        x1_.data()[k] = e.data()[k] + s.data()[k];
        x2_.data()[k] = s.data()[k] * e.data()[k];
      }
    });
    // Weight grads: dW1 += x1^T dH, dW2 += x2^T dH. These are full-column
    // reductions over all n rows — kept serial so the summation tree is
    // fixed (d x d outputs; negligible next to the row-sharded products).
    MatTMul(x1_, dh_, tmp_w_);
    w1_grad_[l].AddScaled(tmp_w_, 1.0f);
    MatTMul(x2_, dh_, tmp_w_);
    w2_grad_[l].AddScaled(tmp_w_, 1.0f);
    // dX1 = dH W1^T; dX2 = dH W2^T.
    dx_.SetZero();
    engine_.DenseMatMulTAccum(dh_, w1_[l], dx_);  // dx = dX1
    // Self path: dE^l += dX1; neighbor path seeds dS = dX1.
    engine_.For(0, n, grain, [&](size_t lo, size_t hi, size_t, size_t) {
      for (size_t k = lo * d; k < hi * d; ++k) {
        d_e.data()[k] += dx_.data()[k];
        ds_.data()[k] = dx_.data()[k];
      }
    });
    dx_.SetZero();
    engine_.DenseMatMulTAccum(dh_, w2_[l], dx_);  // dx = dX2
    engine_.For(0, n, grain, [&](size_t lo, size_t hi, size_t, size_t) {
      for (size_t k = lo * d; k < hi * d; ++k) {
        // x2 = s ⊙ e: dS += dX2 ⊙ e, dE += dX2 ⊙ s.
        ds_.data()[k] += dx_.data()[k] * e.data()[k];
        d_e.data()[k] += dx_.data()[k] * s.data()[k];
      }
    });
    // S = A_hat E^l, A_hat symmetric: dE^l += A_hat dS.
    engine_.Multiply(graph_.Adjacency(), ds_, prop_);
    engine_.For(0, n, grain, [&](size_t lo, size_t hi, size_t, size_t) {
      for (size_t r = lo; r < hi; ++r) {
        vec::Axpy(1.0f, prop_.Row(r), d_e.Row(r), d);
      }
    });
  }
  base_grad_.AddScaled(d_e_[0], 1.0f);
}

std::vector<ParamGrad> NgcfModel::Params() {
  std::vector<ParamGrad> params{{&base_, &base_grad_}};
  for (int l = 0; l < num_layers_; ++l) {
    params.push_back({&w1_[l], &w1_grad_[l]});
    params.push_back({&w2_[l], &w2_grad_[l]});
  }
  return params;
}

}  // namespace bslrec
