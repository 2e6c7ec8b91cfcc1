#include "models/lightgcn.h"

#include <algorithm>

#include "math/check.h"

namespace bslrec {

LightGcnModel::LightGcnModel(const BipartiteGraph& graph, size_t dim,
                             int num_layers, Rng& rng)
    : EmbeddingModel(graph.num_users(), graph.num_items(), dim),
      graph_(graph),
      num_layers_(num_layers),
      base_(graph.num_nodes(), dim),
      base_grad_(graph.num_nodes(), dim),
      combined_(graph.num_nodes(), dim) {
  BSLREC_CHECK(num_layers >= 0);
  base_.InitXavierUniform(rng);
}

void LightGcnModel::SetRuntime(runtime::ThreadPool* pool) {
  engine_.SetPool(pool);
}

// The combined table holds the user rows, then the item rows, each
// block contiguous like the per-side tables: one copy per table.
void LightGcnModel::SplitFinal(const Matrix& combined) {
  const size_t user_floats = size_t{num_users_} * dim_;
  std::copy_n(combined.data(), user_floats, final_user_.data());
  std::copy_n(combined.data() + user_floats, size_t{num_items_} * dim_,
              final_item_.data());
}

void LightGcnModel::GatherFinalGrad(Matrix& combined) const {
  const size_t user_floats = size_t{num_users_} * dim_;
  std::copy_n(grad_user_.data(), user_floats, combined.data());
  std::copy_n(grad_item_.data(), size_t{num_items_} * dim_,
              combined.data() + user_floats);
}

void LightGcnModel::Forward(Rng&) {
  engine_.MeanPropagate(graph_.Adjacency(), base_, num_layers_, combined_);
  SplitFinal(combined_);
}

void LightGcnModel::Backward() {
  // The propagation operator P = 1/(L+1) sum A^k is symmetric, so
  // dL/dBase = P (dL/dFinal). Both temporaries live in the engine's
  // persistent workspace — no per-call allocation.
  Matrix& grad_combined =
      engine_.Workspace(kGradCombinedSlot, graph_.num_nodes(), dim_);
  GatherFinalGrad(grad_combined);
  engine_.MeanPropagateAccum(graph_.Adjacency(), grad_combined, num_layers_,
                             base_grad_);
}

std::vector<ParamGrad> LightGcnModel::Params() {
  return {{&base_, &base_grad_}};
}

}  // namespace bslrec
