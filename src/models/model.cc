#include "models/model.h"

namespace bslrec {

EmbeddingModel::EmbeddingModel(uint32_t num_users, uint32_t num_items,
                               size_t dim)
    : num_users_(num_users),
      num_items_(num_items),
      dim_(dim),
      final_user_(num_users, dim),
      final_item_(num_items, dim),
      grad_user_(num_users, dim),
      grad_item_(num_items, dim) {}

void EmbeddingModel::ZeroGrad() {
  grad_user_.SetZero();
  grad_item_.SetZero();
  for (ParamGrad pg : Params()) {
    if (pg.grad != &grad_user_ && pg.grad != &grad_item_) pg.grad->SetZero();
  }
}

double EmbeddingModel::AuxLossAndGrad(std::span<const uint32_t>,
                                      std::span<const uint32_t>, Rng&) {
  return 0.0;
}

void EmbeddingModel::SetRuntime(runtime::ThreadPool*) {
  // Default: nothing to parallelize (MF's Forward is a no-op).
}

}  // namespace bslrec
