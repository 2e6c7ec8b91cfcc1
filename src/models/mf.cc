#include "models/mf.h"

namespace bslrec {

MfModel::MfModel(uint32_t num_users, uint32_t num_items, size_t dim, Rng& rng)
    : EmbeddingModel(num_users, num_items, dim) {
  final_user_.InitXavierUniform(rng);
  final_item_.InitXavierUniform(rng);
}

std::vector<ParamGrad> MfModel::Params() {
  return {{&final_user_, &grad_user_}, {&final_item_, &grad_item_}};
}

}  // namespace bslrec
