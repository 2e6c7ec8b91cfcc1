// Matrix Factorization backbone (Koren et al., 2009).
//
// The simplest embedding model: the final representations *are* the
// parameters. Params() hands the optimizer the final tables and their
// gradient accumulators themselves, so Forward and Backward have
// nothing to do. Used throughout the paper as the primary backbone for
// the loss-function study.
#ifndef BSLREC_MODELS_MF_H_
#define BSLREC_MODELS_MF_H_

#include "models/model.h"

namespace bslrec {

class MfModel : public EmbeddingModel {
 public:
  // Xavier-uniform initialization (the paper's unified initializer).
  MfModel(uint32_t num_users, uint32_t num_items, size_t dim, Rng& rng);

  std::string_view name() const override { return "MF"; }
  void Forward(Rng&) override {}
  void Backward() override {}
  // {final users, user grads}, {final items, item grads}.
  std::vector<ParamGrad> Params() override;
};

}  // namespace bslrec

#endif  // BSLREC_MODELS_MF_H_
