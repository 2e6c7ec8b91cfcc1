// Backbone model interface.
//
// Every backbone (MF, NGCF, LightGCN, SGL, SimGCL, LightGCL) is an
// *embedding model*: parameters are (at least) user/item embedding
// tables; `Forward` produces the final user/item representations the
// scoring head consumes (for graph models the propagated embeddings).
// The training loop is:
//
//   model.Forward(rng);                    // (re)propagate
//   model.ZeroGrad();
//   ... accumulate dL/d(final emb) via UserGrad()/ItemGrad() ...
//   aux += model.AuxLossAndGrad(...);      // contrastive regularizers
//   model.Backward();                      // chain into parameter grads
//   optimizer.Step(model.Params());
//
// MF's final tables *are* its parameters: its Params() pairs them with
// the final-embedding gradients, so its Forward and Backward are no-ops
// and the optimizer steps the tables the scoring head reads.
//
// Scores are cosine similarities of the final embeddings; the cosine
// chain rule lives in the trainer, not here.
#ifndef BSLREC_MODELS_MODEL_H_
#define BSLREC_MODELS_MODEL_H_

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "math/matrix.h"
#include "math/rng.h"

namespace bslrec {

namespace runtime {
class ThreadPool;
}  // namespace runtime

// A parameter tensor paired with its gradient accumulator.
struct ParamGrad {
  Matrix* value;
  Matrix* grad;
};

class EmbeddingModel {
 public:
  EmbeddingModel(uint32_t num_users, uint32_t num_items, size_t dim);
  virtual ~EmbeddingModel() = default;

  EmbeddingModel(const EmbeddingModel&) = delete;
  EmbeddingModel& operator=(const EmbeddingModel&) = delete;

  virtual std::string_view name() const = 0;

  // Hands the model an execution runtime: backbones with heavy linear
  // algebra (graph propagation) route their Forward/Backward through
  // `pool`, so the owner's thread budget governs model compute too. The
  // trainer attaches its pool at construction and detaches (nullptr) on
  // destruction. nullptr means serial execution; either way results are
  // bit-identical (the sharded-rows contract in graph/propagation.h).
  // `pool` must outlive the model or be detached before it dies.
  virtual void SetRuntime(runtime::ThreadPool* pool);

  uint32_t num_users() const { return num_users_; }
  uint32_t num_items() const { return num_items_; }
  size_t dim() const { return dim_; }

  // Recomputes the final embeddings from the current parameters.
  // Stochastic backbones (SGL, SimGCL) draw their augmentations from rng.
  virtual void Forward(Rng& rng) = 0;

  // Final representations (valid after Forward).
  const float* UserEmb(uint32_t u) const { return final_user_.Row(u); }
  const float* ItemEmb(uint32_t i) const { return final_item_.Row(i); }
  const Matrix& FinalUserMatrix() const { return final_user_; }
  const Matrix& FinalItemMatrix() const { return final_item_; }

  // Gradient accumulators on the final representations.
  float* UserGrad(uint32_t u) { return grad_user_.Row(u); }
  float* ItemGrad(uint32_t i) { return grad_item_.Row(i); }

  // Zeroes final-embedding gradients and parameter gradients, each
  // table once (a parameter gradient may *be* a final-embedding
  // gradient, as in MF).
  void ZeroGrad();

  // Propagates the accumulated final-embedding gradients into parameter
  // gradients.
  virtual void Backward() = 0;

  // Contrastive auxiliary objective evaluated on the batch nodes; plain
  // backbones return 0. Implementations add the aux gradients directly
  // into their parameter-gradient path (they are picked up by Backward).
  virtual double AuxLossAndGrad(std::span<const uint32_t> batch_users,
                                std::span<const uint32_t> batch_items,
                                Rng& rng);

  // Parameters (with grads) for the optimizer, stable across calls.
  virtual std::vector<ParamGrad> Params() = 0;

 protected:
  uint32_t num_users_;
  uint32_t num_items_;
  size_t dim_;
  Matrix final_user_;
  Matrix final_item_;
  Matrix grad_user_;
  Matrix grad_item_;
};

}  // namespace bslrec

#endif  // BSLREC_MODELS_MODEL_H_
