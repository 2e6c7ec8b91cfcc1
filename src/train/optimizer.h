// Adam over ParamGrad lists.
//
// Adam follows Kingma & Ba with bias correction; weight decay is applied
// decoupled (AdamW-style), which matches how the paper's L2 coefficient
// acts on embedding tables. Optimizer state is keyed by the parameter
// matrix address, so the same optimizer instance can drive any model as
// long as its parameter set is stable across steps.
//
// A step is elementwise (vec::AdamStep): every parameter entry's update
// reads only that entry, its gradient and its moment state. So an
// attached pool (SetRuntime) runs each tensor as fixed kStepGrain-element
// shards on its workers, and the result is bit-identical for any worker
// count, and to no pool at all.
#ifndef BSLREC_TRAIN_OPTIMIZER_H_
#define BSLREC_TRAIN_OPTIMIZER_H_

#include <cstddef>
#include <map>
#include <vector>

#include "math/matrix.h"
#include "models/model.h"

namespace bslrec {

class AdamOptimizer {
 public:
  // Elements per pooled shard of one parameter tensor. A tensor of at
  // most this many elements is stepped inline on the calling thread.
  static constexpr size_t kStepGrain = size_t{1} << 14;

  AdamOptimizer(double lr, double weight_decay = 0.0, double beta1 = 0.9,
                double beta2 = 0.999, double eps = 1e-8)
      : lr_(lr),
        weight_decay_(weight_decay),
        beta1_(beta1),
        beta2_(beta2),
        eps_(eps) {}

  // Borrows `pool` for Step (the trainer attaches its own, as it does
  // for EmbeddingModel::SetRuntime). nullptr, the default, steps inline;
  // the bits are the same either way. `pool` must outlive the optimizer
  // or be detached before it dies.
  void SetRuntime(runtime::ThreadPool* pool) { pool_ = pool; }

  // Applies one update using the gradients currently stored in `params`.
  void Step(const std::vector<ParamGrad>& params);

 private:
  struct Slot {
    Matrix m;  // first-moment estimate
    Matrix v;  // second-moment estimate
  };
  double lr_;
  double weight_decay_;
  double beta1_;
  double beta2_;
  double eps_;
  long step_ = 0;
  std::map<const Matrix*, Slot> slots_;
  runtime::ThreadPool* pool_ = nullptr;
};

}  // namespace bslrec

#endif  // BSLREC_TRAIN_OPTIMIZER_H_
