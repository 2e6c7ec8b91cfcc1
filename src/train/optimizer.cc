#include "train/optimizer.h"

#include <cmath>

#include "math/check.h"
#include "math/vec.h"
#include "runtime/thread_pool.h"

namespace bslrec {

void AdamOptimizer::Step(const std::vector<ParamGrad>& params) {
  ++step_;
  const vec::AdamCoeffs c{
      .lr = lr_,
      .weight_decay = weight_decay_,
      .beta1 = beta1_,
      .beta2 = beta2_,
      .eps = eps_,
      .bc1 = 1.0 - std::pow(beta1_, static_cast<double>(step_)),
      .bc2 = 1.0 - std::pow(beta2_, static_cast<double>(step_)),
  };
  for (const ParamGrad& pg : params) {
    BSLREC_CHECK(pg.value != nullptr && pg.grad != nullptr);
    BSLREC_CHECK(pg.value->size() == pg.grad->size());
    Slot& slot = slots_[pg.value];
    if (slot.m.size() != pg.value->size()) {
      slot.m = Matrix(pg.value->rows(), pg.value->cols());
      slot.v = Matrix(pg.value->rows(), pg.value->cols());
    }
    float* w = pg.value->data();
    const float* g = pg.grad->data();
    float* m = slot.m.data();
    float* v = slot.v.data();
    const size_t n = pg.value->size();
    // Elements [lo, hi): kStepGrain-element ranges on the attached pool
    // when there is more than one.
    const auto step = [&](size_t lo, size_t hi) {
      vec::AdamStep(c, g + lo, w + lo, m + lo, v + lo, hi - lo);
    };
    if (pool_ == nullptr || n <= kStepGrain) {
      step(0, n);
    } else {
      runtime::ParallelFor(
          *pool_, 0, n, kStepGrain,
          [&](size_t lo, size_t hi, size_t, size_t) { step(lo, hi); });
    }
  }
}

}  // namespace bslrec
