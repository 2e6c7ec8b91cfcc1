// The benchmark's workloads and the serve-layer probe of the traced run.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>

#include "common.h"
#include "data/dataset.h"
#include "models/model.h"

namespace perfbench {

// train-mf-sampled (lightgcn = false) and train-lgn-inbatch.
void RunTrainWorkload(const Options& opt, bool lightgcn, Result& result);

// serve-socket-mixed.
void RunServeWorkload(const Options& opt, Result& result);

// The traced run of a training workload also serves the model it just
// trained through a short version of the serving run, so the serve
// layers are measured by the gated workloads too. The probe is off the
// workload's own path and adds only per-layer metrics.
void AddServeLayerProbe(const bslrec::Dataset& data,
                        const bslrec::EmbeddingModel& model, uint64_t seed,
                        Result& result);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
