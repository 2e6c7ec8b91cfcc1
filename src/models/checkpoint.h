// Model parameter checkpointing.
//
// Binary format (little-endian host order):
//   magic "BSLRECK1" | uint64 param_count |
//   per parameter: uint64 rows | uint64 cols | rows*cols float32
//
// Loading requires the model's parameter shapes to match the file
// exactly (same backbone configuration); mismatches are reported as a
// recoverable failure, never a crash.
#ifndef BSLREC_MODELS_CHECKPOINT_H_
#define BSLREC_MODELS_CHECKPOINT_H_

#include <string>

#include "models/model.h"

namespace bslrec {

// Writes all parameter tensors of `model` to `path`. Returns false on
// I/O failure (with a diagnostic on stderr), including a failure of the
// final flush when the file is closed. It writes `path` in place: a
// failed save can leave a partial file there.
bool SaveModelParams(EmbeddingModel& model, const std::string& path);

// Restores parameters saved by SaveModelParams. Returns false when the
// file is missing, truncated, has bytes after the last tensor, or its
// shapes do not match the model; the model is then left bitwise
// unchanged (the tensors are staged, costing one extra copy of the
// parameters during the load, and committed only once the whole file
// has been read). On success the caller should re-run model.Forward()
// before scoring.
bool LoadModelParams(EmbeddingModel& model, const std::string& path);

}  // namespace bslrec

#endif  // BSLREC_MODELS_CHECKPOINT_H_
