// Plain-text dataset I/O.
//
// Format (one interaction per line, the layout used by the LightGCN /
// BSL reference repositories after flattening):
//
//   <user_id> <item_id>\n
//
// Lines starting with '#' and blank lines are skipped. Ids must be
// integers in [0, 2^32 - 2], so that the dimensions, inferred as
// max(id)+1 across both splits, fit in uint32_t.
#ifndef BSLREC_DATA_LOADERS_H_
#define BSLREC_DATA_LOADERS_H_

#include <optional>
#include <string>

#include "data/dataset.h"

namespace bslrec {

// Loads a dataset from train/test interaction files. Returns std::nullopt
// (and prints a diagnostic to stderr) when a file cannot be opened or a
// line fails to parse — malformed external input is a recoverable error,
// not a programmer error.
std::optional<Dataset> LoadInteractions(const std::string& train_path,
                                        const std::string& test_path);

// Writes the train and test edge lists of `data` to the given paths.
// Returns false on I/O failure.
bool SaveInteractions(const Dataset& data, const std::string& train_path,
                      const std::string& test_path);

}  // namespace bslrec

#endif  // BSLREC_DATA_LOADERS_H_
