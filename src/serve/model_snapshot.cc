#include "serve/model_snapshot.h"

#include "math/vec.h"

namespace bslrec::serve {

namespace {

// Rows per shard when normalizing a table. Rows are written
// independently, so any fixed grain is deterministic; 256 keeps shards
// coarse enough to amortize dispatch on large catalogs.
constexpr size_t kNormalizeGrain = 256;

void NormalizeRows(const Matrix& src, Matrix& dst,
                   runtime::ThreadPool& pool) {
  const size_t d = src.cols();
  runtime::ParallelFor(
      pool, 0, src.rows(), kNormalizeGrain,
      [&](size_t lo, size_t hi, size_t /*shard*/, size_t /*worker*/) {
        for (size_t r = lo; r < hi; ++r) {
          vec::Normalize(src.Row(r), dst.Row(r), d);
        }
      });
}

}  // namespace

ModelSnapshot::ModelSnapshot(const EmbeddingModel& model,
                             runtime::ThreadPool& pool,
                             SnapshotOptions options)
    : num_users_(model.num_users()),
      num_items_(model.num_items()),
      dim_(model.dim()),
      user_normed_(model.num_users(), model.dim()),
      item_normed_(model.num_items(), model.dim()) {
  NormalizeRows(model.FinalUserMatrix(), user_normed_, pool);
  NormalizeRows(model.FinalItemMatrix(), item_normed_, pool);

  if (options.ivf.build) {
    // The index groups its own copies of the normalized rows above.
    ivf_ = std::make_unique<const IvfIndex>(item_normed_, pool, options.ivf);
  }
}

}  // namespace bslrec::serve
