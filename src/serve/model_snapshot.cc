#include "serve/model_snapshot.h"

#include <algorithm>
#include <vector>

#include "math/vec.h"

namespace bslrec::serve {

namespace {

// Rows per shard when normalizing a table. Rows are written
// independently, so any fixed grain is deterministic; 256 keeps shards
// coarse enough to amortize dispatch on large catalogs.
constexpr size_t kNormalizeGrain = 256;

// Normalizes every row of `src` into `dst` and returns the largest
// vec::NormBound of a normalized row. std::max keeps its first argument
// against a NaN, so rows with a NaN drop out; the maximum of the other
// bounds is exact, hence the same for any worker count.
double NormalizeRows(const Matrix& src, Matrix& dst,
                     runtime::ThreadPool& pool) {
  const size_t d = src.cols();
  const size_t shards = (src.rows() + kNormalizeGrain - 1) / kNormalizeGrain;
  std::vector<double> shard_max(shards, 0.0);
  runtime::ParallelFor(
      pool, 0, src.rows(), kNormalizeGrain,
      [&](size_t lo, size_t hi, size_t shard, size_t /*worker*/) {
        double m = 0.0;
        for (size_t r = lo; r < hi; ++r) {
          vec::Normalize(src.Row(r), dst.Row(r), d);
          m = std::max(m, vec::NormBound(dst.Row(r), d));
        }
        shard_max[shard] = m;
      });
  double m = 0.0;
  for (const double s : shard_max) m = std::max(m, s);
  return m;
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
  item_norm_bound_ = NormalizeRows(model.FinalItemMatrix(), item_normed_, pool);

  if (options.ivf.build) {
    // The index groups its own copies of the normalized rows above.
    ivf_ = std::make_unique<const IvfIndex>(item_normed_, pool, options.ivf);
  }
}

}  // namespace bslrec::serve
