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

  if (options.quantize_items) {
    // Quantize the *normalized* item rows (the rows scoring reads).
    // Rows are independent, so the parallel fill is bit-identical for
    // any worker count, like the normalization above.
    item_codes_.resize(static_cast<size_t>(num_items_) * dim_);
    item_scale_.resize(num_items_);
    item_scale_l1_.resize(num_items_);
    runtime::ParallelFor(
        pool, 0, num_items_, kNormalizeGrain,
        [&](size_t lo, size_t hi, size_t /*shard*/, size_t /*worker*/) {
          for (size_t r = lo; r < hi; ++r) {
            int8_t* codes = item_codes_.data() + r * dim_;
            const float scale =
                vec::QuantizeRow(item_normed_.Row(r), dim_, codes);
            int32_t l1 = 0;
            for (size_t j = 0; j < dim_; ++j) {
              l1 += codes[j] < 0 ? -codes[j] : codes[j];
            }
            item_scale_[r] = scale;
            item_scale_l1_[r] = scale * static_cast<float>(l1);
          }
        });
  }

  if (options.ivf.build) {
    // The index groups copies of whichever tables exist, so int8 phase-1
    // scans compose with ANN probing. Built last: it snapshots the
    // tables above.
    ivf_ = std::make_unique<const IvfIndex>(
        item_normed_, item_codes_.empty() ? nullptr : item_codes_.data(),
        item_scale_.empty() ? nullptr : item_scale_.data(), pool, options.ivf);
  }
}

}  // namespace bslrec::serve
