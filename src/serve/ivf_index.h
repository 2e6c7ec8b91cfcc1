// IVF (inverted-file) coarse index over a snapshot's item table.
//
// Built once at snapshot freeze time (opt-in via `SnapshotOptions::ivf`,
// see model_snapshot.h): a deterministic seeded spherical k-means over
// the L2-normalized item rows produces `nlist` unit centroids, and every
// item is assigned to its best centroid under (dot score descending,
// centroid id ascending). The index stores:
//
//   * the centroids as one contiguous nlist x dim block, with a bound on
//     their norms (`centroid_norm_bound()`), so a query scans them like
//     any table of rows (topk_scorer.h), and
//   * CSR postings: `ListOffset(l)..ListOffset(l+1)` index into a
//     catalog-length array of item ids, ascending within each list, and
//   * *grouped* copies of the item rows in posting order, bitwise equal
//     to the snapshot's ItemVec rows, so visiting a list is a scan of
//     contiguous rows read in place, never a gather.
//
// Determinism: the k-means is a fixed-iteration Lloyd loop with a
// serial seeded init (math/rng.h), parallelized per the PR 1 contract
// (runtime/thread_pool.h) — assignments are computed into per-item
// slots over fixed-grain shards, postings are rebuilt by a serial
// counting sort in ascending item order, and each centroid re-sums its
// members serially in that fixed order into its own slot. Every step is
// therefore bit-identical for any worker count, and the whole index is
// a pure function of (item table, options). Query-time determinism —
// same index => same probed lists => same candidates => same total
// order — is argued in topk_scorer.h, where the query path lives.
//
// Quality: an IVF probe is approximate — items whose list is not probed
// are invisible to the query — so, unlike the exact scan, ANN results
// may diverge from the exact ranking. bench_serve measures the
// divergence as recall@k-vs-exact across an (nlist, nprobe) sweep.
#ifndef BSLREC_SERVE_IVF_INDEX_H_
#define BSLREC_SERVE_IVF_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "math/matrix.h"
#include "runtime/thread_pool.h"

namespace bslrec::serve {

struct IvfBuildOptions {
  // Master switch (SnapshotOptions::ivf.build): off by default, so
  // plain snapshots pay nothing.
  bool build = false;
  // Coarse list count; 0 = ceil(sqrt(num_items)), always clamped to
  // [1, num_items].
  uint32_t nlist = 0;
  // Fixed Lloyd iteration count (never early-exits: the build cost and
  // the result depend only on the inputs).
  uint32_t iters = 5;
  // Seed of the serial centroid init (distinct item rows) and of the
  // training subsample; same seed + same table => same index, bitwise.
  uint64_t seed = 0x5eed1fULL;
  // k-means trains on at most nlist * sample_per_list deterministically
  // sampled rows (the whole table when it is smaller); the final
  // assignment always covers every item.
  uint32_t sample_per_list = 128;
};

class IvfIndex {
 public:
  // Builds the index over `items` (L2-normalized rows — the snapshot's
  // item table). `pool` is only used during construction.
  IvfIndex(const Matrix& items, runtime::ThreadPool& pool,
           const IvfBuildOptions& options);

  uint32_t nlist() const { return nlist_; }
  size_t dim() const { return dim_; }
  uint32_t num_items() const { return num_items_; }

  // Contiguous nlist x dim unit centroid block.
  const float* Centroids() const { return centroids_.data(); }
  // The largest vec::NormBound of a centroid row, rows with a NaN left
  // out (0 without centroids), recorded at build time as
  // ModelSnapshot::item_norm_bound() is: a centroid is normalized in
  // double and rounded to float, another path than the item rows', so
  // the item bound does not cover it.
  double centroid_norm_bound() const { return centroid_norm_bound_; }

  // CSR postings: items of list l occupy grouped positions
  // [ListOffset(l), ListOffset(l+1)), ids ascending within the list.
  uint32_t ListOffset(uint32_t l) const { return list_offsets_[l]; }
  // Item id at grouped position p (p in [0, num_items)).
  uint32_t ItemIdAt(uint32_t p) const { return list_items_[p]; }
  const uint32_t* ItemIds(uint32_t p) const { return list_items_.data() + p; }

  // Grouped fp32 row at position p — bitwise equal to the snapshot's
  // ItemVec(ItemIdAt(p)), so a list scan reads only the index.
  const float* Row(uint32_t p) const {
    return grouped_f32_.data() + static_cast<size_t>(p) * dim_;
  }

 private:
  uint32_t nlist_ = 0;
  uint32_t num_items_ = 0;
  size_t dim_ = 0;
  std::vector<float> centroids_;       // nlist x dim, unit rows
  double centroid_norm_bound_ = 0.0;
  std::vector<uint32_t> list_offsets_; // nlist + 1
  std::vector<uint32_t> list_items_;   // num_items, grouped by list
  std::vector<float> grouped_f32_;     // num_items x dim, posting order
};

}  // namespace bslrec::serve

#endif  // BSLREC_SERVE_IVF_INDEX_H_
