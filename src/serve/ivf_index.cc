#include "serve/ivf_index.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "math/rng.h"
#include "math/vec.h"

namespace bslrec::serve {

namespace {

// Rows per shard in the parallel assignment and copy loops. Outputs are
// per-row slots, so any fixed grain is deterministic.
constexpr size_t kIvfGrain = 256;

// Best centroid of one row under (dot score descending, centroid id
// ascending): one fused scan of the contiguous centroid block, then a
// first-max argmax (ascending scan keeps the lowest id on ties).
uint32_t AssignRow(const float* row, const float* centroids, uint32_t nlist,
                   size_t d, std::vector<float>& cscores) {
  cscores.resize(nlist);
  vec::DotBatch(row, centroids, nlist, d, cscores.data());
  uint32_t best = 0;
  for (uint32_t l = 1; l < nlist; ++l) {
    if (cscores[l] > cscores[best]) best = l;
  }
  return best;
}

}  // namespace

IvfIndex::IvfIndex(const Matrix& items, runtime::ThreadPool& pool,
                   const IvfBuildOptions& options) {
  num_items_ = static_cast<uint32_t>(items.rows());
  dim_ = items.cols();
  if (num_items_ == 0) {
    list_offsets_.assign(1, 0);
    return;
  }
  uint32_t nlist = options.nlist;
  if (nlist == 0) {
    nlist = static_cast<uint32_t>(
        std::ceil(std::sqrt(static_cast<double>(num_items_))));
  }
  nlist_ = std::min(std::max<uint32_t>(nlist, 1), num_items_);

  // Serial seeded init: nlist distinct item rows become the starting
  // centroids (identical embeddings may still coincide, which just
  // leaves some lists empty — a legal, tested shape).
  Rng rng(options.seed);
  std::vector<uint32_t> seeds =
      rng.SampleWithoutReplacement(num_items_, nlist_);
  std::sort(seeds.begin(), seeds.end());
  centroids_.resize(static_cast<size_t>(nlist_) * dim_);
  for (uint32_t l = 0; l < nlist_; ++l) {
    std::memcpy(centroids_.data() + static_cast<size_t>(l) * dim_,
                items.Row(seeds[l]), dim_ * sizeof(float));
  }

  // Deterministic training subsample (ascending ids) bounding the Lloyd
  // cost on huge catalogs; the final assignment below still covers every
  // item.
  const uint64_t cap =
      std::max<uint64_t>(static_cast<uint64_t>(nlist_) *
                             std::max<uint32_t>(options.sample_per_list, 1),
                         nlist_);
  std::vector<uint32_t> train;
  if (cap < num_items_) {
    train =
        rng.SampleWithoutReplacement(num_items_, static_cast<uint32_t>(cap));
    std::sort(train.begin(), train.end());
  } else {
    train.resize(num_items_);
    for (uint32_t i = 0; i < num_items_; ++i) train[i] = i;
  }

  std::vector<std::vector<float>> cscores(pool.num_workers());
  std::vector<std::vector<double>> accs(pool.num_workers());
  std::vector<uint32_t> assign(train.size());
  std::vector<uint32_t> member_offsets(nlist_ + 1);
  std::vector<uint32_t> members(train.size());
  for (uint32_t iter = 0; iter < options.iters; ++iter) {
    // (a) Assignment: per-row slots over fixed-grain shards.
    runtime::ParallelFor(
        pool, 0, train.size(), kIvfGrain,
        [&](size_t lo, size_t hi, size_t /*shard*/, size_t worker) {
          for (size_t t = lo; t < hi; ++t) {
            assign[t] = AssignRow(items.Row(train[t]), centroids_.data(),
                                  nlist_, dim_, cscores[worker]);
          }
        });
    // (b) Serial counting sort: each centroid's members in ascending
    // row order (the fixed order the update below sums in).
    std::fill(member_offsets.begin(), member_offsets.end(), 0u);
    for (uint32_t a : assign) ++member_offsets[a + 1];
    for (uint32_t l = 0; l < nlist_; ++l) {
      member_offsets[l + 1] += member_offsets[l];
    }
    std::vector<uint32_t> cursor(member_offsets.begin(),
                                 member_offsets.end() - 1);
    for (size_t t = 0; t < assign.size(); ++t) {
      members[cursor[assign[t]]++] = train[t];
    }
    // (c) Update: each centroid serially sums its members in that fixed
    // order into its own slot (double accumulation), then renormalizes
    // to a unit vector. Empty or fully-cancelling lists keep their
    // previous centroid.
    runtime::ParallelFor(
        pool, 0, nlist_, 8,
        [&](size_t lo, size_t hi, size_t /*shard*/, size_t worker) {
          std::vector<double>& acc = accs[worker];
          for (size_t l = lo; l < hi; ++l) {
            const uint32_t begin = member_offsets[l];
            const uint32_t end = member_offsets[l + 1];
            if (begin == end) continue;
            acc.assign(dim_, 0.0);
            for (uint32_t j = begin; j < end; ++j) {
              const float* row = items.Row(members[j]);
              for (size_t k = 0; k < dim_; ++k) acc[k] += row[k];
            }
            double norm2 = 0.0;
            for (const double v : acc) norm2 += v * v;
            const double norm = std::sqrt(norm2);
            if (!(norm > 0.0)) continue;
            float* c = centroids_.data() + l * dim_;
            for (size_t k = 0; k < dim_; ++k) {
              c[k] = static_cast<float>(acc[k] / norm);
            }
          }
        });
  }

  // Final assignment over every item, then CSR postings by a serial
  // counting sort in ascending item order (so ids ascend within lists).
  std::vector<uint32_t> assign_all(num_items_);
  runtime::ParallelFor(
      pool, 0, num_items_, kIvfGrain,
      [&](size_t lo, size_t hi, size_t /*shard*/, size_t worker) {
        for (size_t i = lo; i < hi; ++i) {
          assign_all[i] = AssignRow(items.Row(i), centroids_.data(), nlist_,
                                    dim_, cscores[worker]);
        }
      });
  list_offsets_.assign(nlist_ + 1, 0);
  for (uint32_t a : assign_all) ++list_offsets_[a + 1];
  for (uint32_t l = 0; l < nlist_; ++l) {
    list_offsets_[l + 1] += list_offsets_[l];
  }
  list_items_.resize(num_items_);
  std::vector<uint32_t> cursor(list_offsets_.begin(), list_offsets_.end() - 1);
  for (uint32_t i = 0; i < num_items_; ++i) {
    list_items_[cursor[assign_all[i]]++] = i;
  }

  // Grouped rows in posting order: list visits become contiguous scans.
  // Per-position fills — deterministic.
  grouped_f32_.resize(static_cast<size_t>(num_items_) * dim_);
  runtime::ParallelFor(
      pool, 0, num_items_, kIvfGrain,
      [&](size_t lo, size_t hi, size_t /*shard*/, size_t /*worker*/) {
        for (size_t p = lo; p < hi; ++p) {
          std::memcpy(grouped_f32_.data() + p * dim_,
                      items.Row(list_items_[p]), dim_ * sizeof(float));
        }
      });

  // std::max keeps its first argument against a NaN, so NaN rows drop
  // out; a serial maximum of exact per-row bounds.
  for (uint32_t l = 0; l < nlist_; ++l) {
    centroid_norm_bound_ = std::max(
        centroid_norm_bound_,
        vec::NormBound(centroids_.data() + static_cast<size_t>(l) * dim_,
                       dim_));
  }
}

}  // namespace bslrec::serve
