#include "serve/topk_scorer.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "math/check.h"
#include "math/vec.h"

namespace bslrec::serve {

namespace {

// Keeps the ScoredBefore-first min(k, size) entries of `pool`, in order.
void KeepTopK(std::vector<ScoredItem>& pool, uint32_t k) {
  const auto kk = static_cast<long>(std::min<size_t>(k, pool.size()));
  std::partial_sort(pool.begin(), pool.begin() + kk, pool.end(), ScoredBefore);
  pool.resize(static_cast<size_t>(kk));
}

// The running top-k of every selection is a heap under ScoredBefore
// (std::make_heap on entry, std::sort_heap on exit): its front is the
// entry that ranks last, which is the k-th once k entries are in.
// Offers `item` to a heap of at most k >= 1 entries: it enters while
// there is room, and otherwise replaces the front if it ranks before it
// (one sift-down from the root).
void OfferToHeap(std::vector<ScoredItem>& heap, uint32_t k, ScoredItem item) {
  if (heap.size() < k) {
    heap.push_back(item);
    std::push_heap(heap.begin(), heap.end(), ScoredBefore);
    return;
  }
  if (!ScoredBefore(item, heap.front())) return;
  const size_t n = heap.size();
  size_t hole = 0;
  for (size_t c = 1; c < n; c = 2 * hole + 1) {
    if (c + 1 < n && ScoredBefore(heap[c], heap[c + 1])) ++c;
    if (!ScoredBefore(item, heap[c])) break;
    heap[hole] = heap[c];
    hole = c;
  }
  heap[hole] = item;
}

// A float at or below f - eps: the subtraction rounds to nearest, so one
// step down covers its rounding. An fp32 score below it therefore lies
// more than eps below f. NaN when f or eps makes f - eps NaN, and -inf
// when eps is +inf, so no score is below it then.
float SkipBelow(float f, float eps) {
  return std::nextafter(f - eps, -std::numeric_limits<float>::infinity());
}

// The rows one scan reads in place (see the header note): row p starts at
// rows + p * dim and carries the id ids[p], or p itself when ids is null.
// norm_bound bounds ||row||_2 over every row without a NaN, for the skip
// test's eps, and the scan's re-scores tick the counter `rescored` (none
// when null).
struct RowTable {
  const float* rows;
  const uint32_t* ids;
  size_t dim;
  double norm_bound;
  uint64_t ScanStats::*rescored;

  const float* Row(uint32_t p) const {
    return rows + static_cast<size_t>(p) * dim;
  }
  uint32_t Id(uint32_t p) const { return ids == nullptr ? p : ids[p]; }
};

// The catalog's item rows, by item id: the exact tier's table.
RowTable ItemTable(const ModelSnapshot& snapshot) {
  return {snapshot.num_items() > 0 ? snapshot.ItemVec(0) : nullptr, nullptr,
          snapshot.dim(), snapshot.item_norm_bound(),
          &ScanStats::exact_rescored};
}

// Scores the n rows c0 + kept[t] of `table` for one query with vec::Dot's
// bits (one DotRows call) and offers each, under its id, to the query's
// heap.
void RescoreInto(const RowTable& table, const float* q_hat, uint32_t c0,
                 size_t n, uint32_t k, ShardScratch& ws,
                 std::vector<ScoredItem>& heap) {
  if (n == 0) return;
  vec::DotRows(q_hat, table.Row(c0), table.dim, ws.kept.data(), n, table.dim,
               ws.exact.data());
  if (table.rescored != nullptr) ws.stats.*table.rescored += n;
  for (size_t t = 0; t < n; ++t) {
    OfferToHeap(heap, k, {table.Id(c0 + ws.kept[t]), ws.exact[t]});
  }
}

// Offers the query's eligible rows of chunk [c0, c1) to its heap, given
// its row of the chunk's fp32 tile (see the header note): the first
// rows fill the heap to k, and after that only rows whose fp32 score
// is not more than eps below the k-th's exact score are re-scored and
// offered.
void OfferChunk(const RowTable& table, const ScoreQuery& query, uint32_t c0,
                uint32_t c1, const float* fp32,
                ShardScratch::QueryState& state, ShardScratch& ws,
                std::vector<ScoredItem>& heap) {
  const std::span<const uint32_t> exclude = query.exclude;
  size_t& ex = state.next_exclude;
  // Ids ascend within a scanned range, so the exclusion cursor only
  // moves forward.
  const auto excluded = [&](uint32_t p) {
    const uint32_t id = table.Id(p);
    while (ex < exclude.size() && exclude[ex] < id) ++ex;
    return ex < exclude.size() && exclude[ex] == id;
  };
  uint32_t i = c0;
  if (heap.size() < query.k) {
    size_t n = 0;
    for (; i < c1 && heap.size() + n < query.k; ++i) {
      if (!excluded(i)) ws.kept[n++] = i - c0;
    }
    RescoreInto(table, query.q_hat, c0, n, query.k, ws, heap);
    if (heap.size() < query.k) return;  // the chunk ran out first
  }
  const float below = SkipBelow(heap.front().score, state.eps);
  const size_t n =
      vec::IndicesNotBelow(fp32 + (i - c0), c1 - i, below, ws.kept.data());
  size_t eligible = 0;
  for (size_t t = 0; t < n; ++t) {
    const uint32_t offset = ws.kept[t] + (i - c0);
    if (!excluded(c0 + offset)) ws.kept[eligible++] = offset;
  }
  RescoreInto(table, query.q_hat, c0, eligible, query.k, ws, heap);
}

// Opens a scan of `table` for `block`: copies the query rows into ws.q,
// and for each query with k > 0 turns tops[j] into a heap and sets its
// eps (tops[j] is cleared for k = 0).
void BeginScan(const RowTable& table, std::span<const ScoreQuery> block,
               ShardScratch& ws, std::span<std::vector<ScoredItem>> tops) {
  const size_t d = table.dim;
  const size_t m = block.size();
  ws.q.resize(m * d);
  ws.queries.resize(m);
  ws.tile.resize(m * kItemChunk);
  ws.kept.resize(kItemChunk);
  ws.exact.resize(kItemChunk);
  for (size_t j = 0; j < m; ++j) {
    const ScoreQuery& query = block[j];
    std::copy_n(query.q_hat, d, ws.q.data() + j * d);
    if (query.k == 0) {
      tops[j].clear();
      continue;
    }
    std::make_heap(tops[j].begin(), tops[j].end(), ScoredBefore);
    ws.queries[j].eps = vec::DotTileF32Error(
        d, vec::NormBound(query.q_hat, d) * table.norm_bound);
  }
}

// Scans rows [lo, hi) of `table` for an open block (BeginScan): sets each
// query's exclusion cursor at the range's first id, then one DotTileF32
// tile per kItemChunk rows and each query's OfferChunk.
void ScanItems(const RowTable& table, std::span<const ScoreQuery> block,
               uint32_t lo, uint32_t hi, ShardScratch& ws,
               std::span<std::vector<ScoredItem>> tops) {
  if (lo >= hi) return;
  const size_t m = block.size();
  const uint32_t first = table.Id(lo);
  for (size_t j = 0; j < m; ++j) {
    const std::span<const uint32_t> exclude = block[j].exclude;
    ws.queries[j].next_exclude = static_cast<size_t>(
        std::lower_bound(exclude.begin(), exclude.end(), first) -
        exclude.begin());
  }
  for (uint32_t c0 = lo; c0 < hi; c0 += kItemChunk) {
    const uint32_t c1 = std::min<uint32_t>(hi, c0 + kItemChunk);
    vec::DotTileF32(ws.q.data(), m, table.Row(c0), c1 - c0, table.dim,
                    ws.tile.data(), kItemChunk);
    for (size_t j = 0; j < m; ++j) {
      if (block[j].k == 0) continue;
      OfferChunk(table, block[j], c0, c1, ws.tile.data() + j * kItemChunk,
                 ws.queries[j], ws, tops[j]);
    }
  }
}

// Closes the scan: each heap becomes its list in ScoredBefore order.
void EndScan(std::span<std::vector<ScoredItem>> tops) {
  for (std::vector<ScoredItem>& top : tops) {
    std::sort_heap(top.begin(), top.end(), ScoredBefore);
  }
}

// One serial ANN query through the snapshot's IVF index, on the exact
// scan's helpers: a scan of the centroid rows picks the top-nprobe lists,
// then one heap runs across the probed lists' grouped rows.
void IvfTopK(const ModelSnapshot& snapshot, const ScoreQuery& query,
             uint32_t nprobe, ShardScratch& ws, std::vector<ScoredItem>& out) {
  const IvfIndex* ivf = snapshot.ivf();
  BSLREC_CHECK_MSG(ivf != nullptr,
                   "ANN scoring needs a snapshot built with "
                   "SnapshotOptions::ivf.build");
  ++ws.stats.ivf_queries;
  out.clear();
  if (ivf->nlist() == 0 || query.k == 0) return;

  const ScoreQuery probe{query.q_hat,
                         std::clamp<uint32_t>(nprobe, 1, ivf->nlist()), {}};
  const RowTable centroids{ivf->Centroids(), nullptr, ivf->dim(),
                           ivf->centroid_norm_bound(), nullptr};
  ws.probes.clear();
  BeginScan(centroids, {&probe, 1}, ws, {&ws.probes, 1});
  ScanItems(centroids, {&probe, 1}, 0, ivf->nlist(), ws, {&ws.probes, 1});
  EndScan({&ws.probes, 1});

  // The grouped rows are bitwise the snapshot's, so its bound covers them.
  const RowTable lists{ivf->Row(0), ivf->ItemIds(0), ivf->dim(),
                       snapshot.item_norm_bound(), &ScanStats::ivf_rescored};
  BeginScan(lists, {&query, 1}, ws, {&out, 1});
  for (const ScoredItem& list : ws.probes) {
    const uint32_t lo = ivf->ListOffset(list.item);
    const uint32_t hi = ivf->ListOffset(list.item + 1);
    ++ws.stats.ivf_lists;
    ws.stats.ivf_candidates += hi - lo;
    ScanItems(lists, {&query, 1}, lo, hi, ws, {&out, 1});
  }
  EndScan({&out, 1});
}

}  // namespace

SnapshotOptions SnapshotOptionsFor(const ScorerOptions& options,
                                   IvfBuildOptions ivf) {
  SnapshotOptions so;
  so.ivf = ivf;
  if (!options.exact) so.ivf.build = true;
  return so;
}

void CheckScorerOptions(const ModelSnapshot& snapshot,
                        const ScorerOptions& options) {
  BSLREC_CHECK_MSG(options.exact || snapshot.ivf() != nullptr,
                   "ScorerOptions::exact = false needs a snapshot with an "
                   "IVF index (SnapshotOptions::ivf.build)");
}

void ShardTopK(const ModelSnapshot& snapshot, std::span<const ScoreQuery> block,
               uint32_t lo, uint32_t hi, ShardScratch& ws,
               std::span<std::vector<ScoredItem>> tops) {
  const RowTable items = ItemTable(snapshot);
  for (const ScoreQuery& query : block) ws.stats.exact_shards += query.k > 0;
  BeginScan(items, block, ws, tops);
  ScanItems(items, block, lo, hi, ws, tops);
  EndScan(tops);
}

void BlockTopK(const ModelSnapshot& snapshot, std::span<const ScoreQuery> block,
               const ScorerOptions& options, ShardScratch& ws,
               std::span<std::vector<ScoredItem>> outs) {
  if (!options.exact) {
    for (size_t j = 0; j < block.size(); ++j) {
      IvfTopK(snapshot, block[j], options.nprobe, ws, outs[j]);
    }
    return;
  }
  for (size_t j = 0; j < block.size(); ++j) outs[j].clear();
  ShardTopK(snapshot, block, 0, snapshot.num_items(), ws, outs);
}

CatalogScorer::CatalogScorer(const ModelSnapshot& snapshot,
                             runtime::ThreadPool& pool,
                             const ScorerOptions& options)
    : snapshot_(snapshot),
      pool_(pool),
      options_(options),
      scratch_(pool.num_workers()) {
  CheckScorerOptions(snapshot, options);
}

CatalogScorer::Stats CatalogScorer::stats() const {
  Stats s;
  for (const ShardScratch& ws : scratch_) s += ws.stats;
  return s;
}

void CatalogScorer::ResetStats() const {
  for (ShardScratch& ws : scratch_) ws.stats = {};
}

std::vector<std::vector<ScoredItem>> CatalogScorer::BatchTopK(
    std::span<const ScoreQuery> queries) const {
  const uint32_t n = snapshot_.num_items();
  const size_t num_queries = queries.size();
  std::vector<std::vector<ScoredItem>> out(num_queries);
  if (queries.empty()) return out;

  if (!options_.exact) {
    // ANN: each query is one serial probe and list scan writing its
    // own output slot; the pool only fans out *across* queries, so the
    // responses are bit-identical for any thread count or batch packing.
    runtime::ParallelFor(
        pool_, 0, num_queries, 1,
        [&](size_t lo, size_t hi, size_t /*shard*/, size_t worker) {
          for (size_t qi = lo; qi < hi; ++qi) {
            BlockTopK(snapshot_, queries.subspan(qi, 1), options_,
                      scratch_[worker], {&out[qi], 1});
          }
        });
    return out;
  }
  if (n == 0) return out;

  // The item split of the header note: each query block scans as large a
  // range as still keeps every worker busy, but no range holds fewer than
  // kMinRangeFloats of item rows; ranges split the catalog's chunks as
  // evenly as they go, and blocks hold up to kQueryBlock queries, fewer
  // when blocks x ranges would not cover the pool. No response depends
  // on the split.
  const size_t workers = pool_.num_workers();
  const size_t chunks = (n + kItemChunk - 1) / kItemChunk;
  const size_t chunk_floats = kItemChunk * std::max<size_t>(snapshot_.dim(), 1);
  const size_t min_chunks = (kMinRangeFloats + chunk_floats - 1) / chunk_floats;
  const size_t query_blocks = (num_queries + kQueryBlock - 1) / kQueryBlock;
  const size_t num_ranges =
      std::min((workers + query_blocks - 1) / query_blocks,
               std::max<size_t>(1, chunks / min_chunks));
  const size_t blocks_per_range = (workers + num_ranges - 1) / num_ranges;
  const size_t block = std::clamp<size_t>(
      (num_queries + blocks_per_range - 1) / blocks_per_range, 1, kQueryBlock);
  const size_t num_blocks = (num_queries + block - 1) / block;
  const auto range_start = [&](size_t r) {
    return static_cast<uint32_t>(
        std::min<size_t>(n, r * chunks / num_ranges * kItemChunk));
  };
  // One slot per (range, query), range-major so a block's slots for one
  // range are contiguous, and one block's scan buffers per worker
  // (hoisted into scorer scratch: steady-state scanning allocates
  // nothing). Each slot is written by exactly one task, so no
  // synchronization is needed and the serial merge below is
  // deterministic.
  shard_tops_.resize(num_ranges * num_queries);
  runtime::ParallelFor(
      pool_, 0, num_blocks * num_ranges, 1,
      [&](size_t lo, size_t hi, size_t /*shard*/, size_t worker) {
        for (size_t t = lo; t < hi; ++t) {
          const size_t q0 = (t / num_ranges) * block;
          const size_t m = std::min(block, num_queries - q0);
          const size_t r = t % num_ranges;
          const std::span<std::vector<ScoredItem>> tops(
              &shard_tops_[r * num_queries + q0], m);
          for (std::vector<ScoredItem>& top : tops) top.clear();
          ShardTopK(snapshot_, queries.subspan(q0, m), range_start(r),
                    range_start(r + 1), scratch_[worker], tops);
        }
      });
  // Each result is allocated at its own size (the ranking engine caches
  // these vectors): copied from its one slot, or from the top-k of its
  // ranges' slots concatenated in a reused buffer.
  if (num_ranges == 1) {
    for (size_t qi = 0; qi < num_queries; ++qi) {
      out[qi].assign(shard_tops_[qi].begin(), shard_tops_[qi].end());
    }
    return out;
  }
  std::vector<ScoredItem> merge;
  for (size_t qi = 0; qi < num_queries; ++qi) {
    merge.clear();
    for (size_t r = 0; r < num_ranges; ++r) {
      const std::vector<ScoredItem>& top = shard_tops_[r * num_queries + qi];
      merge.insert(merge.end(), top.begin(), top.end());
    }
    KeepTopK(merge, queries[qi].k);
    out[qi].assign(merge.begin(), merge.end());
  }
  return out;
}

}  // namespace bslrec::serve
