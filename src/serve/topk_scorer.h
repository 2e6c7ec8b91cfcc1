// Full-catalog top-k scoring.
//
// The scoring core behind both the inference service and the offline
// evaluator: cosine-score every catalog item of a `ModelSnapshot`
// against unit query vectors and select each query's k best under the
// strict total order `ScoredBefore` (score descending, item id
// ascending, NaN last), optionally skipping an excluded (already seen)
// item set.
//
// Every tier is built from two kernels:
//
//   * `ShardTopK` answers one (query block, item range) pair of the
//     exact scan: for each query of the block it merges the exact top-k
//     of items [lo, hi), with that query's own k and exclusion list,
//     into the query's running top-k. Every block size, one query
//     included, runs the same scan (see below).
//   * `BlockTopK` answers a block of queries serially, allocation-free:
//     the IVF probe and list scan per query when !exact, otherwise one
//     ShardTopK over the whole catalog, with one heap (below) per query.
//
// Both run one scan (below) over a table of rows read in place: the
// catalog's item rows, the IVF index's centroids, or its grouped list
// rows.
//
// `CatalogScorer::BatchTopK` parallelizes the flat (query block x item
// range) grid over a `runtime::ThreadPool`, one `ShardTopK` per task
// into its own slots, and merges each query's slots serially; its ANN
// branch runs one single-query `BlockTopK` per query. The evaluator
// ranks each shard of its parallel user loop as one `BlockTopK` block.
//
// BatchTopK splits the catalog only as far as the pool needs: it gives
// each query block ceil(workers / query blocks) item ranges, each a whole
// number of kItemChunk chunks holding at least kMinRangeFloats of item
// rows (the last range may end short), and then sizes the blocks so that
// blocks x ranges covers the pool. A batch of at least as many query
// blocks as workers (any batch of workers x kQueryBlock queries, and
// every batch on a one-worker pool) scans the whole catalog as one
// range, with one heap per query, as BlockTopK does, and so does any
// batch over a catalog too small for two ranges. The split depends on
// the worker count, which no result does: see "Why the bits hold" below.
//
// ---- Tiled exact scan (every tier) ----
//
// A block of m queries copies its query rows once, then scores the
// table's rows kItemChunk at a time, read in place, as one m x chunk
// single-precision tile (vec::DotTileF32): half the multiply-adds of a
// double-precision score and no widening. Each query keeps its running
// top-k in tops[j] as a heap under ScoredBefore whose front is its k-th
// (std::make_heap on entry, std::sort_heap on exit), and walks its row
// of the tile:
//
//   * fill: while the heap holds fewer than k items, the next eligible
//     (not excluded) items enter with exact scores, whatever their fp32
//     scores;
//   * skip test: after that, an item is skipped when its fp32 score plus
//     eps lies below f, the k-th's exact score. eps is the query's
//     vec::DotTileF32Error bound for vec::NormBound(q) times the table's
//     recorded norm bound (ModelSnapshot::item_norm_bound() for item
//     rows, IvfIndex::centroid_norm_bound() for centroids). The test
//     compares the fp32 score with a float at or below f - eps
//     (vec::IndicesNotBelow), so rounding can only keep an item. A NaN
//     fp32 score is always kept, and while f is NaN every item is, as for
//     a query whose norm the bound cannot cover (eps = +inf);
//   * re-score: the chunk's kept eligible items get vec::Dot's exact
//     scores in one vec::DotRows call, and each enters the heap if it
//     ranks before the front (ScanStats::exact_rescored counts them for
//     item rows, ScanStats::ivf_rescored for list rows).
//
// The threshold is taken once per chunk, before that chunk's inserts;
// the k-th only rises, so a stale f keeps more items, never fewer. A
// worker's scratch holds the block's query rows and one m x kItemChunk
// tile. A query whose running k-th is well placed re-scores a few
// percent of the catalog (about 2% of the evaluator's pairs at 8000
// items, dim 64, k = 20); one whose heap never fills (k near the
// catalog size) re-scores every item. Each BatchTopK task starts its
// heap empty, so a query split into r ranges re-scores at least r x k
// items; a one-range batch re-scores exactly what BlockTopK does.
//
// Why the bits hold. A skipped item has exact score s <= fp32 + eps < f,
// where f is the exact score of the heap's k-th when the item was
// tested; so it ranks after that k-th, and after every later one, since
// the k-th only rises: k items already rank before it, and it cannot be
// in the top-k. Every item that is not skipped is offered with
// vec::Dot's bits and ordered by the strict total order `ScoredBefore`.
// So each query's result is the unique ScoredBefore top-k of the same
// set of items with the same scores as a full exact scan: the same
// whatever the block, the chunk, the item split, the merge order, the
// thread count or the batch packing. That needs a total order: a NaN
// score compares neither above nor below a number, so `ScoredBefore` ranks
// every number before every NaN and breaks ties among NaNs, like ties
// among equal numbers, by ascending id. The evaluator and the server
// call the same kernels, so the evaluator measures the lists the server
// returns. The total order also gives the global top-k the *prefix
// property*: the top-k list is exactly the first k entries of any top-k'
// list with k' >= k. The inference service's cutoff-prefix reuse and the
// evaluator's cached rankings both lean on this.
//
// ---- IVF approximate retrieval (ScorerOptions::exact = false) ----
//
// With a snapshot built with SnapshotOptions::ivf, BlockTopK routes
// each query through the snapshot's IvfIndex (ivf_index.h) instead of
// the full scan, in two runs of the same scan:
//
//   1. the centroid rows, with k = nprobe and no exclusions: the
//      ScoredBefore top-nprobe lists (score desc, centroid id asc);
//   2. the probed lists' grouped rows, read in place, into one heap per
//      query: each list is a range of the grouped table whose rows carry
//      their item ids (ascending within a list, so each list starts its
//      own exclusion cursor), and the k-th rises list by list. The
//      grouped rows are bitwise the snapshot's item rows, so
//      item_norm_bound() covers them.
//
// By the argument above, the probe set is the ScoredBefore top-nprobe of
// the centroids under vec::Dot's bits, and the result is the unique
// ScoredBefore top-k of the probed lists' non-excluded items scored by
// vec::Dot. Items outside the probed lists are invisible, so ANN
// responses may diverge from the exact ranking — recall@k-vs-exact is
// the quality metric (bench_serve sweeps (nlist, nprobe)). Determinism,
// however, stays absolute: the index is frozen at snapshot time, each
// query's probe and scan run serially into its own output slot, and the
// pool only parallelizes *across* queries — so ANN responses are
// bit-identical across thread counts and batch packings: same index =>
// same lists => same candidates => same total order. With nprobe >=
// nlist every item is visible and the response equals the exact scan's
// bitwise.
#ifndef BSLREC_SERVE_TOPK_SCORER_H_
#define BSLREC_SERVE_TOPK_SCORER_H_

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "runtime/thread_pool.h"
#include "serve/model_snapshot.h"

namespace bslrec::serve {

// One catalog item with its cosine score for some query.
struct ScoredItem {
  uint32_t item;
  float score;
};

// Strict total order used everywhere: higher score first; every number
// (infinities included) before every NaN; equal scores (+0 and -0
// included) and NaNs by ascending item id. Numbers compare as they
// always have; the NaN rule only makes the order total, so selection
// gives one answer however the calls split the catalog.
inline bool ScoredBefore(const ScoredItem& a, const ScoredItem& b) {
  if (a.score > b.score) return true;
  if (a.score < b.score) return false;
  const bool a_nan = std::isnan(a.score);
  if (a_nan != std::isnan(b.score)) return !a_nan;
  return a.item < b.item;
}

// One full-catalog top-k query against a snapshot.
struct ScoreQuery {
  const float* q_hat;  // unit query vector, snapshot dim
  uint32_t k;
  std::span<const uint32_t> exclude;  // sorted ascending ids to skip
};

// Default coarse lists visited per ANN query.
inline constexpr uint32_t kDefaultNprobe = 8;

struct ScorerOptions {
  // false = ANN: retrieve through the snapshot's IVF index (the
  // snapshot must have been built with SnapshotOptions::ivf.build)
  // instead of scanning the full catalog.
  bool exact = true;
  // Coarse lists visited per ANN query (clamped to [1, nlist]);
  // ignored when exact.
  uint32_t nprobe = kDefaultNprobe;
};

// The snapshot tables a scorer with `options` reads: the IVF index
// (shaped by `ivf`) when !exact or when ivf.build asks for it anyway.
SnapshotOptions SnapshotOptionsFor(const ScorerOptions& options,
                                   IvfBuildOptions ivf = {});

// Aborts unless a scorer with `options` can run on `snapshot`: !exact
// needs the snapshot's IVF index. The one validation point of
// CatalogScorer and the evaluator's pass.
void CheckScorerOptions(const ModelSnapshot& snapshot,
                        const ScorerOptions& options);

// Queries per block of the tiled exact scan: the evaluator's user shard,
// and the largest query block of CatalogScorer::BatchTopK's exact grid.
// Chosen by measurement; no result depends on it.
inline constexpr size_t kQueryBlock = 16;

// Rows per single-precision tile of the scan, and the unit of
// CatalogScorer::BatchTopK's item ranges.
inline constexpr uint32_t kItemChunk = 64;

// The least item-row data, in floats (items x dim), that one item range
// of CatalogScorer::BatchTopK holds (1536 items at dim 64): below it,
// handing a range to a worker and re-filling its heap cost more than
// the split saves. One query split into two ranges on a 2-worker pool
// first beat a single range between 2048 and 4096 items at dim 64, 1024
// and 2048 at dim 128, and 8192 and 16384 at dim 16; and at 8000 items,
// dim 64, k = 20, four ranges of 2000 items beat three of 2667 on a
// 4-worker pool (perfbench's serving recipe, 4-core AVX2 host). Chosen
// by measurement; no result depends on it.
inline constexpr size_t kMinRangeFloats = 1536 * 64;

// Per-tier scan counters. Each tier ticks only its own, so a scorer's
// counters identify the path it actually ran.
struct ScanStats {
  // Exact scans of one query over one item range (ShardTopK): one per
  // query under BlockTopK, one per range of its batch under BatchTopK.
  uint64_t exact_shards = 0;
  // Items the exact scan scored with vec::Dot (fills and items the
  // single-precision skip test kept).
  uint64_t exact_rescored = 0;
  uint64_t ivf_queries = 0;     // ANN queries answered
  uint64_t ivf_lists = 0;       // coarse lists probed (incl. empty)
  uint64_t ivf_candidates = 0;  // list rows scanned
  // List rows the ANN scan scored with vec::Dot (fills and rows the
  // single-precision skip test kept).
  uint64_t ivf_rescored = 0;

  ScanStats& operator+=(const ScanStats& o) {
    exact_shards += o.exact_shards;
    exact_rescored += o.exact_rescored;
    ivf_queries += o.ivf_queries;
    ivf_lists += o.ivf_lists;
    ivf_candidates += o.ivf_candidates;
    ivf_rescored += o.ivf_rescored;
    return *this;
  }
};

// Reusable per-worker buffers for one stream of scans; also accumulates
// the owner's scan statistics. All buffers keep their capacity across
// calls, so steady-state scanning allocates nothing.
struct ShardScratch {
  // One query's state in the scan of a row range.
  struct QueryState {
    float eps = 0.0f;         // its DotTileF32Error bound
    size_t next_exclude = 0;  // exclusion cursor (index into exclude)
  };
  std::vector<float> q;             // the block's query rows
  std::vector<float> tile;          // m x kItemChunk fp32 scores
  std::vector<QueryState> queries;  // per query of the block
  std::vector<uint32_t> kept;       // a chunk's re-scored row offsets
  std::vector<float> exact;         // their vec::Dot scores
  std::vector<ScoredItem> probes;   // top-nprobe centroids (ivf)
  ScanStats stats;                  // summed by CatalogScorer::stats()
};

// The kernel of the exact scan: for each query j of `block`, merges the
// exact top-k of items [lo, hi), skipping the query's excluded ids, into
// the running top-k tops[j]. On entry tops[j] holds at most k items in
// ScoredBefore order (empty for the range's own top-k); on return it
// holds the top-k of those items and the range's, in order (always
// empty for k = 0). Any block size runs the tiled scan of the header
// note, with the same bits.
void ShardTopK(const ModelSnapshot& snapshot, std::span<const ScoreQuery> block,
               uint32_t lo, uint32_t hi, ShardScratch& ws,
               std::span<std::vector<ScoredItem>> tops);

// The serial per-block kernel: writes the top-k of each query of
// `block` into outs[j] without allocating in steady state. With
// !options.exact it runs the IVF probe and list scan per query;
// otherwise one ShardTopK over the whole catalog, so every item
// competes with the k found so far. This is the per-query unit of the
// ANN BatchTopK (blocks of one) and the evaluator's kernel (one block
// per shard of its parallel user loop, so each block's scan stays on one
// worker).
void BlockTopK(const ModelSnapshot& snapshot, std::span<const ScoreQuery> block,
               const ScorerOptions& options, ShardScratch& ws,
               std::span<std::vector<ScoredItem>> outs);

class CatalogScorer {
 public:
  // Per-tier scan counters, cumulative since construction (or the last
  // ResetStats).
  using Stats = ScanStats;

  // `snapshot` and `pool` must outlive the scorer. The pool is driven
  // from the calling thread — one BatchTopK at a time (it is const but
  // shares mutable per-worker scratch). Aborts on options the
  // snapshot cannot serve (CheckScorerOptions).
  CatalogScorer(const ModelSnapshot& snapshot, runtime::ThreadPool& pool,
                const ScorerOptions& options);

  const ScorerOptions& options() const { return options_; }
  // Sums the per-worker counters. Reset semantics: counters accumulate
  // across calls until ResetStats() zeroes them; both must be called
  // from the scorer's single driving thread *between* scoring calls
  // (they read/write the same per-worker scratch the scans use).
  Stats stats() const;
  // const like the scoring calls: it touches only the mutable
  // per-worker scratch, under the same one-driver contract.
  void ResetStats() const;

  // Full-catalog top-k for a batch of queries (one query included):
  // parallelizes over the flat (query block x item range) task grid of
  // the header note, so a single query and many saturate the pool
  // equally well. Exact blocks hold up to kQueryBlock queries. Result i
  // answers queries[i], and is allocated at its own size.
  std::vector<std::vector<ScoredItem>> BatchTopK(
      std::span<const ScoreQuery> queries) const;

 private:
  const ModelSnapshot& snapshot_;
  runtime::ThreadPool& pool_;
  ScorerOptions options_;
  // Per-worker buffers and per-call structures, hoisted out of
  // BatchTopK so steady-state scanning performs no allocation (slots
  // and scratch keep their capacity across calls). Mutable because
  // scoring is logically const; guarded by the one-call-at-a-time
  // contract above.
  mutable std::vector<ShardScratch> scratch_;  // one per worker
  // One slot per (item range, query), range-major.
  mutable std::vector<std::vector<ScoredItem>> shard_tops_;
};

}  // namespace bslrec::serve

#endif  // BSLREC_SERVE_TOPK_SCORER_H_
