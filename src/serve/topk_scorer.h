// Sharded full-catalog top-k scoring.
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
//   * `ShardTopK` answers one (query block, item shard) pair of the
//     exact scan: for each query of the block it merges the exact top-k
//     of items [lo, hi), with that query's own k and exclusion list,
//     into the query's running top-k. A block of m >= 2 queries is
//     scored as tiles (see below); a block of one runs its own per-pair
//     scan.
//   * `BlockTopK` answers a block of queries serially, allocation-free:
//     the IVF probe, list scan and re-rank per query when !exact,
//     otherwise every fixed-grain shard through `ShardTopK` into the
//     queries' running top-k lists.
//
// `CatalogScorer::BatchTopK` parallelizes the flat (query block x
// shard) grid over a `runtime::ThreadPool`, one `ShardTopK` per task
// into its own slots, and merges each query's slots serially; its ANN
// branch runs one single-query `BlockTopK` per query. The evaluator
// ranks each shard of its parallel user loop as one `BlockTopK` block.
// Shard boundaries depend only on the catalog size and
// `items_per_shard` — never on the worker count or the block size — and
// a worker's score buffer never holds more than one block's scores for
// one shard.
//
// ---- Tiled exact scan (ShardTopK with m >= 2 queries) ----
//
// Scoring one (query, item) pair with vec::Dot widens both rows to
// double for that pair alone. A block of m queries instead widens its
// query rows once per shard, widens the shard's item rows kItemChunk at
// a time into per-worker scratch (vec::Widen), scores each
// m x chunk tile with vec::DotTile into the block's score rows, and then
// runs each query's SelectTopKInto over its own row. DotTile keeps
// Dot's summation tree for every pair, so each score equals vec::Dot's
// bitwise and each query's result is its one-query result, whatever
// the block. A single query keeps the per-pair Dot scan: widening the
// rows for one query costs more than it saves. The per-worker scratch
// is m x items_per_shard floats plus (m + kItemChunk) x dim doubles.
//
// Why the bits hold: the exact scan selects a strict `ScoredBefore`
// top-k over the same `vec::Dot` scores, so the merged per-shard top-k
// is the full-catalog top-k whatever the grain, the merge order, the
// block, the thread count or the batch packing. That needs a total
// order: a NaN score compares neither above nor below a number, so
// `ScoredBefore` ranks every number before every NaN and breaks ties
// among NaNs, like ties among equal numbers, by ascending id. The
// evaluator and the server call the same kernels, so the evaluator
// measures the lists the server returns. The total order also gives the
// global top-k the *prefix property*: the top-k list is exactly the
// first k entries of any top-k' list with k' >= k. The inference
// service's cutoff-prefix reuse and the evaluator's cached rankings
// both lean on this.
//
// ---- IVF approximate retrieval (ScorerOptions::exact = false) ----
//
// With a snapshot built with SnapshotOptions::ivf, BlockTopK routes
// each query through the snapshot's IvfIndex (ivf_index.h) instead of
// the sharded full scan:
//
//   1. score all nlist centroids with one fused vec::DotBatch;
//   2. visit the top-nprobe lists under (score desc, centroid id asc);
//   3. scan each list's grouped rows contiguously — fp32 by default, or
//      the index's int8 codes (vec::DotBatchI8) under
//      ScorerOptions::quantize, in which case the top
//      k + candidate_margin of the query's gathered pool by approximate
//      score are kept;
//   4. exact fp32 re-rank the surviving candidates and emit the top-k
//      under the same (score desc, item id asc) total order.
//
// Items outside the probed lists are invisible, so ANN responses may
// diverge from the exact ranking — recall@k-vs-exact is the quality
// metric (bench_serve sweeps (nlist, nprobe)). Determinism, however,
// stays absolute: the index is frozen at snapshot time, each query's
// probe/scan/re-rank runs serially into its own output slot, and the
// pool only parallelizes *across* queries — so ANN responses are
// bit-identical across thread counts, shard grains (items_per_shard is
// not used at all), and batch packings: same index => same lists =>
// same candidates => same total order. With nprobe >= nlist and fp32
// lists, every item is visible and the response equals the exact
// scan's bitwise.
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

// Merges the top-k of a scored block into `top`: `scores[i - lo]` is
// item i's score for i in [lo, hi), and ids listed in `exclude` (sorted
// ascending; entries outside the block are ignored) are skipped. On
// entry `top` holds at most k items in ScoredBefore order (empty for a
// fresh selection); on return it holds the top-k of those items and
// the block's, in order. Once `top` is full, only items ranked before
// its k-th become candidates. Candidates are built in `scratch`; both
// buffers keep their capacity, so steady-state selection allocates
// nothing.
void SelectTopKInto(const float* scores, uint32_t lo, uint32_t hi, uint32_t k,
                    std::span<const uint32_t> exclude,
                    std::vector<ScoredItem>& scratch,
                    std::vector<ScoredItem>& top);

// One full-catalog top-k query against a snapshot.
struct ScoreQuery {
  const float* q_hat;  // unit query vector, snapshot dim
  uint32_t k;
  std::span<const uint32_t> exclude;  // sorted ascending ids to skip
};

// Extra int8 candidates per ANN query beyond k, kept from the query's
// gathered IVF pool for the exact fp32 re-rank. A larger margin re-ranks
// more candidates, so fewer true top-k items are lost to int8 rounding.
inline constexpr uint32_t kDefaultCandidateMargin = 64;

// Default coarse lists visited per ANN query.
inline constexpr uint32_t kDefaultNprobe = 8;

struct ScorerOptions {
  // Catalog items per scoring shard (a worker's score buffer holds one
  // block of queries' scores for one shard).
  uint32_t items_per_shard = 2048;
  // Scan the IVF lists as int8, then re-rank the survivors in fp32.
  // Needs exact = false and an index built with
  // IvfBuildOptions::int8_lists.
  bool quantize = false;
  uint32_t candidate_margin = kDefaultCandidateMargin;
  // false = ANN: retrieve through the snapshot's IVF index (the
  // snapshot must have been built with SnapshotOptions::ivf.build)
  // instead of scanning the full catalog. quantize then picks the
  // list-scan representation.
  bool exact = true;
  // Coarse lists visited per ANN query (clamped to [1, nlist]);
  // ignored when exact.
  uint32_t nprobe = kDefaultNprobe;
};

// The snapshot tables a scorer with `options` reads: the IVF index
// (shaped by `ivf`) when !exact or when ivf.build asks for it anyway,
// with int8 lists under quantize.
SnapshotOptions SnapshotOptionsFor(const ScorerOptions& options,
                                   IvfBuildOptions ivf = {});

// Aborts unless a scorer with `options` can run on `snapshot`:
// items_per_shard > 0, !exact needs the snapshot's IVF index, and
// quantize needs !exact and an index built with int8 lists. The one
// validation point of CatalogScorer and the evaluator's pass.
void CheckScorerOptions(const ModelSnapshot& snapshot,
                        const ScorerOptions& options);

// Queries per block of the tiled exact scan: the evaluator's user shard,
// and the largest query block of CatalogScorer::BatchTopK's exact grid.
// Chosen by measurement; no result depends on it.
inline constexpr size_t kQueryBlock = 16;

// Item rows the tiled exact scan widens to double at a time.
inline constexpr uint32_t kItemChunk = 64;

// Per-tier scan counters. Each tier ticks only its own, so a scorer's
// counters identify the path it actually ran.
struct ScanStats {
  uint64_t exact_shards = 0;    // exact fp32 (query, shard) scans
  uint64_t ivf_queries = 0;     // ANN queries answered
  uint64_t ivf_lists = 0;       // coarse lists probed (incl. empty)
  uint64_t ivf_candidates = 0;  // eligible list candidates gathered
  // Exact fp32 re-scores of int8 list candidates. Zero with fp32 lists,
  // where the list scan itself already produced exact scores.
  uint64_t ivf_reranked = 0;

  ScanStats& operator+=(const ScanStats& o) {
    exact_shards += o.exact_shards;
    ivf_queries += o.ivf_queries;
    ivf_lists += o.ivf_lists;
    ivf_candidates += o.ivf_candidates;
    ivf_reranked += o.ivf_reranked;
    return *this;
  }
};

// Reusable per-worker buffers for one stream of scans; also accumulates
// the owner's scan statistics. All buffers keep their capacity across
// calls, so steady-state scanning allocates nothing.
struct ShardScratch {
  std::vector<float> scores;       // fp32 scores (shard / block / list)
  std::vector<double> q_wide;      // a query block widened to double
  std::vector<double> rows_wide;   // kItemChunk item rows, widened
  std::vector<int32_t> idot;       // one integer dot per int8 list row
  std::vector<ScoredItem> approx;  // gathered IVF candidates
  std::vector<ScoredItem> cand;    // SelectTopKInto candidate scratch
  std::vector<ScoredItem> probes;  // top-nprobe centroids (ivf)
  std::vector<int8_t> q_codes;     // the query's int8 codes (int8 lists)
  ScanStats stats;                 // summed by CatalogScorer::stats()
};

// The shard kernel of the exact scan: for each query j of `block`,
// merges the exact top-k of items [lo, hi), skipping the query's
// excluded ids, into the running top-k tops[j] (SelectTopKInto's in/out
// contract: empty on entry for the shard's own top-k; always empty on
// return for k = 0). A block of one scores the range with per-pair
// vec::Dot, a larger block with DotTile tiles (see the header note);
// both give the same bits.
void ShardTopK(const ModelSnapshot& snapshot, std::span<const ScoreQuery> block,
               uint32_t lo, uint32_t hi, ShardScratch& ws,
               std::span<std::vector<ScoredItem>> tops);

// The serial per-block kernel: writes the top-k of each query of
// `block` into outs[j] without allocating in steady state. With
// !options.exact it runs the IVF probe, list scan and re-rank per
// query; otherwise it runs every options.items_per_shard shard through
// ShardTopK into `outs` as the running top-k lists, so later shards
// only compete with the k items found so far. This is the per-query
// unit of the ANN BatchTopK (blocks of one) and the evaluator's kernel
// (one block per shard of its parallel user loop, so each block's scan
// stays on one worker).
void BlockTopK(const ModelSnapshot& snapshot, std::span<const ScoreQuery> block,
               const ScorerOptions& options, ShardScratch& ws,
               std::span<std::vector<ScoredItem>> outs);

class CatalogScorer {
 public:
  // Items per scoring shard; a worker's score buffer holds one block of
  // queries' scores for one shard.
  static constexpr uint32_t kDefaultItemsPerShard = 2048;

  // Per-tier scan counters, cumulative since construction (or the last
  // ResetStats).
  using Stats = ScanStats;

  // `snapshot` and `pool` must outlive the scorer. The pool is driven
  // from the calling thread — one TopK/BatchTopK at a time (they are
  // const but share mutable per-worker scratch). Aborts on options the
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

  // Full-catalog top-k for one query.
  std::vector<ScoredItem> TopK(const ScoreQuery& query) const;

  // Batched queries: parallelizes over the flat (query block x
  // item-shard) task grid, so a single large query and many small ones
  // saturate the pool equally well. Exact blocks hold up to kQueryBlock
  // queries. Result i answers queries[i].
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
  mutable std::vector<std::vector<ScoredItem>> shard_tops_;
};

}  // namespace bslrec::serve

#endif  // BSLREC_SERVE_TOPK_SCORER_H_
