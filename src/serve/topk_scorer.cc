#include "serve/topk_scorer.h"

#include <algorithm>

#include "math/check.h"
#include "math/vec.h"

namespace bslrec::serve {

namespace {

// out[i - lo] = cos(q_hat, item i) for every item in [lo, hi).
void ScoreItemRange(const ModelSnapshot& snapshot, const float* q_hat,
                    uint32_t lo, uint32_t hi, float* out) {
  const size_t d = snapshot.dim();
  for (uint32_t i = lo; i < hi; ++i) {
    out[i - lo] = vec::Dot(q_hat, snapshot.ItemVec(i), d);
  }
}

// Keeps the ScoredBefore-first min(k, size) entries of `pool`, in order.
void KeepTopK(std::vector<ScoredItem>& pool, uint32_t k) {
  const auto kk = static_cast<long>(std::min<size_t>(k, pool.size()));
  std::partial_sort(pool.begin(), pool.begin() + kk, pool.end(), ScoredBefore);
  pool.resize(static_cast<size_t>(kk));
}

// k + margin int8 candidates kept for the fp32 re-rank, saturating.
uint32_t CandidateCount(uint32_t k, uint32_t margin) {
  return k > UINT32_MAX - margin ? UINT32_MAX : k + margin;
}

// The tiled exact scan of items [lo, hi) for a block of m >= 2 queries
// (see the header note): every score equals vec::Dot's bitwise, so each
// query's selection sees exactly its one-query scores.
void TiledShardTopK(const ModelSnapshot& snapshot,
                    std::span<const ScoreQuery> block, uint32_t lo, uint32_t hi,
                    ShardScratch& ws, std::span<std::vector<ScoredItem>> tops) {
  const size_t d = snapshot.dim();
  const size_t m = block.size();
  const size_t width = hi - lo;
  ws.q_wide.resize(m * d);
  for (size_t j = 0; j < m; ++j) {
    vec::Widen(block[j].q_hat, d, ws.q_wide.data() + j * d);
  }
  // Row j of the block's scores holds query j's scores for [lo, hi).
  ws.rows_wide.resize(static_cast<size_t>(kItemChunk) * d);
  ws.scores.resize(m * width);
  for (uint32_t c0 = lo; c0 < hi; c0 += kItemChunk) {
    const uint32_t c1 = std::min<uint32_t>(hi, c0 + kItemChunk);
    vec::Widen(snapshot.ItemVec(c0), (c1 - c0) * d, ws.rows_wide.data());
    vec::DotTile(ws.q_wide.data(), m, ws.rows_wide.data(), c1 - c0, d,
                 ws.scores.data() + (c0 - lo), width);
  }
  for (size_t j = 0; j < m; ++j) {
    if (block[j].k == 0) {
      tops[j].clear();
      continue;
    }
    ++ws.stats.exact_shards;
    SelectTopKInto(ws.scores.data() + j * width, lo, hi, block[j].k,
                   block[j].exclude, ws.cand, tops[j]);
  }
}

// One serial ANN query through the snapshot's IVF index: probes the
// top-nprobe lists, scans them in fp32 or int8, exact fp32 re-ranks the
// int8 candidates, and writes the top-k into `out`.
void IvfTopK(const ModelSnapshot& snapshot, const float* q_hat, uint32_t k,
             std::span<const uint32_t> exclude, const ScorerOptions& options,
             ShardScratch& ws, std::vector<ScoredItem>& out) {
  const IvfIndex* ivf = snapshot.ivf();
  BSLREC_CHECK_MSG(ivf != nullptr,
                   "ANN scoring needs a snapshot built with "
                   "SnapshotOptions::ivf.build");
  const size_t d = snapshot.dim();
  const uint32_t nlist = ivf->nlist();
  ++ws.stats.ivf_queries;
  out.clear();
  if (nlist == 0 || k == 0) return;

  // 1. Score every centroid with one fused scan, then pick the
  // top-nprobe lists under (score desc, centroid id asc).
  const uint32_t nprobe =
      std::min<uint32_t>(std::max<uint32_t>(options.nprobe, 1), nlist);
  ws.scores.resize(nlist);
  vec::DotBatch(q_hat, ivf->Centroids(), nlist, d, ws.scores.data());
  ws.probes.clear();
  SelectTopKInto(ws.scores.data(), 0, nlist, nprobe, {}, ws.cand, ws.probes);

  // 2. Gather eligible candidates from the probed lists. Candidates
  // carry their grouped *position* in `item` until the final sort so
  // phase 2 can read the index's contiguous rows.
  float q_scale = 0.0f;
  if (options.quantize) {
    ws.q_codes.resize(d);
    q_scale = vec::QuantizeRow(q_hat, d, ws.q_codes.data());
  }
  ws.approx.clear();
  for (const ScoredItem& probe : ws.probes) {
    ++ws.stats.ivf_lists;
    const uint32_t begin = ivf->ListOffset(probe.item);
    const uint32_t end = ivf->ListOffset(probe.item + 1);
    if (begin == end) continue;  // empty list
    const uint32_t m = end - begin;
    ws.scores.resize(m);
    if (options.quantize) {
      ws.idot.resize(m);
      vec::DotBatchI8(ws.q_codes.data(), ivf->Codes(begin), m, d,
                      ws.idot.data());
      for (uint32_t j = 0; j < m; ++j) {
        ws.scores[j] = static_cast<float>(ws.idot[j]) *
                       (q_scale * ivf->Scale(begin + j));
      }
    } else {
      vec::DotBatch(q_hat, ivf->Row(begin), m, d, ws.scores.data());
    }
    // Exclusion merge: list ids and the exclude span are both sorted
    // ascending, so one forward walk per list suffices.
    const uint32_t* ids = ivf->ItemIds(begin);
    auto ex = std::lower_bound(exclude.begin(), exclude.end(), ids[0]);
    for (uint32_t j = 0; j < m; ++j) {
      const uint32_t id = ids[j];
      while (ex != exclude.end() && *ex < id) ++ex;
      if (ex != exclude.end() && *ex == id) continue;
      ws.approx.push_back({begin + j, ws.scores[j]});
    }
  }
  ws.stats.ivf_candidates += ws.approx.size();

  // 3. int8 lists: keep the top c = k + margin of the whole candidate
  // pool by approximate score (position tie-break — a fixed property of
  // the index, so still deterministic), then exact fp32 re-rank the
  // survivors. fp32 lists scored exactly already.
  size_t cc = ws.approx.size();
  if (options.quantize) {
    cc = std::min<size_t>(CandidateCount(k, options.candidate_margin),
                          ws.approx.size());
    std::partial_sort(ws.approx.begin(),
                      ws.approx.begin() + static_cast<long>(cc),
                      ws.approx.end(), ScoredBefore);
    for (size_t j = 0; j < cc; ++j) {
      ws.approx[j].score = vec::Dot(q_hat, ivf->Row(ws.approx[j].item), d);
    }
    ws.stats.ivf_reranked += cc;
  }

  // 4. Map positions back to item ids, then the final top-k under the
  // strict (score desc, id asc) total order.
  ws.approx.resize(cc);
  for (ScoredItem& e : ws.approx) e.item = ivf->ItemIdAt(e.item);
  KeepTopK(ws.approx, k);
  out.assign(ws.approx.begin(), ws.approx.end());
}

// One query's shard scan (ShardTopK's contract for a block of one):
// per-pair vec::Dot scores and selection.
void OneShardTopK(const ModelSnapshot& snapshot, const ScoreQuery& query,
                  uint32_t lo, uint32_t hi, ShardScratch& ws,
                  std::vector<ScoredItem>& top) {
  if (query.k == 0) {
    top.clear();
    return;
  }
  ++ws.stats.exact_shards;
  ws.scores.resize(hi - lo);
  ScoreItemRange(snapshot, query.q_hat, lo, hi, ws.scores.data());
  SelectTopKInto(ws.scores.data(), lo, hi, query.k, query.exclude, ws.cand,
                 top);
}

}  // namespace

void SelectTopKInto(const float* scores, uint32_t lo, uint32_t hi, uint32_t k,
                    std::span<const uint32_t> exclude,
                    std::vector<ScoredItem>& scratch,
                    std::vector<ScoredItem>& top) {
  scratch.assign(top.begin(), top.end());
  scratch.reserve(top.size() + (hi - lo));
  // Once `top` holds k items, an item ranked after its k-th has k items
  // ahead of it and cannot enter the result.
  const bool full = k > 0 && top.size() >= k;
  const ScoredItem floor = full ? top[k - 1] : ScoredItem{};
  auto ex = exclude.begin();
  for (uint32_t i = lo; i < hi; ++i) {
    while (ex != exclude.end() && *ex < i) ++ex;
    if (ex != exclude.end() && *ex == i) continue;
    const ScoredItem item{i, scores[i - lo]};
    if (full && !ScoredBefore(item, floor)) continue;
    scratch.push_back(item);
  }
  KeepTopK(scratch, k);
  top.assign(scratch.begin(), scratch.end());
}

SnapshotOptions SnapshotOptionsFor(const ScorerOptions& options,
                                   IvfBuildOptions ivf) {
  SnapshotOptions so;
  so.ivf = ivf;
  so.ivf.int8_lists = options.quantize;
  if (!options.exact) so.ivf.build = true;
  return so;
}

void CheckScorerOptions(const ModelSnapshot& snapshot,
                        const ScorerOptions& options) {
  BSLREC_CHECK_MSG(options.items_per_shard > 0,
                   "ScorerOptions::items_per_shard must be > 0");
  BSLREC_CHECK_MSG(options.exact || snapshot.ivf() != nullptr,
                   "ScorerOptions::exact = false needs a snapshot with an "
                   "IVF index (SnapshotOptions::ivf.build)");
  BSLREC_CHECK_MSG(!options.quantize || !options.exact,
                   "ScorerOptions::quantize scans the IVF index's lists as "
                   "int8, so it needs exact = false");
  BSLREC_CHECK_MSG(!options.quantize || snapshot.ivf()->has_codes(),
                   "ScorerOptions::quantize needs an IVF index built with "
                   "int8 lists (IvfBuildOptions::int8_lists)");
}

void ShardTopK(const ModelSnapshot& snapshot, std::span<const ScoreQuery> block,
               uint32_t lo, uint32_t hi, ShardScratch& ws,
               std::span<std::vector<ScoredItem>> tops) {
  // Widening the rows for one query costs more than per-pair Dot saves.
  if (block.size() >= 2) {
    TiledShardTopK(snapshot, block, lo, hi, ws, tops);
    return;
  }
  for (size_t j = 0; j < block.size(); ++j) {
    OneShardTopK(snapshot, block[j], lo, hi, ws, tops[j]);
  }
}

void BlockTopK(const ModelSnapshot& snapshot, std::span<const ScoreQuery> block,
               const ScorerOptions& options, ShardScratch& ws,
               std::span<std::vector<ScoredItem>> outs) {
  if (!options.exact) {
    for (size_t j = 0; j < block.size(); ++j) {
      IvfTopK(snapshot, block[j].q_hat, block[j].k, block[j].exclude, options,
              ws, outs[j]);
    }
    return;
  }
  const uint32_t n = snapshot.num_items();
  for (size_t j = 0; j < block.size(); ++j) outs[j].clear();
  // Each shard merges into the running top-k of the shards before it;
  // the strict total order makes the result independent of the grain.
  for (uint32_t lo = 0; lo < n; lo += options.items_per_shard) {
    const uint32_t hi = std::min<uint32_t>(n, lo + options.items_per_shard);
    ShardTopK(snapshot, block, lo, hi, ws, outs);
  }
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

std::vector<ScoredItem> CatalogScorer::TopK(const ScoreQuery& query) const {
  return BatchTopK({&query, 1})[0];
}

std::vector<std::vector<ScoredItem>> CatalogScorer::BatchTopK(
    std::span<const ScoreQuery> queries) const {
  const uint32_t n = snapshot_.num_items();
  const uint32_t items_per_shard = options_.items_per_shard;
  const size_t num_shards =
      (static_cast<size_t>(n) + items_per_shard - 1) / items_per_shard;
  const size_t num_queries = queries.size();
  std::vector<std::vector<ScoredItem>> out(num_queries);
  if (queries.empty()) return out;

  if (!options_.exact) {
    // ANN: each query is one serial probe/scan/re-rank unit writing its
    // own output slot; the pool only fans out *across* queries, so the
    // responses are bit-identical for any thread count, shard grain
    // (unused here), or batch packing.
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
  if (num_shards == 0) return out;

  // Flat (query block, item-shard) task grid with one per-shard output
  // slot per query, stored shard-major so a block's slots for one shard
  // are contiguous, and shard-sized buffers per worker (hoisted into
  // scorer scratch — steady-state scanning allocates nothing). Each slot
  // is written by exactly one task, so no synchronization is needed and
  // the serial per-query merge below is deterministic. Blocks hold up to
  // kQueryBlock queries, fewer when a catalog of few shards would
  // otherwise leave workers idle (no response depends on the block).
  const size_t blocks_per_shard =
      (pool_.num_workers() + num_shards - 1) / num_shards;
  const size_t block = std::clamp<size_t>(
      (num_queries + blocks_per_shard - 1) / blocks_per_shard, 1, kQueryBlock);
  const size_t num_blocks = (num_queries + block - 1) / block;
  shard_tops_.resize(num_shards * num_queries);
  runtime::ParallelFor(
      pool_, 0, num_blocks * num_shards, 1,
      [&](size_t lo, size_t hi, size_t /*shard*/, size_t worker) {
        for (size_t t = lo; t < hi; ++t) {
          const size_t q0 = (t / num_shards) * block;
          const size_t m = std::min(block, num_queries - q0);
          const size_t s = t % num_shards;
          const uint32_t item_lo = static_cast<uint32_t>(s * items_per_shard);
          const uint32_t item_hi =
              std::min<uint32_t>(n, item_lo + items_per_shard);
          const std::span<std::vector<ScoredItem>> tops(
              &shard_tops_[s * num_queries + q0], m);
          for (std::vector<ScoredItem>& top : tops) top.clear();
          ShardTopK(snapshot_, queries.subspan(q0, m), item_lo, item_hi,
                    scratch_[worker], tops);
        }
      });
  // Concatenated in a reused buffer, so each result is allocated at its
  // own size (the ranking engine caches these vectors).
  std::vector<ScoredItem> merge;
  for (size_t qi = 0; qi < num_queries; ++qi) {
    merge.clear();
    for (size_t s = 0; s < num_shards; ++s) {
      const std::vector<ScoredItem>& top = shard_tops_[s * num_queries + qi];
      merge.insert(merge.end(), top.begin(), top.end());
    }
    KeepTopK(merge, queries[qi].k);
    out[qi].assign(merge.begin(), merge.end());
  }
  return out;
}

}  // namespace bslrec::serve
