// Tests for the serving layer: snapshot construction, the top-k scoring
// core, its item split and its tiled block kernel, the IVF tier against
// a brute-force oracle, the inference service's batching, seen-item
// filtering, cutoff-prefix reuse, and thread-count determinism, and the
// evaluator's blocked ranking pass.
#include "serve/inference_service.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "data/synthetic.h"
#include "eval/evaluator.h"
#include "eval/metrics.h"
#include "gtest/gtest.h"
#include "math/vec.h"
#include "models/mf.h"
#include "serve/model_snapshot.h"
#include "serve/topk_scorer.h"
#include "test_util.h"

namespace bslrec {
namespace {

using serve::CatalogScorer;
using serve::InferenceService;
using serve::ModelSnapshot;
using serve::ScoredItem;
using serve::ServeConfig;
using serve::TopKRequest;
using serve::TopKResponse;

// A dataset big enough that item ranges and thread counts both matter.
Dataset MediumDataset(uint64_t seed = 11) {
  SyntheticConfig cfg;
  cfg.num_users = 60;
  cfg.num_items = 90;
  cfg.num_clusters = 5;
  cfg.avg_items_per_user = 10.0;
  cfg.seed = seed;
  return GenerateSynthetic(cfg).dataset;
}

ServeConfig Config(size_t threads, uint32_t max_k = 20, bool cache = true) {
  ServeConfig cfg;
  cfg.max_k = max_k;
  cfg.cache_rankings = cache;
  cfg.runtime.num_threads = threads;
  return cfg;
}

TopKRequest Req(uint32_t user, uint32_t k, bool filter_seen = true,
                std::span<const uint32_t> extra_seen = {}) {
  TopKRequest req;
  req.user = user;
  req.k = k;
  req.filter_seen = filter_seen;
  req.extra_seen = extra_seen;
  return req;
}

// Items in the smallest item range CatalogScorer::BatchTopK makes at
// dim d: whole chunks holding at least serve::kMinRangeFloats floats.
uint32_t MinRangeItems(size_t d) {
  const size_t chunk_floats = serve::kItemChunk * d;
  const size_t chunks =
      (serve::kMinRangeFloats + chunk_floats - 1) / chunk_floats;
  return static_cast<uint32_t>(chunks * serve::kItemChunk);
}

void ExpectSameResponse(const TopKResponse& a, const TopKResponse& b,
                        const std::string& what) {
  ASSERT_EQ(a.items.size(), b.items.size()) << what;
  for (size_t i = 0; i < a.items.size(); ++i) {
    EXPECT_EQ(a.items[i], b.items[i]) << what << " rank " << i;
    // Bit-identical, not approximately equal: the determinism contract.
    EXPECT_EQ(a.scores[i], b.scores[i]) << what << " rank " << i;
  }
}

TEST(ModelSnapshot, RowsAreUnitNorm) {
  const Dataset d = MediumDataset();
  Rng rng(1);
  MfModel model(d.num_users(), d.num_items(), 8, rng);
  model.Forward(rng);
  runtime::ThreadPool pool(2);
  const ModelSnapshot snap(model, pool);
  EXPECT_EQ(snap.num_users(), d.num_users());
  EXPECT_EQ(snap.num_items(), d.num_items());
  EXPECT_EQ(snap.dim(), 8u);
  for (uint32_t u = 0; u < snap.num_users(); ++u) {
    const float n = vec::Dot(snap.UserVec(u), snap.UserVec(u), snap.dim());
    EXPECT_NEAR(n, 1.0f, 1e-5f) << "user " << u;
  }
  for (uint32_t i = 0; i < snap.num_items(); ++i) {
    const float n = vec::Dot(snap.ItemVec(i), snap.ItemVec(i), snap.dim());
    EXPECT_NEAR(n, 1.0f, 1e-5f) << "item " << i;
  }
}

TEST(ModelSnapshot, IsImmutableCopyOfTheModel) {
  const Dataset d = testing::TinyDataset();
  Rng rng(2);
  MfModel model(d.num_users(), d.num_items(), 4, rng);
  model.Forward(rng);
  runtime::ThreadPool pool(1);
  const ModelSnapshot snap(model, pool);
  const std::vector<float> before(snap.ItemVec(0), snap.ItemVec(0) + 4);
  // Clobber the model; the snapshot must not move.
  for (ParamGrad& pg : model.Params()) pg.value->SetZero();
  model.Forward(rng);
  for (size_t c = 0; c < 4; ++c) {
    EXPECT_EQ(snap.ItemVec(0)[c], before[c]);
  }
}

// BatchTopK splits the catalog by the pool's worker count and the batch
// size. On a catalog of eight smallest ranges and a bit, 8 workers split
// a query alone or in a batch of 2 into 8 item ranges, in a batch of 17
// into 4, of 33 into 3 and of 129 into one. Every split must give the
// query the bits of a one-worker pool.
TEST(TopKScorer, PoolAndBatchSizeNeverChangeTheResult) {
  constexpr size_t kDim = 64;
  const uint32_t num_items = 8 * MinRangeItems(kDim) + 5;
  const Dataset d = MediumDataset();
  Rng rng(3);
  MfModel model(d.num_users(), num_items, kDim, rng);
  model.Forward(rng);
  runtime::ThreadPool pool1(1);
  const ModelSnapshot snap(model, pool1);
  const std::vector<uint32_t> exclude = d.TestUsers();  // arbitrary ids
  const serve::ScoreQuery query{snap.UserVec(7), 12, exclude};
  const CatalogScorer reference(snap, pool1, {});
  const std::vector<ScoredItem> want = reference.BatchTopK({&query, 1})[0];
  ASSERT_EQ(want.size(), 12u);
  const size_t batches[] = {1, 2, 17, 33, 129};
  // Item ranges per query at each batch size.
  const std::pair<size_t, std::vector<uint64_t>> splits[] = {
      {2, {2, 2, 1, 1, 1}}, {3, {3, 3, 2, 1, 1}}, {8, {8, 8, 4, 3, 1}}};
  for (const auto& [threads, ranges] : splits) {
    runtime::ThreadPool pool(threads);
    const CatalogScorer scorer(snap, pool, {});
    for (size_t b = 0; b < std::size(batches); ++b) {
      // The query last, behind batch - 1 other users' queries.
      std::vector<serve::ScoreQuery> queries;
      for (size_t j = 0; j + 1 < batches[b]; ++j) {
        queries.push_back({snap.UserVec(j % d.num_users()), 12, {}});
      }
      queries.push_back(query);
      scorer.ResetStats();
      const std::vector<ScoredItem> got = scorer.BatchTopK(queries).back();
      const std::string what = "threads " + std::to_string(threads) +
                               " batch " + std::to_string(batches[b]);
      EXPECT_EQ(scorer.stats().exact_shards, ranges[b] * batches[b]) << what;
      ASSERT_EQ(got.size(), want.size()) << what;
      for (size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got[i].item, want[i].item) << what;
        EXPECT_EQ(got[i].score, want[i].score) << what;
      }
    }
  }
}

TEST(TopKScorer, ZeroCutoffReturnsEmptyOnEveryTier) {
  const Dataset d = MediumDataset();
  Rng rng(4);
  MfModel model(d.num_users(), d.num_items(), 8, rng);
  model.Forward(rng);
  runtime::ThreadPool pool(2);
  serve::SnapshotOptions so;
  so.ivf.build = true;
  const ModelSnapshot snap(model, pool, so);
  const serve::ScoreQuery zero{snap.UserVec(3), 0, {}};
  const serve::ScoreQuery five{snap.UserVec(3), 5, {}};
  for (const serve::ScorerOptions& options :
       {serve::ScorerOptions{}, serve::ScorerOptions{.exact = false}}) {
    const CatalogScorer scorer(snap, pool, options);
    const std::string tier = options.exact ? "exact" : "ivf";
    EXPECT_TRUE(scorer.BatchTopK({&zero, 1})[0].empty()) << tier;
    // A zero cutoff beside a real one in the same batch.
    const std::vector<serve::ScoreQuery> batch = {zero, five};
    const std::vector<std::vector<ScoredItem>> got = scorer.BatchTopK(batch);
    EXPECT_TRUE(got[0].empty()) << tier;
    EXPECT_EQ(got[1].size(), 5u) << tier;
  }
}

// Bitwise equality: NaN scores included, which operator== never calls
// equal.
bool SameBits(float a, float b) {
  return std::bit_cast<uint32_t>(a) == std::bit_cast<uint32_t>(b);
}

void ExpectSameRanking(const std::vector<ScoredItem>& got,
                       const std::vector<ScoredItem>& want,
                       const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].item, want[i].item) << what << " rank " << i;
    EXPECT_TRUE(SameBits(got[i].score, want[i].score)) << what << " rank " << i;
  }
}

// Every query of a block must get, bitwise, the result it gets alone:
// the single-precision tile, and with it the skip test's threshold, is
// the block's, but every kept item is re-scored with vec::Dot. The
// catalog spans three item chunks, so the exclusion lists can cover a
// whole chunk and the whole catalog.
TEST(BlockTopK, EveryQueryMatchesItsOneQueryResultBitwise) {
  constexpr uint32_t kUsers = 20;
  const uint32_t n = 2 * serve::kItemChunk + 22;
  std::vector<std::vector<uint32_t>> excludes(4);
  excludes[1] = {0, 5, serve::kItemChunk - 1, serve::kItemChunk, n - 1};
  for (uint32_t i = serve::kItemChunk; i < 2 * serve::kItemChunk; ++i) {
    excludes[2].push_back(i);  // one whole chunk
  }
  for (uint32_t i = 0; i < n; ++i) excludes[3].push_back(i);  // everything
  // The last query of every block (j = 8 and 16 included) has k > 0.
  const uint32_t ks[] = {n + 3, 5, 1, 0};
  for (const size_t d : {1u, 3u, 7u, 17u, 64u}) {
    Rng rng(50 + d);
    MfModel model(kUsers, n, d, rng);
    runtime::ThreadPool pool(1);
    const ModelSnapshot snap(model, pool);
    for (const size_t m : {1u, 2u, 3u, 8u, 9u, 17u}) {
      // Query j takes cutoff ks[j % 4] and exclusion list j / 4 % 4, so
      // the 17-query block covers every pairing.
      std::vector<serve::ScoreQuery> block;
      for (size_t j = 0; j < m; ++j) {
        const auto u = static_cast<uint32_t>(j % kUsers);
        block.push_back({snap.UserVec(u), ks[j % 4], excludes[j / 4 % 4]});
      }
      serve::ShardScratch block_ws, one_ws;
      std::vector<std::vector<ScoredItem>> got(m);
      serve::BlockTopK(snap, block, {}, block_ws, got);
      for (size_t j = 0; j < m; ++j) {
        std::vector<ScoredItem> want;
        serve::BlockTopK(snap, {&block[j], 1}, {}, one_ws, {&want, 1});
        const std::string what = "d " + std::to_string(d) + " m " +
                                 std::to_string(m) + " query " +
                                 std::to_string(j);
        ExpectSameRanking(got[j], want, what);
      }
      // The counter still counts (query, item range) scans.
      EXPECT_EQ(block_ws.stats.exact_shards, one_ws.stats.exact_shards)
          << "d " << d << " m " << m;
    }
  }
}

// The brute-force oracle, independent of the scan's selection code:
// every non-excluded item of [lo, hi) scored with vec::Dot, std::sort
// under ScoredBefore, the first k kept.
std::vector<ScoredItem> BruteForceTopK(const ModelSnapshot& snap,
                                       const serve::ScoreQuery& query,
                                       uint32_t lo, uint32_t hi) {
  std::vector<ScoredItem> all;
  for (uint32_t i = lo; i < hi; ++i) {
    if (std::binary_search(query.exclude.begin(), query.exclude.end(), i)) {
      continue;
    }
    all.push_back({i, vec::Dot(query.q_hat, snap.ItemVec(i), snap.dim())});
  }
  std::sort(all.begin(), all.end(), serve::ScoredBefore);
  all.resize(std::min<size_t>(query.k, all.size()));
  return all;
}

std::vector<ScoredItem> BruteForceTopK(const ModelSnapshot& snap,
                                       const serve::ScoreQuery& query) {
  return BruteForceTopK(snap, query, 0, snap.num_items());
}

// A catalog (by default three and a half item chunks) whose rows include
// exact duplicates (ties broken by id), NaN rows and zero rows, queried
// by users that include a NaN row and a zero row, with k in {0, 1, 20, n}
// and exclusions of nothing, scattered ids, a whole chunk, and
// everything.
struct OracleFixture {
  static constexpr uint32_t kUsers = 24;
  static constexpr uint32_t kSmallItems = 3 * serve::kItemChunk + 37;

  explicit OracleFixture(size_t dim, uint32_t catalog = kSmallItems)
      : num_items(catalog), model(kUsers, num_items, dim, rng) {
    std::vector<ParamGrad> params = model.Params();  // {users}, {items}
    Matrix& users = *params[0].value;
    Matrix& items = *params[1].value;
    const float nan = std::numeric_limits<float>::quiet_NaN();
    for (const uint32_t dup :
         {6u, 64u, 65u, 200u, num_items / 2, num_items - 1}) {
      std::copy_n(items.Row(5), dim, items.Row(dup));
    }
    for (const uint32_t i : {9u, 70u, 150u}) {
      std::fill_n(items.Row(i), dim, nan);
    }
    for (const uint32_t i : {11u, 130u}) {
      std::fill_n(items.Row(i), dim, 0.0f);
    }
    std::fill_n(users.Row(3), dim, nan);
    std::fill_n(users.Row(4), dim, 0.0f);
    runtime::ThreadPool pool(1);
    snap = std::make_unique<ModelSnapshot>(model, pool);
    excludes.resize(4);
    excludes[1] = {0, 5, 6, 63, 64, 65, 128, num_items - 1};
    for (uint32_t i = serve::kItemChunk; i < 2 * serve::kItemChunk; ++i) {
      excludes[2].push_back(i);
    }
    for (uint32_t i = 0; i < num_items; ++i) excludes[3].push_back(i);
    const uint32_t ks[] = {20, 1, num_items, 0, 20, 1};
    for (uint32_t u = 0; u < kUsers; ++u) {
      queries.push_back({snap->UserVec(u), ks[u % 6], excludes[u / 6 % 4]});
    }
  }

  const uint32_t num_items;
  Rng rng{77};
  MfModel model;
  std::unique_ptr<ModelSnapshot> snap;
  std::vector<std::vector<uint32_t>> excludes;
  std::vector<serve::ScoreQuery> queries;
};

TEST(BruteForceOracle, BlockTopKMatchesASortOverDotAtEveryBlockSize) {
  for (const size_t d : {13u, 64u}) {
    const OracleFixture fx(d);
    std::vector<std::vector<ScoredItem>> want;
    for (const serve::ScoreQuery& q : fx.queries) {
      want.push_back(BruteForceTopK(*fx.snap, q));
    }
    serve::ShardScratch ws;
    for (size_t m = 1; m <= 17; ++m) {
      for (size_t q0 = 0; q0 < fx.queries.size(); q0 += m) {
        const size_t mm = std::min(m, fx.queries.size() - q0);
        std::vector<std::vector<ScoredItem>> got(mm);
        serve::BlockTopK(*fx.snap, std::span(fx.queries).subspan(q0, mm), {},
                         ws, got);
        for (size_t j = 0; j < mm; ++j) {
          ExpectSameRanking(got[j], want[q0 + j],
                            "d " + std::to_string(d) + " m " +
                                std::to_string(m) + " query " +
                                std::to_string(q0 + j));
        }
      }
    }
    // The skip test did skip: fewer re-scores than scored pairs.
    EXPECT_GT(ws.stats.exact_rescored, 0u);
    EXPECT_LT(ws.stats.exact_rescored,
              17u * fx.queries.size() * fx.num_items);
  }
}

// ShardTopK over item ranges no split of BatchTopK makes: a start that
// is not chunk-aligned, fewer items than k, the first and the last item
// alone, and an empty range, each against the oracle restricted to it;
// then consecutive odd ranges merged into one running top-k per query,
// against the full oracle.
TEST(BruteForceOracle, ShardTopKMatchesASortOverDotOnAnyItemRange) {
  constexpr uint32_t n = OracleFixture::kSmallItems;
  const std::pair<uint32_t, uint32_t> ranges[] = {
      {7, 200}, {65, 130}, {100, 105}, {0, 1}, {n - 1, n}, {150, 150}};
  const uint32_t cuts[] = {0, 1, 7, 64, 200, 201, n - 1, n};
  for (const size_t d : {13u, 64u}) {
    const OracleFixture fx(d);
    for (const size_t m : {1u, 5u, 24u}) {
      serve::ShardScratch ws;
      for (size_t q0 = 0; q0 < fx.queries.size(); q0 += m) {
        const size_t mm = std::min(m, fx.queries.size() - q0);
        const auto block = std::span(fx.queries).subspan(q0, mm);
        const std::string at =
            "d " + std::to_string(d) + " m " + std::to_string(m);
        for (const auto& [lo, hi] : ranges) {
          std::vector<std::vector<ScoredItem>> tops(mm);
          serve::ShardTopK(*fx.snap, block, lo, hi, ws, tops);
          for (size_t j = 0; j < mm; ++j) {
            ExpectSameRanking(
                tops[j], BruteForceTopK(*fx.snap, block[j], lo, hi),
                at + " [" + std::to_string(lo) + ", " + std::to_string(hi) +
                    ") query " + std::to_string(q0 + j));
          }
        }
        std::vector<std::vector<ScoredItem>> tops(mm);
        for (size_t c = 0; c + 1 < std::size(cuts); ++c) {
          serve::ShardTopK(*fx.snap, block, cuts[c], cuts[c + 1], ws, tops);
        }
        for (size_t j = 0; j < mm; ++j) {
          ExpectSameRanking(tops[j], BruteForceTopK(*fx.snap, block[j]),
                            at + " cuts, query " + std::to_string(q0 + j));
        }
      }
    }
  }
}

// The IVF oracle, independent of the scan's selection code: the centroid
// ids sorted by (vec::Dot(q, centroid), id) under ScoredBefore, the first
// nprobe kept; then every non-excluded item of those lists scored with
// vec::Dot, sorted under ScoredBefore, the first k kept.
std::vector<ScoredItem> BruteForceIvfTopK(const ModelSnapshot& snap,
                                          const serve::ScoreQuery& query,
                                          uint32_t nprobe) {
  const serve::IvfIndex& ivf = *snap.ivf();
  std::vector<ScoredItem> lists;
  for (uint32_t l = 0; l < ivf.nlist(); ++l) {
    lists.push_back(
        {l, vec::Dot(query.q_hat, ivf.Centroids() + l * ivf.dim(), ivf.dim())});
  }
  std::sort(lists.begin(), lists.end(), serve::ScoredBefore);
  lists.resize(std::min<size_t>(std::max(nprobe, 1u), lists.size()));
  std::vector<ScoredItem> all;
  for (const ScoredItem& list : lists) {
    for (uint32_t p = ivf.ListOffset(list.item);
         p < ivf.ListOffset(list.item + 1); ++p) {
      const uint32_t i = ivf.ItemIdAt(p);
      if (std::binary_search(query.exclude.begin(), query.exclude.end(), i)) {
        continue;
      }
      all.push_back({i, vec::Dot(query.q_hat, snap.ItemVec(i), snap.dim())});
    }
  }
  std::sort(all.begin(), all.end(), serve::ScoredBefore);
  all.resize(std::min<size_t>(query.k, all.size()));
  return all;
}

// The IVF tier against its oracle on the fixture's rows, cutoffs and
// exclusion sets, at nlist 1, 7 and 16 and nprobe 1, 3, nlist and
// nlist + 5: BlockTopK one query at a time, and BatchTopK on pools of 1
// and 3 workers. The larger catalog's lists span more than one item
// chunk, so one heap runs across chunks and lists. At nlist 16 its
// index seeds centroid 0 from a NaN row, and the build's first-max
// assignment never moves off a NaN best, so every item lands in list 0;
// at each nlist > 1 the smaller catalog has several non-empty lists.
TEST(BruteForceOracle, IvfTopKMatchesASortOverTheProbedLists) {
  for (const size_t d : {13u, 64u}) {
    // Per nlist, the most non-empty lists any catalog's index had.
    std::vector<uint32_t> most_lists(17, 0);
    for (const uint32_t catalog :
         {OracleFixture::kSmallItems, 24 * serve::kItemChunk + 5}) {
      const OracleFixture fx(d, catalog);
      for (const uint32_t nlist : {1u, 7u, 16u}) {
        serve::SnapshotOptions so;
        so.ivf.build = true;
        so.ivf.nlist = nlist;
        runtime::ThreadPool pool1(1);
        const ModelSnapshot snap(fx.model, pool1, so);
        const serve::IvfIndex& ivf = *snap.ivf();
        ASSERT_EQ(ivf.nlist(), nlist);
        uint32_t non_empty = 0;
        uint32_t longest = 0;
        for (uint32_t l = 0; l < nlist; ++l) {
          const uint32_t size = ivf.ListOffset(l + 1) - ivf.ListOffset(l);
          non_empty += size > 0;
          longest = std::max(longest, size);
        }
        most_lists[nlist] = std::max(most_lists[nlist], non_empty);
        if (catalog > OracleFixture::kSmallItems) {
          EXPECT_GT(longest, serve::kItemChunk) << "nlist " << nlist;
        }
        for (const uint32_t nprobe : {1u, 3u, nlist, nlist + 5}) {
          const std::string at =
              "d " + std::to_string(d) + " items " + std::to_string(catalog) +
              " nlist " + std::to_string(nlist) + " nprobe " +
              std::to_string(nprobe);
          const serve::ScorerOptions ann{.exact = false, .nprobe = nprobe};
          std::vector<std::vector<ScoredItem>> want;
          for (const serve::ScoreQuery& q : fx.queries) {
            want.push_back(BruteForceIvfTopK(snap, q, nprobe));
          }
          serve::ShardScratch ws;
          for (size_t j = 0; j < fx.queries.size(); ++j) {
            std::vector<ScoredItem> got;
            serve::BlockTopK(snap, {&fx.queries[j], 1}, ann, ws, {&got, 1});
            ExpectSameRanking(got, want[j],
                              at + " BlockTopK query " + std::to_string(j));
          }
          for (const size_t threads : {1u, 3u}) {
            runtime::ThreadPool pool(threads);
            const CatalogScorer scorer(snap, pool, ann);
            const auto got = scorer.BatchTopK(fx.queries);
            for (size_t j = 0; j < fx.queries.size(); ++j) {
              ExpectSameRanking(got[j], want[j],
                                at + " threads " + std::to_string(threads) +
                                    " query " + std::to_string(j));
            }
          }
        }
      }
    }
    for (const uint32_t nlist : {7u, 16u}) {
      EXPECT_GE(most_lists[nlist], 3u) << "d " << d << " nlist " << nlist;
    }
  }
}

// BatchTopK at pools of 1, 2, 3 and 8 workers over a catalog of eight
// smallest item ranges and a short chunk, serving the fixture's queries
// alone (1, 2, 3 and 8 ranges, the last one short: the counter shows the
// split), in batches of 5 and as one batch of 24.
TEST(BruteForceOracle, BatchTopKMatchesASortOverDotAtEverySplit) {
  for (const size_t d : {13u, 64u}) {
    const OracleFixture fx(d, 8 * MinRangeItems(d) + 37);
    std::vector<std::vector<ScoredItem>> want;
    for (const serve::ScoreQuery& q : fx.queries) {
      want.push_back(BruteForceTopK(*fx.snap, q));
    }
    for (const size_t threads : {1u, 2u, 3u, 8u}) {
      runtime::ThreadPool pool(threads);
      const CatalogScorer scorer(*fx.snap, pool, {});
      for (const size_t batch : {1u, 5u, 24u}) {
        for (size_t q0 = 0; q0 < fx.queries.size(); q0 += batch) {
          const size_t m = std::min(batch, fx.queries.size() - q0);
          const auto queries = std::span(fx.queries).subspan(q0, m);
          scorer.ResetStats();
          const auto got = scorer.BatchTopK(queries);
          const std::string at = "d " + std::to_string(d) + " threads " +
                                 std::to_string(threads) + " batch " +
                                 std::to_string(batch);
          for (size_t j = 0; j < m; ++j) {
            ExpectSameRanking(got[j], want[q0 + j],
                              at + " query " + std::to_string(q0 + j));
          }
          if (batch == 1) {
            EXPECT_EQ(scorer.stats().exact_shards,
                      queries[0].k > 0 ? threads : 0u)
                << at << " query " << q0;
          }
        }
      }
    }
  }
}

// A batch of at least workers x kQueryBlock queries scans the whole
// catalog as one item range, and so does one query on a one-worker pool:
// each query's heap then meets the items in the order the evaluator's
// BlockTopK offers them, so BatchTopK re-scores exactly the items
// BlockTopK does (a query's fp32 tile values and heap do not depend on
// its block).
TEST(TopKScorer, OneRangeBatchRescoresWhatBlockTopKRescores) {
  constexpr uint32_t kUsers = 40;
  constexpr uint32_t kItems = 5000;
  Rng rng(61);
  MfModel model(kUsers, kItems, 16, rng);
  runtime::ThreadPool pool1(1);
  runtime::ThreadPool pool2(2);
  const ModelSnapshot snap(model, pool1);
  const std::vector<uint32_t> exclude = {3, 2047, 2048, 4999};
  std::vector<serve::ScoreQuery> queries;
  for (uint32_t u = 0; u < kUsers; ++u) {
    queries.push_back({snap.UserVec(u), 20, exclude});
  }
  ASSERT_GE(queries.size(), pool2.num_workers() * serve::kQueryBlock);
  const auto block_rescored = [&](std::span<const serve::ScoreQuery> qs) {
    serve::ShardScratch ws;
    std::vector<std::vector<ScoredItem>> outs(serve::kQueryBlock);
    for (size_t q0 = 0; q0 < qs.size(); q0 += serve::kQueryBlock) {
      const size_t m = std::min(serve::kQueryBlock, qs.size() - q0);
      serve::BlockTopK(snap, qs.subspan(q0, m), {}, ws,
                       std::span(outs).first(m));
    }
    return ws.stats.exact_rescored;
  };
  const CatalogScorer batch_scorer(snap, pool2, {});
  batch_scorer.BatchTopK(queries);
  EXPECT_EQ(batch_scorer.stats().exact_rescored, block_rescored(queries));
  const CatalogScorer one_scorer(snap, pool1, {});
  one_scorer.BatchTopK({&queries[0], 1});
  EXPECT_EQ(one_scorer.stats().exact_rescored,
            block_rescored({&queries[0], 1}));
}

// Rows whose exact scores straddle the k-th by less than the fp32
// error bound. Item 0 is a row A nearly orthogonal to the query (a score
// near 0.01, where one float ulp is about 1e-9 but the single-precision
// tile's error is about 1e-8), item 1 a copy of A nudged by 5e-9 towards
// the query, and every other item points away from the query. Among the
// seeds tried, the test uses the first whose snapshot has Dot(B) ranking
// before Dot(A) while B's DotTileF32 score lies below A's Dot score by
// more than one ulp: a scan that skipped on fp32 < f, without the error
// bound, would drop B and answer A. With the bound, B is re-scored and
// ranks first.
TEST(NearTies, ItemsWithinTheErrorBoundOfTheKthAreRescored) {
  constexpr size_t d = 64;
  constexpr uint32_t kItems = 3 * serve::kItemChunk;
  bool found = false;
  for (uint64_t seed = 0; seed < 400 && !found; ++seed) {
    Rng rng(1000 + seed);
    MfModel model(1, kItems, d, rng);
    std::vector<ParamGrad> params = model.Params();
    float* q = params[0].value->Row(0);
    std::vector<float> q_hat(d);
    vec::Normalize(q, q_hat.data(), d);
    float* a = params[1].value->Row(0);
    // a -= (a . q_hat - 0.01) q_hat, then normalize: a score near 0.01.
    vec::Normalize(a, a, d);
    vec::Axpy(0.01f - vec::Dot(a, q_hat.data(), d), q_hat.data(), a, d);
    float* b = params[1].value->Row(1);
    std::copy_n(a, d, b);
    vec::Axpy(5e-9f, q_hat.data(), b, d);
    for (uint32_t i = 2; i < kItems; ++i) {
      vec::Axpy(-4.0f, q_hat.data(), params[1].value->Row(i), d);
    }
    runtime::ThreadPool pool(1);
    const ModelSnapshot snap(model, pool);
    const float* qs = snap.UserVec(0);
    const float f = vec::Dot(qs, snap.ItemVec(0), d);
    const float s = vec::Dot(qs, snap.ItemVec(1), d);
    float fp32 = 0.0f;
    vec::DotTileF32(qs, 1, snap.ItemVec(1), 1, d, &fp32, 1);
    const float below_f =
        std::nextafter(f, -std::numeric_limits<float>::infinity());
    if (!(s > f && fp32 < below_f)) continue;
    found = true;

    const serve::ScoreQuery query{qs, 1, {}};
    const std::vector<ScoredItem> want = BruteForceTopK(snap, query);
    ASSERT_EQ(want.size(), 1u);
    ASSERT_EQ(want[0].item, 1u);
    // Single queries and blocks, through BlockTopK and BatchTopK.
    for (const size_t m : {1u, 4u}) {
      const std::vector<serve::ScoreQuery> block(m, query);
      serve::ShardScratch ws;
      std::vector<std::vector<ScoredItem>> got(m);
      serve::BlockTopK(snap, block, {}, ws, got);
      for (size_t j = 0; j < m; ++j) {
        ExpectSameRanking(got[j], want, "block " + std::to_string(m));
      }
      // Item 0 filled the heap, item 1 was re-scored past the skip test,
      // and the items pointing away were skipped.
      EXPECT_GE(ws.stats.exact_rescored, 2u * m);
      EXPECT_LT(ws.stats.exact_rescored, m * kItems / 2);
    }
    // The near tie split across a range boundary: item 0 alone fills
    // the heap, then item 1 meets the skip test against it.
    serve::ShardScratch ws;
    std::vector<ScoredItem> top;
    serve::ShardTopK(snap, {&query, 1}, 0, 1, ws, {&top, 1});
    serve::ShardTopK(snap, {&query, 1}, 1, kItems, ws, {&top, 1});
    ExpectSameRanking(top, want, "ranges [0, 1) and [1, n)");
    const CatalogScorer scorer(snap, pool, {});
    ExpectSameRanking(scorer.BatchTopK({&query, 1})[0], want, "BatchTopK");
  }
  EXPECT_TRUE(found) << "no seed produced a near tie";
}

// The near tie of the test above inside one IVF list: row A at a score
// near 0.01, a copy B nudged 5e-9 towards the query, every other row
// pointing away. Among the seeds tried, the test uses the first whose
// snapshot has the same straddle as above and whose index puts A and B
// in one list that ranks first among the centroids, so A (the lower id,
// first in the list) fills the heap and B meets the skip test against
// A's exact score. k = 1 through the IVF tier at nprobe = nlist and at
// the smallest nprobe that probes their list (1); a scan that skipped
// list rows on fp32 < f, without the error bound, would answer A.
TEST(NearTies, ListRowsWithinTheErrorBoundOfTheKthAreRescored) {
  constexpr size_t d = 64;
  constexpr uint32_t kItems = 3 * serve::kItemChunk;
  bool found = false;
  for (uint64_t seed = 0; seed < 400 && !found; ++seed) {
    Rng rng(1000 + seed);
    MfModel model(1, kItems, d, rng);
    std::vector<ParamGrad> params = model.Params();
    float* q = params[0].value->Row(0);
    std::vector<float> q_hat(d);
    vec::Normalize(q, q_hat.data(), d);
    float* a = params[1].value->Row(0);
    vec::Normalize(a, a, d);
    vec::Axpy(0.01f - vec::Dot(a, q_hat.data(), d), q_hat.data(), a, d);
    float* b = params[1].value->Row(1);
    std::copy_n(a, d, b);
    vec::Axpy(5e-9f, q_hat.data(), b, d);
    for (uint32_t i = 2; i < kItems; ++i) {
      vec::Axpy(-4.0f, q_hat.data(), params[1].value->Row(i), d);
    }
    runtime::ThreadPool pool(1);
    serve::SnapshotOptions so;
    so.ivf.build = true;
    const ModelSnapshot snap(model, pool, so);
    const float* qs = snap.UserVec(0);
    const float f = vec::Dot(qs, snap.ItemVec(0), d);
    const float s = vec::Dot(qs, snap.ItemVec(1), d);
    float fp32 = 0.0f;
    vec::DotTileF32(qs, 1, snap.ItemVec(1), 1, d, &fp32, 1);
    const float below_f =
        std::nextafter(f, -std::numeric_limits<float>::infinity());
    if (!(s > f && fp32 < below_f)) continue;
    const serve::IvfIndex& ivf = *snap.ivf();
    const uint32_t nlist = ivf.nlist();
    uint32_t first_list = 0;  // the top centroid under ScoredBefore
    for (uint32_t l = 1; l < nlist; ++l) {
      const ScoredItem cand{l, vec::Dot(qs, ivf.Centroids() + l * d, d)};
      const ScoredItem best{first_list,
                            vec::Dot(qs, ivf.Centroids() + first_list * d, d)};
      if (serve::ScoredBefore(cand, best)) first_list = l;
    }
    const uint32_t lo = ivf.ListOffset(first_list);
    if (ivf.ListOffset(first_list + 1) - lo < 2 || ivf.ItemIdAt(lo) != 0 ||
        ivf.ItemIdAt(lo + 1) != 1) {
      continue;
    }
    found = true;

    const serve::ScoreQuery query{qs, 1, {}};
    for (const uint32_t nprobe : {1u, nlist}) {
      const std::string at = "nprobe " + std::to_string(nprobe);
      const std::vector<ScoredItem> want =
          BruteForceIvfTopK(snap, query, nprobe);
      ASSERT_EQ(want.size(), 1u) << at;
      ASSERT_EQ(want[0].item, 1u) << at;
      const serve::ScorerOptions ann{.exact = false, .nprobe = nprobe};
      serve::ShardScratch ws;
      std::vector<ScoredItem> got;
      serve::BlockTopK(snap, {&query, 1}, ann, ws, {&got, 1});
      ExpectSameRanking(got, want, at + " BlockTopK");
      // A filled the heap and B was re-scored past the skip test.
      EXPECT_GE(ws.stats.ivf_rescored, 2u) << at;
      const CatalogScorer scorer(snap, pool, ann);
      ExpectSameRanking(scorer.BatchTopK({&query, 1})[0], want,
                        at + " BatchTopK");
    }
  }
  EXPECT_TRUE(found) << "no seed produced a near tie inside the first list";
}

// Aggregates per-user TopKForUser lists, in test-user order, through the
// same eval/metrics.h kernels the evaluator uses, and checks that the
// pass's blocked Evaluate() and ItemExposure() give the same bits.
void ExpectPassMatchesPerUserLoop(const Dataset& d, Evaluator::Pass& pass,
                                  uint32_t k, const std::string& what) {
  TopKMetrics want;
  std::vector<double> exposure(d.num_items(), 0.0);
  for (const uint32_t u : d.TestUsers()) {
    const std::vector<uint32_t> ranking = pass.TopKForUser(u);
    const auto test_items = d.TestItems(u);
    want.recall += RecallAtK(ranking, test_items);
    want.ndcg += NdcgAtK(ranking, test_items, k);
    want.precision += PrecisionAtK(ranking, test_items, k);
    want.hit_rate += HitAtK(ranking, test_items);
    ++want.num_users;
    for (const uint32_t item : ranking) exposure[item] += 1.0;
  }
  const double users = static_cast<double>(want.num_users);
  want.recall /= users;
  want.ndcg /= users;
  want.precision /= users;
  want.hit_rate /= users;
  const TopKMetrics got = pass.Evaluate();
  EXPECT_EQ(got.num_users, want.num_users) << what;
  EXPECT_EQ(got.recall, want.recall) << what;
  EXPECT_EQ(got.ndcg, want.ndcg) << what;
  EXPECT_EQ(got.precision, want.precision) << what;
  EXPECT_EQ(got.hit_rate, want.hit_rate) << what;
  EXPECT_EQ(pass.ItemExposure(), exposure) << what;
}

// Evaluate() ranks test users in blocks of serve::kQueryBlock; a final
// partial block must rank like the rest, at any thread count.
TEST(BlockedEvaluator, MetricsAndExposureMatchAPerUserLoop) {
  SyntheticConfig cfg;
  cfg.num_users = 75;
  cfg.num_items = 120;
  cfg.num_clusters = 5;
  cfg.avg_items_per_user = 10.0;
  cfg.seed = 12;
  const Dataset d = GenerateSynthetic(cfg).dataset;
  ASSERT_GT(d.TestUsers().size(), serve::kQueryBlock);
  ASSERT_NE(d.TestUsers().size() % serve::kQueryBlock, 0u);
  Rng rng(38);
  MfModel model(d.num_users(), d.num_items(), 8, rng);
  const uint32_t k = 10;
  for (const size_t threads : {1u, 2u, 8u}) {
    const Evaluator eval(d, k, runtime::RuntimeConfig{threads});
    Evaluator::Pass pass = eval.BeginPass(model);
    ExpectPassMatchesPerUserLoop(d, pass, k,
                                 std::to_string(threads) + " threads");
  }
}

TEST(InferenceService, MatchesEvaluatorRankingsOnTheSameSnapshot) {
  const Dataset d = MediumDataset();
  Rng rng(4);
  MfModel model(d.num_users(), d.num_items(), 8, rng);
  model.Forward(rng);
  const uint32_t k = 15;
  InferenceService service(d, model, Config(2));
  const Evaluator eval(d, k, runtime::RuntimeConfig{2});
  Evaluator::Pass pass = eval.BeginPass(model);
  for (uint32_t u = 0; u < d.num_users(); ++u) {
    const std::vector<uint32_t> want = pass.TopKForUser(u);
    const TopKResponse got = service.Handle(Req(u, k));
    ASSERT_EQ(got.items.size(), want.size()) << "user " << u;
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got.items[i], want[i]) << "user " << u << " rank " << i;
    }
  }
}

TEST(InferenceService, BatchedMatchesSingleRequests) {
  const Dataset d = MediumDataset();
  Rng rng(5);
  MfModel model(d.num_users(), d.num_items(), 8, rng);
  model.Forward(rng);
  // Mixed batch: repeats, different cutoffs, a custom-filtered request.
  const std::vector<uint32_t> extra = {3, 40, 41};
  std::vector<TopKRequest> reqs;
  reqs.push_back(Req(5, 10));
  reqs.push_back(Req(9, 4));
  reqs.push_back(Req(5, 4));              // same user, smaller cutoff
  reqs.push_back(Req(12, 8, false));      // unfiltered
  reqs.push_back(Req(17, 6, true, extra));  // extra seen ids
  reqs.push_back(Req(5, 10));             // exact repeat

  InferenceService batched(d, model, Config(2));
  InferenceService single(d, model, Config(2));
  const std::vector<TopKResponse> got = batched.HandleBatch(reqs);
  ASSERT_EQ(got.size(), reqs.size());
  for (size_t r = 0; r < reqs.size(); ++r) {
    ExpectSameResponse(got[r], single.Handle(reqs[r]),
                       "request " + std::to_string(r));
  }
}

TEST(InferenceService, BitIdenticalAcrossThreadCounts) {
  const Dataset d = MediumDataset();
  Rng rng(6);
  MfModel model(d.num_users(), d.num_items(), 8, rng);
  model.Forward(rng);
  std::vector<TopKRequest> reqs;
  for (uint32_t u = 0; u < d.num_users(); ++u) {
    reqs.push_back(Req(u, 1 + u % 19));
  }
  InferenceService baseline(d, model, Config(1));
  const std::vector<TopKResponse> want = baseline.HandleBatch(reqs);
  for (size_t threads : {2u, 8u}) {
    InferenceService service(d, model, Config(threads));
    const std::vector<TopKResponse> got = service.HandleBatch(reqs);
    ASSERT_EQ(got.size(), want.size());
    for (size_t r = 0; r < want.size(); ++r) {
      ExpectSameResponse(got[r], want[r],
                         std::to_string(threads) + " threads, request " +
                             std::to_string(r));
    }
  }
}

TEST(InferenceService, FiltersSeenItemsPerRequest) {
  const Dataset d = MediumDataset();
  Rng rng(7);
  MfModel model(d.num_users(), d.num_items(), 8, rng);
  model.Forward(rng);
  InferenceService service(d, model, Config(2));
  const uint32_t full_k = d.num_items();
  for (uint32_t u = 0; u < d.num_users(); ++u) {
    // Default: no train positive may appear, and everything else does.
    const TopKResponse filtered = service.Handle(Req(u, full_k));
    EXPECT_EQ(filtered.items.size(),
              d.num_items() - d.TrainItems(u).size());
    for (uint32_t item : filtered.items) {
      EXPECT_FALSE(d.IsTrainPositive(u, item)) << "user " << u;
    }
    // Unfiltered: the whole catalog comes back.
    const TopKResponse all = service.Handle(Req(u, full_k, false));
    EXPECT_EQ(all.items.size(), d.num_items());
  }
  // extra_seen masks on top of the train positives.
  const TopKResponse base = service.Handle(Req(0, 5));
  const std::vector<uint32_t> extra = {base.items[0]};
  const TopKResponse masked = service.Handle(Req(0, 5, true, extra));
  for (uint32_t item : masked.items) {
    EXPECT_NE(item, extra[0]);
  }
  // With the top item masked, the rest of the list shifts up by one.
  ASSERT_GE(masked.items.size(), 4u);
  for (size_t i = 0; i + 1 < base.items.size() && i < masked.items.size();
       ++i) {
    EXPECT_EQ(masked.items[i], base.items[i + 1]);
  }
}

TEST(InferenceService, SmallerCutoffsArePrefixesAndReuseTheCache) {
  const Dataset d = MediumDataset();
  Rng rng(8);
  MfModel model(d.num_users(), d.num_items(), 8, rng);
  model.Forward(rng);
  InferenceService warm(d, model, Config(2, 20));
  const TopKResponse deep = warm.Handle(Req(4, 20));
  ASSERT_EQ(deep.items.size(), 20u);
  for (uint32_t k : {1u, 3u, 12u}) {
    const TopKResponse prefix = warm.Handle(Req(4, k));
    ASSERT_EQ(prefix.items.size(), k);
    for (size_t i = 0; i < k; ++i) {
      EXPECT_EQ(prefix.items[i], deep.items[i]) << "k " << k;
      EXPECT_EQ(prefix.scores[i], deep.scores[i]) << "k " << k;
    }
  }
  // A cold service answering the small cutoff directly must agree with
  // the warm cache-served prefix, and so must a cache-disabled one.
  InferenceService cold(d, model, Config(2, 20));
  ExpectSameResponse(cold.Handle(Req(4, 12)), warm.Handle(Req(4, 12)), "cold");
  InferenceService uncached(d, model, Config(2, 20, false));
  ExpectSameResponse(uncached.Handle(Req(4, 12)), warm.Handle(Req(4, 12)),
                     "uncached");
  // Cutoffs beyond max_k bypass the cache but stay consistent prefixes.
  const TopKResponse deeper = warm.Handle(Req(4, 30));
  ASSERT_EQ(deeper.items.size(), 30u);
  for (size_t i = 0; i < deep.items.size(); ++i) {
    EXPECT_EQ(deeper.items[i], deep.items[i]);
  }
}

TEST(InferenceService, CutoffLargerThanCatalogIsClamped) {
  const Dataset d = testing::TinyDataset();
  Rng rng(9);
  MfModel model(d.num_users(), d.num_items(), 4, rng);
  model.Forward(rng);
  InferenceService service(d, model, Config(2, 100));
  const TopKResponse resp = service.Handle(Req(0, 1000));
  EXPECT_EQ(resp.items.size(), d.num_items() - d.TrainItems(0).size());
  std::vector<uint32_t> sorted = resp.items;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_TRUE(std::adjacent_find(sorted.begin(), sorted.end()) ==
              sorted.end());
}

TEST(InferenceService, ServesWhileTheModelKeepsChanging) {
  const Dataset d = testing::TinyDataset();
  Rng rng(10);
  MfModel model(d.num_users(), d.num_items(), 4, rng);
  model.Forward(rng);
  InferenceService service(d, model, Config(2));
  const TopKResponse before = service.Handle(Req(1, 3));
  for (ParamGrad& pg : model.Params()) pg.value->SetZero();
  model.Forward(rng);
  ExpectSameResponse(service.Handle(Req(1, 3)), before, "after model change");
}

TEST(InferenceService, EmptyBatchIsANoOp) {
  const Dataset d = testing::TinyDataset();
  Rng rng(11);
  MfModel model(d.num_users(), d.num_items(), 4, rng);
  model.Forward(rng);
  InferenceService service(d, model, Config(1));
  EXPECT_TRUE(service.HandleBatch({}).empty());
}

// A NaN score is neither above nor below a number. ScoredBefore ranks it
// after every number, so every split of the catalog (item ranges,
// blocks, batches, threads) ranks NaN the same way.
TEST(NanScores, RankLastAndTheSameOnEveryPathAndTier) {
  const Dataset d = MediumDataset();
  const uint32_t n = d.num_items();
  Rng rng(39);
  MfModel model(d.num_users(), d.num_items(), 8, rng);
  const float nan = std::numeric_limits<float>::quiet_NaN();
  std::vector<ParamGrad> params = model.Params();  // {users}, {items}
  for (const uint32_t item : {3u, 17u, 40u, 41u, 88u}) {
    std::fill_n(params[1].value->Row(item), 8, nan);
  }
  const uint32_t nan_user = 9;
  std::fill_n(params[0].value->Row(nan_user), 8, nan);
  runtime::ThreadPool pool1(1);
  const ModelSnapshot snap(model, pool1);

  // Cutoff 10 prunes against a running top-k whose k-th may be NaN; the
  // full cutoff ranks every eligible item, NaN ones last.
  std::vector<serve::ScoreQuery> queries;
  for (uint32_t u = 0; u < d.num_users(); ++u) {
    const uint32_t k = u % 2 == 0 ? 10 : n;
    queries.push_back({snap.UserVec(u), k, d.TrainItems(u)});
  }
  const CatalogScorer reference(snap, pool1, {});
  std::vector<std::vector<ScoredItem>> want;
  for (const serve::ScoreQuery& q : queries) {
    want.push_back(reference.BatchTopK({&q, 1})[0]);
    bool seen_nan = false;
    for (const ScoredItem& e : want.back()) {
      if (std::isnan(e.score)) seen_nan = true;
      EXPECT_TRUE(seen_nan == std::isnan(e.score))
          << "a number ranks after NaN for user " << want.size() - 1;
    }
  }
  EXPECT_TRUE(std::isnan(want[nan_user][0].score));
  EXPECT_TRUE(std::isnan(want[1].back().score));  // full list ends in NaN

  // The whole batch and each query alone, at several pool sizes; the
  // oracle fixture's NaN rows cover NaN across item ranges.
  for (const size_t threads : {1u, 2u, 3u, 8u}) {
    runtime::ThreadPool pool(threads);
    const std::string what = "threads " + std::to_string(threads);
    const CatalogScorer scorer(snap, pool, {});
    const auto batch = scorer.BatchTopK(queries);
    for (uint32_t u = 0; u < d.num_users(); ++u) {
      const std::string who = what + " user " + std::to_string(u);
      ExpectSameRanking(batch[u], want[u], "batch " + who);
      ExpectSameRanking(scorer.BatchTopK({&queries[u], 1})[0], want[u],
                        "single " + who);
    }
    for (const uint32_t k : {10u, n}) {
      const Evaluator eval(d, k, runtime::RuntimeConfig{threads});
      Evaluator::Pass pass = eval.BeginPass(model);
      const std::string at_k = "evaluator " + what + " k " + std::to_string(k);
      for (uint32_t u = 0; u < d.num_users(); ++u) {
        const std::vector<uint32_t> ids = pass.TopKForUser(u);
        const serve::ScoreQuery q{snap.UserVec(u), k, d.TrainItems(u)};
        const std::vector<ScoredItem> full = reference.BatchTopK({&q, 1})[0];
        ASSERT_EQ(ids.size(), full.size()) << at_k << " user " << u;
        for (size_t i = 0; i < ids.size(); ++i) {
          EXPECT_EQ(ids[i], full[i].item) << at_k << " user " << u;
        }
      }
      ExpectPassMatchesPerUserLoop(d, pass, k, at_k);
    }
  }
}

}  // namespace
}  // namespace bslrec
