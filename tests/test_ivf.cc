// Tests for IVF approximate retrieval: seeded k-means reproducibility,
// index layout invariants, ANN response determinism across thread
// counts and batch packings, the nprobe >= nlist exactness
// degeneration, empty-list edge cases, scorer stats, the recall floor
// on clustered tables, the approximate evaluator pass, and the
// concurrent front door on an ANN config.
#include "serve/ivf_index.h"

#include <algorithm>
#include <cmath>
#include <future>
#include <string>
#include <vector>

#include "data/synthetic.h"
#include "eval/evaluator.h"
#include "gtest/gtest.h"
#include "math/vec.h"
#include "models/mf.h"
#include "serve/inference_service.h"
#include "serve/model_snapshot.h"
#include "serve/serving_frontend.h"
#include "serve/topk_scorer.h"

namespace bslrec {
namespace {

using serve::InferenceService;
using serve::IvfIndex;
using serve::ModelSnapshot;
using serve::ServeConfig;
using serve::TopKRequest;
using serve::TopKResponse;

Dataset MediumDataset(uint64_t seed = 11) {
  SyntheticConfig cfg;
  cfg.num_users = 60;
  cfg.num_items = 90;
  cfg.num_clusters = 5;
  cfg.avg_items_per_user = 10.0;
  cfg.seed = seed;
  return GenerateSynthetic(cfg).dataset;
}

serve::SnapshotOptions SnapOpts(uint32_t nlist) {
  serve::SnapshotOptions so;
  so.ivf.build = true;
  so.ivf.nlist = nlist;
  return so;
}

// ANN serving config: exact = false routes the scorer through the
// snapshot's IVF index.
ServeConfig AnnConfig(size_t threads, uint32_t nlist, uint32_t nprobe) {
  ServeConfig cfg;
  cfg.max_k = 20;
  cfg.runtime.num_threads = threads;
  cfg.exact = false;
  cfg.nprobe = nprobe;
  cfg.ivf.nlist = nlist;
  return cfg;
}

TopKRequest Req(uint32_t user, uint32_t k) {
  TopKRequest req;
  req.user = user;
  req.k = k;
  return req;
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

std::vector<TopKRequest> AllUserRequests(const Dataset& d) {
  std::vector<TopKRequest> reqs;
  for (uint32_t u = 0; u < d.num_users(); ++u) {
    reqs.push_back(Req(u, 1 + u % 19));
  }
  return reqs;
}

TEST(IvfIndex, KMeansIsSeedReproducibleForAnyPoolSize) {
  const Dataset d = MediumDataset();
  Rng rng(40);
  MfModel model(d.num_users(), d.num_items(), 8, rng);
  model.Forward(rng);
  runtime::ThreadPool pool1(1);
  const ModelSnapshot base(model, pool1, SnapOpts(8));
  ASSERT_NE(base.ivf(), nullptr);
  for (const size_t threads : {2u, 8u}) {
    runtime::ThreadPool pool(threads);
    const ModelSnapshot snap(model, pool, SnapOpts(8));
    const IvfIndex& a = *base.ivf();
    const IvfIndex& b = *snap.ivf();
    ASSERT_EQ(a.nlist(), b.nlist()) << threads << " threads";
    for (uint32_t l = 0; l <= a.nlist(); ++l) {
      EXPECT_EQ(a.ListOffset(l), b.ListOffset(l))
          << threads << " threads, list " << l;
    }
    for (uint32_t p = 0; p < a.num_items(); ++p) {
      EXPECT_EQ(a.ItemIdAt(p), b.ItemIdAt(p))
          << threads << " threads, pos " << p;
    }
    for (size_t c = 0; c < static_cast<size_t>(a.nlist()) * a.dim(); ++c) {
      EXPECT_EQ(a.Centroids()[c], b.Centroids()[c])
          << threads << " threads, coord " << c;
    }
    EXPECT_EQ(a.centroid_norm_bound(), b.centroid_norm_bound())
        << threads << " threads";
  }
}

TEST(IvfIndex, LayoutPartitionsTheCatalogWithAscendingIds) {
  const Dataset d = MediumDataset();
  Rng rng(41);
  MfModel model(d.num_users(), d.num_items(), 8, rng);
  model.Forward(rng);
  runtime::ThreadPool pool(4);
  const ModelSnapshot snap(model, pool, SnapOpts(8));
  const IvfIndex& ivf = *snap.ivf();
  ASSERT_EQ(ivf.num_items(), snap.num_items());
  EXPECT_EQ(ivf.ListOffset(0), 0u);
  EXPECT_EQ(ivf.ListOffset(ivf.nlist()), snap.num_items());
  std::vector<bool> seen(snap.num_items(), false);
  for (uint32_t l = 0; l < ivf.nlist(); ++l) {
    for (uint32_t p = ivf.ListOffset(l); p < ivf.ListOffset(l + 1); ++p) {
      const uint32_t id = ivf.ItemIdAt(p);
      ASSERT_LT(id, snap.num_items());
      EXPECT_FALSE(seen[id]) << "item " << id << " posted twice";
      seen[id] = true;
      if (p > ivf.ListOffset(l)) {
        EXPECT_LT(ivf.ItemIdAt(p - 1), id) << "list " << l;
      }
    }
  }
  for (uint32_t i = 0; i < snap.num_items(); ++i) {
    EXPECT_TRUE(seen[i]) << "item " << i << " missing from every list";
  }
  // Grouped rows are bitwise copies of the snapshot rows in posting
  // order (the bit-identity of ANN scores, and the list scan's use of
  // item_norm_bound(), rest on this).
  for (uint32_t p = 0; p < ivf.num_items(); ++p) {
    const uint32_t id = ivf.ItemIdAt(p);
    for (size_t c = 0; c < snap.dim(); ++c) {
      EXPECT_EQ(ivf.Row(p)[c], snap.ItemVec(id)[c]) << "pos " << p;
    }
  }
}

TEST(AnnService, BitIdenticalAcrossThreadsAndBatchSizes) {
  const Dataset d = MediumDataset();
  Rng rng(42);
  MfModel model(d.num_users(), d.num_items(), 8, rng);
  model.Forward(rng);
  const std::vector<TopKRequest> reqs = AllUserRequests(d);
  InferenceService baseline(d, model, AnnConfig(1, 8, 3));
  const std::vector<TopKResponse> want = baseline.HandleBatch(reqs);
  for (const size_t threads : {2u, 3u, 8u}) {
    InferenceService service(d, model, AnnConfig(threads, 8, 3));
    // Whole batch, then the same requests in five-request slices: every
    // packing must answer identically.
    const std::vector<TopKResponse> got = service.HandleBatch(reqs);
    ASSERT_EQ(got.size(), want.size());
    for (size_t r = 0; r < want.size(); ++r) {
      ExpectSameResponse(got[r], want[r],
                         std::to_string(threads) + " threads, request " +
                             std::to_string(r));
    }
    InferenceService single(d, model, AnnConfig(threads, 8, 3));
    for (size_t r = 0; r < reqs.size(); r += 5) {
      const size_t n = std::min<size_t>(5, reqs.size() - r);
      const std::vector<TopKResponse> slice =
          single.HandleBatch({reqs.data() + r, n});
      for (size_t j = 0; j < n; ++j) {
        ExpectSameResponse(slice[j], want[r + j],
                           "slice at " + std::to_string(r + j));
      }
    }
  }
}

TEST(AnnService, FullProbeFp32MatchesExactServiceBitwise) {
  const Dataset d = MediumDataset();
  Rng rng(43);
  MfModel model(d.num_users(), d.num_items(), 8, rng);
  model.Forward(rng);
  const std::vector<TopKRequest> reqs = AllUserRequests(d);
  ServeConfig exact_cfg;
  exact_cfg.max_k = 20;
  exact_cfg.runtime.num_threads = 2;
  InferenceService exact(d, model, exact_cfg);
  // nprobe far above nlist: every list is visited, every item visible,
  // fp32 lists are scanned exactly — the ANN response degenerates to the
  // exact scan bitwise.
  InferenceService ann(d, model, AnnConfig(2, 8, 1000));
  const std::vector<TopKResponse> want = exact.HandleBatch(reqs);
  const std::vector<TopKResponse> got = ann.HandleBatch(reqs);
  ASSERT_EQ(got.size(), want.size());
  for (size_t r = 0; r < want.size(); ++r) {
    ExpectSameResponse(got[r], want[r], "request " + std::to_string(r));
  }
}

TEST(AnnService, DegenerateEmbeddingsAndEmptyListsAreSafe) {
  const Dataset d = MediumDataset();
  Rng rng(45);
  MfModel model(d.num_users(), d.num_items(), 8, rng);
  model.Forward(rng);
  // All-zero embeddings collapse every item onto centroid 0, leaving
  // nlist - 1 lists empty; scores are all zero so the top-k is the
  // lowest non-excluded ids, deterministically.
  for (ParamGrad& pg : model.Params()) pg.value->SetZero();
  model.Forward(rng);
  for (const uint32_t nprobe : {1u, 4u, 1000u}) {
    InferenceService service(
        d, model, AnnConfig(2, d.num_items() /* mostly empty */, nprobe));
    for (const uint32_t user : {0u, 17u}) {
      const TopKResponse resp = service.Handle(Req(user, 10));
      const auto seen = d.TrainItems(user);
      ASSERT_LE(resp.items.size(), 10u);
      for (size_t i = 0; i < resp.items.size(); ++i) {
        EXPECT_FALSE(std::binary_search(seen.begin(), seen.end(),
                                        resp.items[i]))
            << "excluded item served, nprobe " << nprobe;
        EXPECT_EQ(resp.scores[i], 0.0f);
        if (i > 0) {
          EXPECT_LT(resp.items[i - 1], resp.items[i])
              << "zero-score ties must order by ascending id";
        }
      }
    }
  }
}

TEST(AnnService, StatsCountProbesAndResetZeroes) {
  const Dataset d = MediumDataset();
  Rng rng(46);
  MfModel model(d.num_users(), d.num_items(), 8, rng);
  model.Forward(rng);
  const std::vector<TopKRequest> reqs = AllUserRequests(d);
  // The list scan re-scores with vec::Dot only the list rows it keeps,
  // and the ANN tier ticks no exact counter.
  InferenceService ann(d, model, AnnConfig(2, 8, 3));
  ann.HandleBatch(reqs);
  serve::CatalogScorer::Stats st = ann.scorer().stats();
  EXPECT_EQ(st.ivf_queries, reqs.size());
  EXPECT_EQ(st.ivf_lists, 3 * reqs.size());
  EXPECT_GT(st.ivf_rescored, 0u);
  EXPECT_LE(st.ivf_rescored, st.ivf_candidates);
  EXPECT_EQ(st.exact_shards, 0u);
  EXPECT_EQ(st.exact_rescored, 0u);
  ann.scorer().ResetStats();
  st = ann.scorer().stats();
  EXPECT_EQ(st.ivf_queries, 0u);
  EXPECT_EQ(st.ivf_lists, 0u);
  EXPECT_EQ(st.ivf_candidates, 0u);
  EXPECT_EQ(st.ivf_rescored, 0u);
}

// Rewrites both embedding tables the way bench_serve does: shared unit
// centers plus small per-row Gaussian noise (noise L2 ~= 0.15), the
// neighbourhood structure trained embeddings have and random-init
// tables lack. Call Forward() afterwards.
void ClusterEmbeddings(MfModel& model, size_t num_clusters, Rng& rng) {
  std::vector<ParamGrad> params = model.Params();
  const size_t dim = params[0].value->cols();
  const float sigma = 0.15f / std::sqrt(static_cast<float>(dim));
  std::vector<float> centers(num_clusters * dim);
  for (size_t c = 0; c < num_clusters; ++c) {
    float* row = centers.data() + c * dim;
    for (size_t j = 0; j < dim; ++j) {
      row[j] = static_cast<float>(rng.NextGaussian());
    }
    vec::Normalize(row, row, dim);
  }
  for (ParamGrad& pg : params) {
    Matrix& m = *pg.value;
    for (size_t r = 0; r < m.rows(); ++r) {
      const float* center = centers.data() + rng.NextIndex(num_clusters) * dim;
      float* row = m.Row(r);
      for (size_t j = 0; j < dim; ++j) {
        row[j] = center[j] + sigma * static_cast<float>(rng.NextGaussian());
      }
    }
  }
}

TEST(AnnService, RecallAtTwentyClearsTheFloorOnClusteredTables) {
  // bench_serve's recall floor, at one fixed point: a 1200-item catalog
  // in 32 lists, 4 probed per query (1/8 of the catalog scanned).
  SyntheticConfig cfg;
  cfg.num_users = 400;
  cfg.num_items = 1200;
  cfg.num_clusters = 10;
  cfg.avg_items_per_user = 18.0;
  cfg.seed = 77;
  const Dataset d = GenerateSynthetic(cfg).dataset;
  Rng rng(5);
  MfModel model(d.num_users(), d.num_items(), 16, rng);
  ClusterEmbeddings(model, cfg.num_clusters, rng);
  model.Forward(rng);

  Rng stream(211);
  std::vector<TopKRequest> reqs(256);
  for (TopKRequest& req : reqs) {
    req = Req(static_cast<uint32_t>(stream.NextIndex(d.num_users())), 20);
  }
  ServeConfig exact_cfg;
  exact_cfg.max_k = 20;
  exact_cfg.runtime.num_threads = 2;
  ServeConfig ann_cfg = AnnConfig(2, /*nlist=*/32, /*nprobe=*/4);
  InferenceService exact(d, model, exact_cfg);
  InferenceService ann(d, model, ann_cfg);
  const std::vector<TopKResponse> want = exact.HandleBatch(reqs);
  const std::vector<TopKResponse> got = ann.HandleBatch(reqs);

  // Mean fraction of each exact top-20 the ANN response reproduces.
  double recall_sum = 0.0;
  size_t counted = 0;
  for (size_t r = 0; r < reqs.size(); ++r) {
    std::vector<uint32_t> truth = want[r].items;
    if (truth.empty()) continue;
    std::sort(truth.begin(), truth.end());
    size_t hits = 0;
    for (const uint32_t item : got[r].items) {
      hits += std::binary_search(truth.begin(), truth.end(), item) ? 1 : 0;
    }
    recall_sum +=
        static_cast<double>(hits) / static_cast<double>(truth.size());
    ++counted;
  }
  ASSERT_EQ(counted, reqs.size());
  const double recall = recall_sum / static_cast<double>(counted);
  EXPECT_GE(recall, 0.95);
  // A genuine approximation: the probe misses some exact neighbours.
  EXPECT_LT(recall, 1.0);
}

TEST(AnnEvaluator, FullProbePassMatchesExactMetricsBitwise) {
  const Dataset d = MediumDataset();
  Rng rng(48);
  MfModel model(d.num_users(), d.num_items(), 8, rng);
  model.Forward(rng);
  const Evaluator exact(d, 10, runtime::RuntimeConfig{2});
  serve::ScorerOptions ann_scoring;
  ann_scoring.exact = false;
  ann_scoring.nprobe = 1000;  // >= nlist: every item visible
  const Evaluator ann(d, 10, runtime::RuntimeConfig{2}, ann_scoring);
  const TopKMetrics want = exact.Evaluate(model);
  const TopKMetrics got = ann.Evaluate(model);
  EXPECT_EQ(got.num_users, want.num_users);
  EXPECT_EQ(got.recall, want.recall);
  EXPECT_EQ(got.ndcg, want.ndcg);
  EXPECT_EQ(got.precision, want.precision);
  EXPECT_EQ(got.hit_rate, want.hit_rate);
  // A narrow probe is a genuine approximation: it may rank test items
  // higher OR lower than the exact pass (missed items can be strong
  // distractors), so only well-formedness is asserted.
  serve::ScorerOptions narrow = ann_scoring;
  narrow.nprobe = 2;
  const Evaluator approx(d, 10, runtime::RuntimeConfig{2}, narrow);
  const TopKMetrics m = approx.Evaluate(model);
  EXPECT_EQ(m.num_users, want.num_users);
  EXPECT_GE(m.recall, 0.0);
  EXPECT_LE(m.recall, 1.0);
  EXPECT_GE(m.ndcg, 0.0);
  EXPECT_LE(m.ndcg, 1.0);
}

TEST(AnnFrontEnd, ConcurrentFrontDoorMatchesSynchronousAnnService) {
  const Dataset d = MediumDataset();
  Rng rng(49);
  MfModel model(d.num_users(), d.num_items(), 8, rng);
  model.Forward(rng);
  const std::vector<TopKRequest> reqs = AllUserRequests(d);
  InferenceService service(d, model, AnnConfig(2, 8, 3));
  const std::vector<TopKResponse> want = service.HandleBatch(reqs);
  serve::FrontEndConfig fe;
  fe.max_batch = 8;
  fe.serve = AnnConfig(2, 8, 3);
  serve::ServingFrontEnd frontend(d, model, fe);
  std::vector<std::future<serve::ServedResponse>> futures;
  futures.reserve(reqs.size());
  for (const TopKRequest& req : reqs) futures.push_back(frontend.Submit(req));
  for (size_t r = 0; r < reqs.size(); ++r) {
    ExpectSameResponse(futures[r].get().topk, want[r],
                       "request " + std::to_string(r));
  }
}

}  // namespace
}  // namespace bslrec
