// Tests for the concurrent serving front door: request queue +
// micro-batcher equivalence against the synchronous path, flush
// policy, snapshot hot-swap under load, drain-on-destruction, and
// error propagation through futures.
#include "serve/serving_frontend.h"

#include <algorithm>
#include <future>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "data/synthetic.h"
#include "gtest/gtest.h"
#include "math/rng.h"
#include "models/mf.h"
#include "serve/inference_service.h"
#include "serve/ranking_engine.h"
#include "test_util.h"

namespace bslrec {
namespace {

using serve::FrontEndConfig;
using serve::InferenceService;
using serve::ModelSnapshot;
using serve::RankingEngine;
using serve::ServedResponse;
using serve::ServeConfig;
using serve::ServingFrontEnd;
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

std::unique_ptr<MfModel> MakeModel(const Dataset& d, uint64_t seed,
                                   size_t dim = 8) {
  Rng rng(seed);
  auto model = std::make_unique<MfModel>(d.num_users(), d.num_items(), dim,
                                         rng);
  model->Forward(rng);
  return model;
}

FrontEndConfig Config(size_t max_batch = 8, uint32_t flush_us = 200,
                      size_t threads = 2, bool cache = true) {
  FrontEndConfig cfg;
  cfg.max_batch = max_batch;
  cfg.flush_deadline_us = flush_us;
  cfg.serve.max_k = 20;
  cfg.serve.cache_rankings = cache;
  cfg.serve.runtime.num_threads = threads;
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

void ExpectSameResponse(const TopKResponse& a, const TopKResponse& b,
                        const std::string& what) {
  ASSERT_EQ(a.items.size(), b.items.size()) << what;
  for (size_t i = 0; i < a.items.size(); ++i) {
    EXPECT_EQ(a.items[i], b.items[i]) << what << " rank " << i;
    // Bit-identical, not approximately equal: the equivalence contract.
    EXPECT_EQ(a.scores[i], b.scores[i]) << what << " rank " << i;
  }
}

// A deterministic per-producer request mix covering every request
// shape: varying k, unfiltered, and extra_seen requests.
std::vector<TopKRequest> FuzzStream(const Dataset& d, uint64_t seed,
                                    size_t count,
                                    std::vector<std::vector<uint32_t>>& extra) {
  Rng rng(seed);
  std::vector<TopKRequest> reqs;
  reqs.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    TopKRequest req;
    req.user = static_cast<uint32_t>(rng.NextIndex(d.num_users()));
    req.k = 1 + static_cast<uint32_t>(rng.NextIndex(25));
    const uint64_t shape = rng.NextIndex(4);
    if (shape == 1) {
      req.filter_seen = false;
    } else if (shape == 2) {
      std::vector<uint32_t>& ids = extra.emplace_back();
      ids.push_back(static_cast<uint32_t>(rng.NextIndex(d.num_items() / 2)));
      ids.push_back(static_cast<uint32_t>(ids[0] + 1 +
                                          rng.NextIndex(d.num_items() / 3)));
      req.extra_seen = ids;
    }
    reqs.push_back(req);
  }
  return reqs;
}

TEST(ServingFrontEnd, SingleProducerMatchesSynchronousService) {
  const Dataset d = MediumDataset();
  const std::unique_ptr<MfModel> model = MakeModel(d, 3);
  InferenceService sync(d, *model, Config().serve);
  ServingFrontEnd frontend(d, *model, Config());

  std::vector<std::vector<uint32_t>> extra;
  const std::vector<TopKRequest> reqs = FuzzStream(d, 77, 40, extra);
  for (size_t i = 0; i < reqs.size(); ++i) {
    const ServedResponse got = frontend.HandleSync(reqs[i]);
    EXPECT_EQ(got.snapshot_seq, 1u);
    ExpectSameResponse(got.topk, sync.Handle(reqs[i]),
                       "request " + std::to_string(i));
  }
  frontend.Drain();
  EXPECT_EQ(frontend.stats().requests, reqs.size());
}

TEST(ServingFrontEnd, NProducerFuzzMatchesSynchronousHandle) {
  const Dataset d = MediumDataset();
  const std::unique_ptr<MfModel> model = MakeModel(d, 4);
  // Small batches + tight deadline so real micro-batches form across
  // producers (mixed users, shapes, and cutoffs in one batch).
  ServingFrontEnd frontend(d, *model, Config(/*max_batch=*/4,
                                            /*flush_us=*/100));

  constexpr size_t kProducers = 4;
  constexpr size_t kRequests = 60;
  std::vector<std::vector<std::vector<uint32_t>>> extra(kProducers);
  std::vector<std::vector<TopKRequest>> streams(kProducers);
  std::vector<std::vector<ServedResponse>> got(kProducers);
  for (size_t p = 0; p < kProducers; ++p) {
    streams[p] = FuzzStream(d, 100 + p, kRequests, extra[p]);
    got[p].reserve(kRequests);
  }

  std::vector<std::thread> producers;
  for (size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (const TopKRequest& req : streams[p]) {
        got[p].push_back(frontend.HandleSync(req));
      }
    });
  }
  for (std::thread& t : producers) t.join();

  // Every response matches the synchronous single-driver path.
  InferenceService sync(d, *model, Config().serve);
  for (size_t p = 0; p < kProducers; ++p) {
    for (size_t r = 0; r < streams[p].size(); ++r) {
      ExpectSameResponse(got[p][r].topk, sync.Handle(streams[p][r]),
                         "producer " + std::to_string(p) + " request " +
                             std::to_string(r));
    }
  }
  frontend.Drain();  // stats are settled once the queue is idle
  const serve::FrontEndStats st = frontend.stats();
  EXPECT_EQ(st.requests, kProducers * kRequests);
  EXPECT_EQ(st.rejected, 0u);
  EXPECT_GE(st.batches, (kProducers * kRequests + 3) / 4);
}

TEST(ServingFrontEnd, SizeFlushFillsBatches) {
  const Dataset d = MediumDataset();
  const std::unique_ptr<MfModel> model = MakeModel(d, 6);
  // Deadline far away: only max_batch can close a batch promptly.
  ServingFrontEnd frontend(d, *model,
                           Config(/*max_batch=*/4, /*flush_us=*/200000));
  std::vector<TopKRequest> reqs(8, Req(1, 5));
  for (size_t i = 0; i < reqs.size(); ++i) reqs[i].user = i;
  const std::vector<ServedResponse> got = frontend.HandleBatchSync(reqs);
  ASSERT_EQ(got.size(), reqs.size());
  frontend.Drain();  // stats are settled once the queue is idle
  const serve::FrontEndStats st = frontend.stats();
  EXPECT_EQ(st.requests, reqs.size());
  EXPECT_GE(st.size_flushes, 2u);  // two full batches of 4
  EXPECT_EQ(st.deadline_flushes, 0u);
  EXPECT_EQ(st.max_batch_served, 4u);
}

TEST(ServingFrontEnd, DeadlineFlushServesLoneRequest) {
  const Dataset d = MediumDataset();
  const std::unique_ptr<MfModel> model = MakeModel(d, 6);
  // Batch can never fill (max_batch huge): only the deadline fires.
  ServingFrontEnd frontend(d, *model,
                           Config(/*max_batch=*/1024, /*flush_us=*/2000));
  const ServedResponse got = frontend.HandleSync(Req(7, 10));
  EXPECT_EQ(got.topk.items.size(), 10u);
  frontend.Drain();  // stats are settled once the queue is idle
  const serve::FrontEndStats st = frontend.stats();
  EXPECT_EQ(st.requests, 1u);
  EXPECT_EQ(st.size_flushes, 0u);
  EXPECT_GE(st.deadline_flushes, 1u);
}

TEST(ServingFrontEnd, HotSwapUnderLoadAttributesEveryResponse) {
  const Dataset d = MediumDataset();
  // Three model generations — distinct embeddings, same shapes.
  std::vector<std::shared_ptr<const ModelSnapshot>> snaps;
  runtime::ThreadPool freeze_pool(2);
  for (uint64_t g = 0; g < 3; ++g) {
    const std::unique_ptr<MfModel> gen = MakeModel(d, 40 + g);
    snaps.push_back(std::make_shared<const ModelSnapshot>(*gen, freeze_pool));
  }

  FrontEndConfig cfg = Config(/*max_batch=*/4, /*flush_us=*/100);
  ServingFrontEnd frontend(d, snaps[0], cfg);
  EXPECT_EQ(frontend.current_snapshot(), snaps[0]);
  EXPECT_EQ(frontend.current_seq(), 1u);

  constexpr size_t kProducers = 3;
  constexpr size_t kRequests = 80;
  std::vector<std::vector<std::vector<uint32_t>>> extra(kProducers);
  std::vector<std::vector<TopKRequest>> streams(kProducers);
  std::vector<std::vector<ServedResponse>> got(kProducers);
  for (size_t p = 0; p < kProducers; ++p) {
    streams[p] = FuzzStream(d, 200 + p, kRequests, extra[p]);
    got[p].reserve(kRequests);
  }
  std::vector<std::thread> producers;
  for (size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (const TopKRequest& req : streams[p]) {
        got[p].push_back(frontend.HandleSync(req));
      }
    });
  }
  // Publish the remaining generations while traffic is in flight.
  std::vector<uint64_t> seqs = {1};
  for (size_t g = 1; g < snaps.size(); ++g) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    seqs.push_back(frontend.PublishSnapshot(snaps[g]));
  }
  for (std::thread& t : producers) t.join();
  EXPECT_EQ(seqs, (std::vector<uint64_t>{1, 2, 3}));
  EXPECT_EQ(frontend.current_seq(), 3u);
  EXPECT_EQ(frontend.current_snapshot(), snaps[2]);

  // Every response names exactly one published snapshot (no torn
  // reads: seq and snapshot pointer must agree) and is bit-identical
  // to the synchronous ranking on that snapshot.
  runtime::ThreadPool ref_pool(1);
  std::vector<std::unique_ptr<RankingEngine>> refs(snaps.size());
  for (size_t p = 0; p < kProducers; ++p) {
    for (size_t r = 0; r < streams[p].size(); ++r) {
      const ServedResponse& resp = got[p][r];
      ASSERT_GE(resp.snapshot_seq, 1u);
      ASSERT_LE(resp.snapshot_seq, snaps.size());
      const size_t g = resp.snapshot_seq - 1;
      EXPECT_EQ(resp.snapshot, snaps[g]) << "seq/snapshot mismatch";
      if (refs[g] == nullptr) {
        refs[g] = std::make_unique<RankingEngine>(d, *snaps[g], ref_pool,
                                                  cfg.serve);
      }
      ExpectSameResponse(resp.topk, refs[g]->Handle(streams[p][r]),
                         "hot-swap producer " + std::to_string(p) +
                             " request " + std::to_string(r));
    }
  }
  // A request after the last publish is served by the last snapshot.
  EXPECT_EQ(frontend.HandleSync(Req(0, 5)).snapshot_seq, 3u);
  EXPECT_EQ(frontend.stats().snapshots_published, 3u);
}

TEST(ServingFrontEnd, DestructorDrainsEverySubmittedRequest) {
  const Dataset d = MediumDataset();
  const std::unique_ptr<MfModel> model = MakeModel(d, 7);
  std::vector<std::future<ServedResponse>> futures;
  {
    // Slow flush policy: requests are still queued when the
    // destructor runs — it must serve them all, not drop them.
    ServingFrontEnd frontend(d, *model,
                             Config(/*max_batch=*/1024, /*flush_us=*/50000));
    for (uint32_t u = 0; u < 20; ++u) {
      futures.push_back(frontend.Submit(Req(u, 5)));
    }
  }
  InferenceService sync(d, *model, Config().serve);
  for (uint32_t u = 0; u < 20; ++u) {
    ASSERT_TRUE(futures[u].valid());
    ExpectSameResponse(futures[u].get().topk, sync.Handle(Req(u, 5)),
                       "drained request " + std::to_string(u));
  }
}

TEST(ServingFrontEnd, InvalidRequestsFailTheirOwnFuture) {
  const Dataset d = MediumDataset();
  const std::unique_ptr<MfModel> model = MakeModel(d, 8);
  ServingFrontEnd frontend(d, *model, Config(/*max_batch=*/4));

  const std::vector<uint32_t> unsorted = {5, 3};
  std::vector<TopKRequest> reqs = {
      Req(1, 5),                          // valid
      Req(d.num_users() + 7, 5),          // user out of range
      Req(2, 0),                          // k == 0
      Req(3, 5, true, unsorted),          // unsorted extra_seen
  };
  std::vector<std::future<ServedResponse>> futures =
      frontend.SubmitBatch(reqs);
  // The valid request in the same batch is served normally...
  InferenceService sync(d, *model, Config().serve);
  ExpectSameResponse(futures[0].get().topk, sync.Handle(reqs[0]),
                     "valid request beside invalid ones");
  // ...while each malformed one fails its own future.
  for (size_t i = 1; i < futures.size(); ++i) {
    EXPECT_THROW(futures[i].get(), std::invalid_argument)
        << "request " << i;
  }
  frontend.Drain();  // stats are settled once the queue is idle
  const serve::FrontEndStats st = frontend.stats();
  EXPECT_EQ(st.rejected, 3u);
  EXPECT_EQ(st.requests, reqs.size());
}

TEST(ServingFrontEnd, ExtraSeenIsCopiedAtSubmit) {
  const Dataset d = MediumDataset();
  const std::unique_ptr<MfModel> model = MakeModel(d, 9);
  ServingFrontEnd frontend(d, *model, Config());
  InferenceService sync(d, *model, Config().serve);

  std::vector<uint32_t> extra = {2, 4, 9};
  std::future<ServedResponse> fut = frontend.Submit(Req(5, 8, true, extra));
  const TopKResponse want = sync.Handle(Req(5, 8, true, extra));
  // Clobber the caller's buffer before the future resolves — the
  // front end owns its copy.
  extra.assign({88, 89, 90});
  ExpectSameResponse(fut.get().topk, want, "extra_seen lifetime");
}

// The accounting identity holds as soon as every future of a round is
// ready, with no Drain(): the dispatcher counts a batch in `requests`
// before it fulfils the batch's promises. Rounds of 1 to 7 requests
// against batches of 4 end on both size and deadline flushes.
TEST(ServingFrontEnd, AccountingHoldsOnceEveryFutureIsReady) {
  const Dataset d = MediumDataset();
  const std::unique_ptr<MfModel> model = MakeModel(d, 12);
  ServingFrontEnd frontend(d, *model, Config(/*max_batch=*/4, /*flush_us=*/50));
  uint64_t submitted = 0;
  size_t lagging_rounds = 0;
  for (uint32_t round = 0; round < 200; ++round) {
    std::vector<std::future<ServedResponse>> futures;
    for (uint32_t i = 0; i < 1 + round % 7; ++i) {
      const uint32_t user = (round * 7 + i) % d.num_users();
      futures.push_back(frontend.Submit(Req(user, 5)));
    }
    for (std::future<ServedResponse>& fut : futures) fut.wait();
    const serve::FrontEndStats st = frontend.stats();
    submitted += futures.size();
    EXPECT_EQ(st.submitted, submitted) << "round " << round;
    const uint64_t accounted =
        st.requests + st.shed_newest + st.shed_oldest + st.expired_admission;
    lagging_rounds += st.submitted != accounted;
  }
  EXPECT_EQ(lagging_rounds, 0u);
}

TEST(ServingFrontEnd, DrainBlocksUntilQueueIsServed) {
  const Dataset d = MediumDataset();
  const std::unique_ptr<MfModel> model = MakeModel(d, 10);
  ServingFrontEnd frontend(d, *model, Config(/*max_batch=*/8));
  std::vector<std::future<ServedResponse>> futures;
  for (uint32_t u = 0; u < 30; ++u) {
    futures.push_back(frontend.Submit(Req(u % d.num_users(), 5)));
  }
  frontend.Drain();
  EXPECT_EQ(frontend.stats().requests, futures.size());
  for (std::future<ServedResponse>& fut : futures) {
    EXPECT_EQ(fut.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
  }
}

}  // namespace
}  // namespace bslrec
