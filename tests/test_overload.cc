// Overload-resilience tests for the serving front door: bounded
// admission (block / shed-newest / shed-oldest), deadline enforcement
// at every stage, weighted-fair lanes, brownout degradation with
// hysteresis, injected batch faults, and the Drain/publish race — all
// driven by the deterministic fault injector so the failure modes
// engage on purpose instead of by luck.
#include <algorithm>
#include <chrono>
#include <future>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "data/synthetic.h"
#include "gtest/gtest.h"
#include "math/rng.h"
#include "models/mf.h"
#include "serve/fault_injector.h"
#include "serve/inference_service.h"
#include "serve/ranking_engine.h"
#include "serve/serving_frontend.h"

namespace bslrec {
namespace {

using serve::BrownoutServeConfigFor;
using serve::DeadlineExceededError;
using serve::DeadlineStage;
using serve::DegradeMode;
using serve::FaultAction;
using serve::FaultRule;
using serve::FrontEndConfig;
using serve::FrontEndStats;
using serve::InferenceService;
using serve::ModelSnapshot;
using serve::OverflowPolicy;
using serve::OverloadError;
using serve::RankingEngine;
using serve::RequestLane;
using serve::ScheduledFaultInjector;
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
                      size_t threads = 2) {
  FrontEndConfig cfg;
  cfg.max_batch = max_batch;
  cfg.flush_deadline_us = flush_us;
  cfg.serve.max_k = 20;
  cfg.serve.runtime.num_threads = threads;
  return cfg;
}

TopKRequest Req(uint32_t user, uint32_t k, uint32_t deadline_us = 0,
                RequestLane lane = RequestLane::kInteractive) {
  TopKRequest req;
  req.user = user;
  req.k = k;
  req.deadline_us = deadline_us;
  req.lane = lane;
  return req;
}

std::shared_ptr<ScheduledFaultInjector> Inject(std::vector<FaultRule> rules,
                                               uint64_t seed = 0) {
  return std::make_shared<ScheduledFaultInjector>(std::move(rules), seed);
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

// The idle-state accounting identity from serving_frontend.h: every
// submitted request was finalized exactly once, somewhere.
void ExpectAccounting(const FrontEndStats& st) {
  EXPECT_EQ(st.submitted, st.requests + st.shed_newest + st.shed_oldest +
                              st.expired_admission)
      << "requests leaked or were double-counted";
}

// ---------------------------------------------------------------------------
// ScheduledFaultInjector: pure function of (rules, seed, tick).

TEST(FaultInjector, UnseededScheduleIsExact) {
  // Rule order matters: the delay rule is listed first, so it wins the
  // ticks both rules match, until its count runs out.
  ScheduledFaultInjector inj({
      {FaultAction::Kind::kDelay, /*first=*/0, /*period=*/4, /*count=*/2, 7},
      {FaultAction::Kind::kStall, /*first=*/2, /*period=*/3, /*count=*/0, 5},
  });
  const std::vector<FaultAction::Kind> want = {
      FaultAction::Kind::kDelay, FaultAction::Kind::kNone,
      FaultAction::Kind::kStall, FaultAction::Kind::kNone,
      FaultAction::Kind::kDelay, FaultAction::Kind::kStall,
      FaultAction::Kind::kNone,  FaultAction::Kind::kNone,
      FaultAction::Kind::kStall,  // the delay rule is exhausted by now
      FaultAction::Kind::kNone,  FaultAction::Kind::kNone,
      FaultAction::Kind::kStall,
  };
  for (uint64_t t = 0; t < want.size(); ++t) {
    const FaultAction a = inj.OnTick(t);
    EXPECT_EQ(a.kind, want[t]) << "tick " << t;
    if (a.kind == FaultAction::Kind::kDelay) {
      EXPECT_EQ(a.micros, 7u);
    }
    if (a.kind == FaultAction::Kind::kStall) {
      EXPECT_EQ(a.micros, 5u);
    }
  }
  EXPECT_EQ(inj.fired(FaultAction::Kind::kDelay), 2u);
  EXPECT_EQ(inj.fired(FaultAction::Kind::kStall), 4u);
}

TEST(FaultInjector, SameSeedReplaysIdentically) {
  const std::vector<FaultRule> rules = {
      {FaultAction::Kind::kStall, 0, 5, 0, 11},
      {FaultAction::Kind::kFail, 3, 7, 4, 0},
      {FaultAction::Kind::kDelay, 1, 2, 0, 13},
  };
  ScheduledFaultInjector a(rules, /*seed=*/123);
  ScheduledFaultInjector b(rules, /*seed=*/123);
  for (uint64_t t = 0; t < 50; ++t) {
    const FaultAction fa = a.OnTick(t);
    const FaultAction fb = b.OnTick(t);
    EXPECT_EQ(fa.kind, fb.kind) << "tick " << t;
    EXPECT_EQ(fa.micros, fb.micros) << "tick " << t;
  }
}

// ---------------------------------------------------------------------------
// Shed policies.

TEST(Overload, ShedNewestRefusesWithTypedRetriableError) {
  const Dataset d = MediumDataset();
  const std::unique_ptr<MfModel> model = MakeModel(d, 3);
  FrontEndConfig cfg = Config(/*max_batch=*/8);
  cfg.max_queue_depth = 2;
  cfg.overflow = OverflowPolicy::kShedNewest;
  cfg.shed_retry_us = 1234;
  // Wedge the dispatcher on its first wakeup so the queue stays full
  // while we flood it.
  cfg.fault_injector = Inject({{FaultAction::Kind::kStall, 0, 1, 1, 150000}});
  ServingFrontEnd frontend(d, *model, cfg);

  std::vector<std::future<ServedResponse>> futures;
  for (uint32_t u = 0; u < 6; ++u) futures.push_back(frontend.Submit(Req(u, 5)));
  // The first two fit the queue; the other four are refused.
  InferenceService sync(d, *model, Config().serve);
  for (uint32_t u = 0; u < 2; ++u) {
    ExpectSameResponse(futures[u].get().topk, sync.Handle(Req(u, 5)),
                       "admitted request " + std::to_string(u));
  }
  for (uint32_t u = 2; u < 6; ++u) {
    try {
      futures[u].get();
      FAIL() << "request " << u << " should have been shed";
    } catch (const OverloadError& e) {
      EXPECT_EQ(e.retry_after_us(), 1234u) << "request " << u;
      EXPECT_NE(std::string(e.what()).find("shed"), std::string::npos);
    }
  }
  frontend.Drain();
  const FrontEndStats st = frontend.stats();
  EXPECT_EQ(st.submitted, 6u);
  EXPECT_EQ(st.shed_newest, 4u);
  EXPECT_EQ(st.requests, 2u);
  EXPECT_LE(st.queue_depth_high_water, 2u);
  ExpectAccounting(st);
}

TEST(Overload, ShedOldestEvictsBulkBeforeInteractive) {
  const Dataset d = MediumDataset();
  const std::unique_ptr<MfModel> model = MakeModel(d, 4);
  FrontEndConfig cfg = Config(/*max_batch=*/8);
  cfg.max_queue_depth = 3;
  cfg.overflow = OverflowPolicy::kShedOldest;
  cfg.fault_injector = Inject({{FaultAction::Kind::kStall, 0, 1, 1, 150000}});
  ServingFrontEnd frontend(d, *model, cfg);

  // Fill: two bulk, one interactive. Each further submit evicts the
  // oldest bulk request first; once bulk is empty, the oldest
  // interactive one goes.
  auto bulk1 = frontend.Submit(Req(0, 5, 0, RequestLane::kBulk));
  auto bulk2 = frontend.Submit(Req(1, 5, 0, RequestLane::kBulk));
  auto int1 = frontend.Submit(Req(2, 5));
  auto int2 = frontend.Submit(Req(3, 5));  // evicts bulk1
  auto int3 = frontend.Submit(Req(4, 5));  // evicts bulk2
  auto int4 = frontend.Submit(Req(5, 5));  // bulk empty: evicts int1

  EXPECT_THROW(bulk1.get(), OverloadError);
  EXPECT_THROW(bulk2.get(), OverloadError);
  EXPECT_THROW(int1.get(), OverloadError);
  InferenceService sync(d, *model, Config().serve);
  ExpectSameResponse(int2.get().topk, sync.Handle(Req(3, 5)), "survivor int2");
  ExpectSameResponse(int3.get().topk, sync.Handle(Req(4, 5)), "survivor int3");
  ExpectSameResponse(int4.get().topk, sync.Handle(Req(5, 5)), "survivor int4");
  frontend.Drain();
  const FrontEndStats st = frontend.stats();
  EXPECT_EQ(st.shed_oldest, 3u);
  EXPECT_EQ(st.requests, 3u);
  EXPECT_LE(st.queue_depth_high_water, 3u);
  ExpectAccounting(st);
}

TEST(Overload, BlockBackpressureNeverExceedsDepthAndServesEverything) {
  const Dataset d = MediumDataset();
  const std::unique_ptr<MfModel> model = MakeModel(d, 5);
  FrontEndConfig cfg = Config(/*max_batch=*/4, /*flush_us=*/100);
  cfg.max_queue_depth = 4;
  cfg.overflow = OverflowPolicy::kBlock;
  // Periodic stalls keep the server slower than the producers so the
  // bound is actually exercised.
  cfg.fault_injector =
      Inject({{FaultAction::Kind::kStall, 0, 3, 0, 3000}});
  ServingFrontEnd frontend(d, *model, cfg);

  constexpr size_t kProducers = 4;
  constexpr size_t kPerProducer = 20;
  std::vector<std::vector<ServedResponse>> got(kProducers);
  std::vector<std::thread> producers;
  for (size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (size_t r = 0; r < kPerProducer; ++r) {
        got[p].push_back(frontend.HandleSync(
            Req(static_cast<uint32_t>((p * kPerProducer + r) %
                                      d.num_users()),
                5 + static_cast<uint32_t>(r % 7))));
      }
    });
  }
  for (std::thread& t : producers) t.join();

  InferenceService sync(d, *model, Config().serve);
  for (size_t p = 0; p < kProducers; ++p) {
    ASSERT_EQ(got[p].size(), kPerProducer);
    for (size_t r = 0; r < kPerProducer; ++r) {
      ExpectSameResponse(
          got[p][r].topk,
          sync.Handle(Req(static_cast<uint32_t>((p * kPerProducer + r) %
                                                d.num_users()),
                          5 + static_cast<uint32_t>(r % 7))),
          "producer " + std::to_string(p) + " request " + std::to_string(r));
    }
  }
  frontend.Drain();
  const FrontEndStats st = frontend.stats();
  EXPECT_EQ(st.submitted, kProducers * kPerProducer);
  EXPECT_EQ(st.requests, kProducers * kPerProducer);
  EXPECT_EQ(st.shed_newest + st.shed_oldest, 0u);  // kBlock never sheds
  // The overload proof: the bound held at every instant.
  EXPECT_LE(st.queue_depth_high_water, 4u);
  ExpectAccounting(st);
}

// ---------------------------------------------------------------------------
// Deadlines, stage by stage.

TEST(Overload, DeadlineExpiresAtAdmissionWhileBlockedForSpace) {
  const Dataset d = MediumDataset();
  const std::unique_ptr<MfModel> model = MakeModel(d, 6);
  FrontEndConfig cfg = Config(/*max_batch=*/8);
  cfg.max_queue_depth = 2;
  cfg.overflow = OverflowPolicy::kBlock;
  cfg.fault_injector = Inject({{FaultAction::Kind::kStall, 0, 1, 1, 200000}});
  ServingFrontEnd frontend(d, *model, cfg);

  auto r1 = frontend.Submit(Req(0, 5));
  auto r2 = frontend.Submit(Req(1, 5));
  // Queue full, dispatcher stalled: this submit blocks for space and
  // its 10ms deadline expires long before the 200ms stall ends.
  auto r3 = frontend.Submit(Req(2, 5, /*deadline_us=*/10000));
  try {
    r3.get();
    FAIL() << "blocked submit should have expired at admission";
  } catch (const DeadlineExceededError& e) {
    EXPECT_EQ(e.stage(), DeadlineStage::kAdmission);
  }
  EXPECT_EQ(r1.get().topk.items.size(), 5u);
  EXPECT_EQ(r2.get().topk.items.size(), 5u);
  frontend.Drain();
  const FrontEndStats st = frontend.stats();
  EXPECT_EQ(st.expired_admission, 1u);
  EXPECT_GE(st.blocked_submits, 1u);
  ExpectAccounting(st);
}

TEST(Overload, DeadlineExpiresInQueueWithoutBurningScorerCycles) {
  const Dataset d = MediumDataset();
  const std::unique_ptr<MfModel> model = MakeModel(d, 7);
  FrontEndConfig cfg = Config(/*max_batch=*/4);
  cfg.fault_injector = Inject({{FaultAction::Kind::kStall, 0, 1, 1, 100000}});
  ServingFrontEnd frontend(d, *model, cfg);

  // The no-deadline request triggers the stall; the 5ms-deadline ones
  // rot in the queue behind it and must fail fast at dequeue.
  auto live = frontend.Submit(Req(0, 5));
  std::vector<std::future<ServedResponse>> doomed;
  for (uint32_t u = 1; u <= 5; ++u) {
    doomed.push_back(frontend.Submit(Req(u, 5, /*deadline_us=*/5000)));
  }
  EXPECT_EQ(live.get().topk.items.size(), 5u);
  for (size_t i = 0; i < doomed.size(); ++i) {
    try {
      doomed[i].get();
      FAIL() << "queued request " << i << " should have expired";
    } catch (const DeadlineExceededError& e) {
      EXPECT_EQ(e.stage(), DeadlineStage::kQueue) << "request " << i;
    }
  }
  frontend.Drain();
  const FrontEndStats st = frontend.stats();
  EXPECT_EQ(st.expired_queue, 5u);
  EXPECT_EQ(st.requests, 6u);  // expiry is dispatcher finalization
  ExpectAccounting(st);
}

TEST(Overload, DeadlineExpiresMidBatchFailsOnlyThatRequest) {
  const Dataset d = MediumDataset();
  const std::unique_ptr<MfModel> model = MakeModel(d, 8);
  FrontEndConfig cfg = Config(/*max_batch=*/4, /*flush_us=*/5000);
  // The batch forms promptly (size flush at 4), then the injected
  // 100ms scoring delay blows through the 20ms deadlines.
  cfg.fault_injector = Inject({{FaultAction::Kind::kDelay, 0, 1, 1, 100000}});
  ServingFrontEnd frontend(d, *model, cfg);

  std::vector<std::future<ServedResponse>> futures;
  for (uint32_t u = 0; u < 3; ++u) {
    futures.push_back(frontend.Submit(Req(u, 5, /*deadline_us=*/20000)));
  }
  futures.push_back(frontend.Submit(Req(3, 5)));  // no deadline: survives

  for (size_t i = 0; i < 3; ++i) {
    try {
      futures[i].get();
      FAIL() << "request " << i << " must never be fulfilled past deadline";
    } catch (const DeadlineExceededError& e) {
      EXPECT_EQ(e.stage(), DeadlineStage::kBatch) << "request " << i;
    }
  }
  InferenceService sync(d, *model, Config().serve);
  ExpectSameResponse(futures[3].get().topk, sync.Handle(Req(3, 5)),
                     "deadline-free batchmate");
  frontend.Drain();
  const FrontEndStats st = frontend.stats();
  EXPECT_EQ(st.expired_batch, 3u);
  EXPECT_EQ(st.requests, 4u);
  ExpectAccounting(st);
}

// ---------------------------------------------------------------------------
// Priority lanes.

TEST(Overload, BulkFloodCannotStarveInteractiveTraffic) {
  const Dataset d = MediumDataset();
  const std::unique_ptr<MfModel> model = MakeModel(d, 9);
  FrontEndConfig cfg = Config(/*max_batch=*/4, /*flush_us=*/100);
  cfg.interactive_weight = 3;
  cfg.bulk_weight = 1;
  // Tick 0: stall 100ms so the whole flood queues up behind a wedged
  // dispatcher. Every later batch is slowed 50ms so completion order
  // across batches is observable.
  cfg.fault_injector = Inject({
      {FaultAction::Kind::kStall, 0, 1, 1, 100000},
      {FaultAction::Kind::kDelay, 1, 1, 0, 50000},
  });
  ServingFrontEnd frontend(d, *model, cfg);

  constexpr size_t kBulk = 12;
  constexpr size_t kInteractive = 6;
  std::mutex order_mu;
  std::vector<std::string> order;  // completion labels, in finish order
  std::vector<std::thread> waiters;
  std::vector<std::future<ServedResponse>> futures;
  // The bulk flood is submitted FIRST — strict FIFO would finish all
  // of it before any interactive request.
  for (size_t b = 0; b < kBulk; ++b) {
    futures.push_back(frontend.Submit(
        Req(static_cast<uint32_t>(b), 5, 0, RequestLane::kBulk)));
  }
  for (size_t i = 0; i < kInteractive; ++i) {
    futures.push_back(
        frontend.Submit(Req(static_cast<uint32_t>(20 + i), 5)));
  }
  for (size_t f = 0; f < futures.size(); ++f) {
    waiters.emplace_back([&, f] {
      futures[f].get();
      std::lock_guard<std::mutex> lock(order_mu);
      order.push_back(f < kBulk ? "bulk" : "interactive");
    });
  }
  for (std::thread& t : waiters) t.join();

  // Weighted-fair 3:1 drain serves all 6 interactive within the first
  // two 4-request batches; under bulk-first FIFO they would be the
  // last 6 completions. Allow one batch of recorder slack.
  ASSERT_EQ(order.size(), kBulk + kInteractive);
  size_t last_interactive = 0;
  for (size_t i = 0; i < order.size(); ++i) {
    if (order[i] == "interactive") last_interactive = i;
  }
  EXPECT_LT(last_interactive, 12u)
      << "interactive requests were starved behind the bulk flood";
  frontend.Drain();
  const FrontEndStats st = frontend.stats();
  EXPECT_EQ(st.lane_submitted[0], kInteractive);
  EXPECT_EQ(st.lane_submitted[1], kBulk);
  EXPECT_EQ(st.lane_served[0], kInteractive);
  EXPECT_EQ(st.lane_served[1], kBulk);
  ExpectAccounting(st);
}

// ---------------------------------------------------------------------------
// Brownout degradation.

TEST(Overload, DepthBrownoutDegradesAndRecoversBitIdentically) {
  const Dataset d = MediumDataset();
  const std::unique_ptr<MfModel> model = MakeModel(d, 10);
  FrontEndConfig cfg = Config(/*max_batch=*/8, /*flush_us=*/100);
  cfg.brownout.enable = true;
  cfg.brownout.high_watermark = 8;
  cfg.brownout.low_watermark = 2;
  cfg.brownout.nprobe = 2;
  cfg.fault_injector = Inject({{FaultAction::Kind::kStall, 0, 1, 1, 150000}});
  ServingFrontEnd frontend(d, *model, cfg);
  // Brownout forces an IVF build on the initial snapshot, so the best
  // degraded tier is ANN.
  ASSERT_EQ(frontend.current_brownout_mode(), DegradeMode::kIvf);

  // Flood 30 requests into the stalled dispatcher: depth crosses the
  // high-water mark, so the backlog is served degraded.
  std::vector<TopKRequest> reqs;
  std::vector<std::future<ServedResponse>> futures;
  for (uint32_t i = 0; i < 30; ++i) {
    reqs.push_back(Req(i % d.num_users(), 5 + (i % 9)));
    futures.push_back(frontend.Submit(reqs.back()));
  }
  frontend.Drain();
  // Recovery: the queue is empty, so the next lone request (depth 1
  // <= low watermark) exits brownout and serves exact.
  const TopKRequest tail = Req(7, 10);
  const ServedResponse tail_resp = frontend.HandleSync(tail);
  EXPECT_FALSE(tail_resp.degraded);
  EXPECT_EQ(tail_resp.degrade_mode, DegradeMode::kNone);

  // Every response is bit-identical to the single-driver engine at
  // the tier that served it — exact or the published brownout tier.
  const std::shared_ptr<const ModelSnapshot> snap =
      frontend.current_snapshot();
  runtime::ThreadPool ref_pool(1);
  RankingEngine exact_ref(d, *snap, ref_pool, cfg.serve);
  RankingEngine degraded_ref(
      d, *snap, ref_pool,
      BrownoutServeConfigFor(cfg.serve, DegradeMode::kIvf,
                             cfg.brownout.nprobe));
  size_t degraded_count = 0;
  for (size_t i = 0; i < futures.size(); ++i) {
    const ServedResponse resp = futures[i].get();
    if (resp.degraded) {
      ++degraded_count;
      EXPECT_EQ(resp.degrade_mode, DegradeMode::kIvf) << "request " << i;
      EXPECT_GT(resp.queue_us, 0u) << "request " << i;
      ExpectSameResponse(resp.topk, degraded_ref.Handle(reqs[i]),
                         "degraded request " + std::to_string(i));
    } else {
      ExpectSameResponse(resp.topk, exact_ref.Handle(reqs[i]),
                         "exact request " + std::to_string(i));
    }
  }
  ExpectSameResponse(tail_resp.topk, exact_ref.Handle(tail),
                     "post-recovery request");
  EXPECT_GE(degraded_count, 8u);  // at least the above-watermark backlog

  frontend.Drain();  // stats are settled once the queue is idle
  const FrontEndStats st = frontend.stats();
  EXPECT_EQ(st.brownout_entries, 1u);  // hysteresis: no flapping
  EXPECT_EQ(st.brownout_exits, 1u);
  EXPECT_GT(st.brownout_us, 0u);
  EXPECT_EQ(st.degraded_served, degraded_count);
  ExpectAccounting(st);
}

TEST(Overload, LatencyBrownoutTriggersOnSlowBatches) {
  const Dataset d = MediumDataset();
  const std::unique_ptr<MfModel> model = MakeModel(d, 11);
  FrontEndConfig cfg = Config(/*max_batch=*/8, /*flush_us=*/100);
  cfg.brownout.enable = true;
  cfg.brownout.high_watermark = 1000;  // depth can never trigger
  cfg.brownout.low_watermark = 1;
  cfg.brownout.latency_high_us = 50000;
  cfg.brownout.nprobe = 2;
  // Only the first batch is slowed (200ms >> the 50ms threshold).
  cfg.fault_injector = Inject({{FaultAction::Kind::kDelay, 0, 1, 1, 200000}});
  ServingFrontEnd frontend(d, *model, cfg);

  // Batch 1: slow but decided before the latency was observed — exact.
  const ServedResponse r1 = frontend.HandleSync(Req(1, 5));
  EXPECT_FALSE(r1.degraded);
  // Batch 2: the observed 200ms batch latency trips brownout.
  const ServedResponse r2 = frontend.HandleSync(Req(2, 5));
  EXPECT_TRUE(r2.degraded);
  EXPECT_EQ(r2.degrade_mode, DegradeMode::kIvf);
  // Batch 3: the degraded batch was fast and depth is low — recovered.
  const ServedResponse r3 = frontend.HandleSync(Req(3, 5));
  EXPECT_FALSE(r3.degraded);

  frontend.Drain();
  const FrontEndStats st = frontend.stats();
  EXPECT_EQ(st.brownout_entries, 1u);
  EXPECT_EQ(st.brownout_exits, 1u);
  EXPECT_EQ(st.degraded_served, 1u);
  ExpectAccounting(st);
}

// Brownout's only cheaper tier is the IVF index: on a snapshot without
// one, a flood past the high-water mark is still served exact, and the
// mode follows each publication.
TEST(Overload, BrownoutWithoutAnIvfIndexNeverDegrades) {
  const Dataset d = MediumDataset();
  const std::unique_ptr<MfModel> model = MakeModel(d, 13);
  runtime::ThreadPool freeze_pool(2);
  const auto plain = std::make_shared<const ModelSnapshot>(*model, freeze_pool);
  FrontEndConfig cfg = Config(/*max_batch=*/8, /*flush_us=*/100);
  cfg.brownout.enable = true;
  cfg.brownout.high_watermark = 8;
  cfg.brownout.low_watermark = 2;
  cfg.brownout.nprobe = 2;
  cfg.fault_injector = Inject({{FaultAction::Kind::kStall, 0, 1, 1, 150000}});
  ServingFrontEnd frontend(d, plain, cfg);
  ASSERT_EQ(frontend.current_brownout_mode(), DegradeMode::kNone);

  // Flood 30 requests into the stalled dispatcher: depth crosses the
  // high-water mark, and every response is still served exact.
  std::vector<TopKRequest> reqs;
  std::vector<std::future<ServedResponse>> futures;
  for (uint32_t i = 0; i < 30; ++i) {
    reqs.push_back(Req(i % d.num_users(), 5 + (i % 9)));
    futures.push_back(frontend.Submit(reqs.back()));
  }
  frontend.Drain();
  runtime::ThreadPool ref_pool(1);
  RankingEngine exact_ref(d, *plain, ref_pool, cfg.serve);
  for (size_t i = 0; i < futures.size(); ++i) {
    const ServedResponse resp = futures[i].get();
    EXPECT_FALSE(resp.degraded) << "request " << i;
    EXPECT_EQ(resp.degrade_mode, DegradeMode::kNone) << "request " << i;
    ExpectSameResponse(resp.topk, exact_ref.Handle(reqs[i]),
                       "request " + std::to_string(i));
  }
  const FrontEndStats st = frontend.stats();
  EXPECT_GE(st.queue_depth_high_water, cfg.brownout.high_watermark);
  EXPECT_EQ(st.degraded_served, 0u);
  // Nothing could degrade, so no brownout was entered or timed.
  EXPECT_EQ(st.brownout_entries, 0u);
  EXPECT_EQ(st.brownout_exits, 0u);
  EXPECT_EQ(st.brownout_us, 0u);
  ExpectAccounting(st);

  serve::SnapshotOptions indexed;
  indexed.ivf.build = true;
  frontend.PublishSnapshot(
      std::make_shared<const ModelSnapshot>(*model, freeze_pool, indexed));
  EXPECT_EQ(frontend.current_brownout_mode(), DegradeMode::kIvf);
  frontend.PublishSnapshot(plain);
  EXPECT_EQ(frontend.current_brownout_mode(), DegradeMode::kNone);
}

// A brownout in progress ends when a snapshot without an IVF index is
// published: the exit is counted and its time added to brownout_us.
TEST(Overload, PublishingAnUnindexedSnapshotEndsABrownout) {
  const Dataset d = MediumDataset();
  const std::unique_ptr<MfModel> model = MakeModel(d, 14);
  FrontEndConfig cfg = Config(/*max_batch=*/8, /*flush_us=*/100);
  cfg.brownout.enable = true;
  cfg.brownout.high_watermark = 8;
  cfg.brownout.low_watermark = 2;
  cfg.brownout.nprobe = 2;
  cfg.fault_injector = Inject({{FaultAction::Kind::kStall, 0, 1, 1, 150000}});
  ServingFrontEnd frontend(d, *model, cfg);
  ASSERT_EQ(frontend.current_brownout_mode(), DegradeMode::kIvf);

  // Flood the stalled dispatcher past the high-water mark. The last
  // batch drains the queue without another brownout decision, so the
  // brownout is still on once the queue is idle.
  std::vector<std::future<ServedResponse>> futures;
  for (uint32_t i = 0; i < 30; ++i) {
    futures.push_back(frontend.Submit(Req(i % d.num_users(), 5)));
  }
  frontend.Drain();
  for (auto& f : futures) f.get();
  FrontEndStats st = frontend.stats();
  ASSERT_EQ(st.brownout_entries, 1u);
  ASSERT_EQ(st.brownout_exits, 0u);
  EXPECT_EQ(st.brownout_us, 0u);  // an active span is not yet counted

  runtime::ThreadPool freeze_pool(2);
  frontend.PublishSnapshot(
      std::make_shared<const ModelSnapshot>(*model, freeze_pool));
  EXPECT_EQ(frontend.current_brownout_mode(), DegradeMode::kNone);
  st = frontend.stats();
  EXPECT_EQ(st.brownout_entries, 1u);
  EXPECT_EQ(st.brownout_exits, 1u);
  EXPECT_GT(st.brownout_us, 0u);

  // The next request is served exact and enters no brownout.
  const ServedResponse after = frontend.HandleSync(Req(3, 5));
  EXPECT_FALSE(after.degraded);
  frontend.Drain();
  st = frontend.stats();
  EXPECT_EQ(st.brownout_entries, 1u);
  EXPECT_EQ(st.brownout_exits, 1u);
  ExpectAccounting(st);
}

// ---------------------------------------------------------------------------
// Injected batch faults and error context.

TEST(Overload, InjectedBatchFaultCarriesSnapshotAndLaneContext) {
  const Dataset d = MediumDataset();
  const std::unique_ptr<MfModel> model = MakeModel(d, 12);
  FrontEndConfig cfg = Config();
  cfg.fault_injector = Inject({{FaultAction::Kind::kFail, 0, 1, 1, 0}});
  ServingFrontEnd frontend(d, *model, cfg);

  try {
    frontend.HandleSync(Req(1, 5, 0, RequestLane::kBulk));
    FAIL() << "the injected fault must fail the batch";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("snapshot seq 1"), std::string::npos) << what;
    EXPECT_NE(what.find("lane bulk"), std::string::npos) << what;
    EXPECT_NE(what.find("injected"), std::string::npos) << what;
  }
  // The fault was one batch wide: the next request is served normally.
  InferenceService sync(d, *model, Config().serve);
  ExpectSameResponse(frontend.HandleSync(Req(2, 5)).topk,
                     sync.Handle(Req(2, 5)), "post-fault request");
  frontend.Drain();
  ExpectAccounting(frontend.stats());
}

// ---------------------------------------------------------------------------
// Drain vs mid-batch publish (the satellite audit).

TEST(Overload, DrainObservesMidBatchPublisherAndFulfilledPromises) {
  const Dataset d = MediumDataset();
  runtime::ThreadPool freeze_pool(2);
  const std::unique_ptr<MfModel> gen1 = MakeModel(d, 40);
  const std::unique_ptr<MfModel> gen2 = MakeModel(d, 41);
  const auto snap1 = std::make_shared<const ModelSnapshot>(*gen1, freeze_pool);
  const auto snap2 = std::make_shared<const ModelSnapshot>(*gen2, freeze_pool);

  // Eight valid requests and one malformed one (user out of range) in
  // one batch that forms only when all nine are queued: max_batch is the
  // request count, and the flush deadline is far longer than the test.
  std::vector<TopKRequest> reqs;
  for (uint32_t u = 0; u < 8; ++u) reqs.push_back(Req(u, 5));
  reqs.push_back(Req(d.num_users(), 5));
  FrontEndConfig cfg = Config(/*max_batch=*/reqs.size(),
                              /*flush_us=*/60'000'000);
  // One slow batch (100ms) so the publish lands mid-batch.
  cfg.fault_injector = Inject({{FaultAction::Kind::kDelay, 0, 1, 1, 100000}});
  ServingFrontEnd frontend(d, snap1, cfg);

  std::vector<std::future<ServedResponse>> futures =
      frontend.SubmitBatch(reqs);
  std::future<ServedResponse> malformed = std::move(futures.back());
  futures.pop_back();
  // The dispatcher loads the batch's state before it validates the
  // requests, and validates before the injected delay. Once the
  // malformed request has failed, the batch holds generation 1 and is
  // inside its delay: publish now.
  EXPECT_THROW(malformed.get(), std::invalid_argument);
  EXPECT_EQ(frontend.PublishSnapshot(snap2), 2u);

  frontend.Drain();
  // The documented post-condition: every future from a Submit that
  // returned before Drain was entered is ready the moment Drain
  // returns — no grace sleep needed.
  for (size_t i = 0; i < futures.size(); ++i) {
    ASSERT_EQ(futures[i].wait_for(std::chrono::seconds(0)),
              std::future_status::ready)
        << "request " << i;
    const ServedResponse resp = futures[i].get();
    // The in-flight batch kept the generation it loaded: seq and
    // snapshot pointer must agree (no torn state).
    EXPECT_EQ(resp.snapshot_seq, 1u) << "request " << i;
    EXPECT_EQ(resp.snapshot, snap1) << "request " << i;
  }
  // Traffic after the publish serves the new generation (a full batch,
  // so it does not wait out the flush deadline).
  const std::vector<TopKRequest> after(reqs.size(), Req(0, 5));
  for (const ServedResponse& resp : frontend.HandleBatchSync(after)) {
    EXPECT_EQ(resp.snapshot_seq, 2u);
  }
}

}  // namespace
}  // namespace bslrec
