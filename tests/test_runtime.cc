// Tests for the parallel execution runtime: thread-pool lifecycle,
// ParallelFor coverage, exception propagation, and the bit-identical
// results guarantee of the multi-threaded trainer and evaluator.
#include "runtime/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/losses.h"
#include "data/synthetic.h"
#include "gtest/gtest.h"
#include "models/mf.h"
#include "sampling/negative_sampler.h"
#include "test_util.h"
#include "train/trainer.h"

namespace bslrec {
namespace {

using runtime::ParallelFor;
using runtime::ResolveNumThreads;
using runtime::ThreadPool;

TEST(ThreadPool, ResolveNumThreads) {
  EXPECT_EQ(ResolveNumThreads(1), 1u);
  EXPECT_EQ(ResolveNumThreads(7), 7u);
  EXPECT_GE(ResolveNumThreads(0), 1u);  // hardware concurrency, >= 1
  // Absurd requests (e.g. -1 laundered through size_t) are clamped, not
  // handed to vector::reserve.
  EXPECT_EQ(ResolveNumThreads(SIZE_MAX), runtime::kMaxThreads);
}

TEST(ThreadPool, StartupAndShutdownWithoutWork) {
  for (size_t n : {1u, 2u, 8u}) {
    ThreadPool pool(n);
    EXPECT_EQ(pool.num_workers(), n);
  }
}

TEST(ThreadPool, RunExecutesEveryTaskExactlyOnce) {
  for (size_t n : {1u, 2u, 8u}) {
    ThreadPool pool(n);
    constexpr size_t kTasks = 1000;
    std::vector<std::atomic<int>> hits(kTasks);
    for (auto& h : hits) h.store(0);
    pool.Run(kTasks, [&](size_t task, size_t worker) {
      ASSERT_LT(task, kTasks);
      ASSERT_LT(worker, pool.num_workers());
      hits[task].fetch_add(1);
    });
    for (size_t t = 0; t < kTasks; ++t) {
      EXPECT_EQ(hits[t].load(), 1) << "task " << t << " @ " << n << " workers";
    }
  }
}

TEST(ThreadPool, RunWithZeroTasksIsANoOp) {
  ThreadPool pool(4);
  bool called = false;
  pool.Run(0, [&](size_t, size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, PoolIsReusableAcrossManyJobs) {
  ThreadPool pool(4);
  std::atomic<size_t> total{0};
  for (int round = 0; round < 50; ++round) {
    pool.Run(20, [&](size_t, size_t) { total.fetch_add(1); });
  }
  EXPECT_EQ(total.load(), 1000u);
}

TEST(ThreadPool, ExceptionPropagatesToCaller) {
  for (size_t n : {1u, 4u}) {
    ThreadPool pool(n);
    EXPECT_THROW(
        pool.Run(64,
                 [&](size_t task, size_t) {
                   if (task == 13) throw std::runtime_error("boom");
                 }),
        std::runtime_error)
        << n << " workers";
    // The pool must stay usable after an exception.
    std::atomic<size_t> ok{0};
    pool.Run(8, [&](size_t, size_t) { ok.fetch_add(1); });
    EXPECT_EQ(ok.load(), 8u);
  }
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  for (size_t n : {1u, 2u, 8u}) {
    for (size_t grain : {1u, 3u, 16u, 1000u}) {
      ThreadPool pool(n);
      constexpr size_t kBegin = 5, kEnd = 357;
      std::vector<std::atomic<int>> hits(kEnd);
      for (auto& h : hits) h.store(0);
      ParallelFor(pool, kBegin, kEnd, grain,
                  [&](size_t lo, size_t hi, size_t, size_t) {
                    for (size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
                  });
      for (size_t i = 0; i < kEnd; ++i) {
        EXPECT_EQ(hits[i].load(), i >= kBegin ? 1 : 0)
            << "index " << i << " grain " << grain << " workers " << n;
      }
    }
  }
}

TEST(ParallelFor, ShardBoundariesAreIndependentOfWorkerCount) {
  const auto shards_at = [](size_t workers) {
    ThreadPool pool(workers);
    std::mutex mu;
    std::set<std::pair<size_t, size_t>> shards;
    std::vector<size_t> shard_of_lo(100, SIZE_MAX);
    ParallelFor(pool, 10, 100, 7,
                [&](size_t lo, size_t hi, size_t shard, size_t) {
                  std::lock_guard<std::mutex> lk(mu);
                  shards.insert({lo, hi});
                  shard_of_lo[lo] = shard;
                });
    return std::make_pair(shards, shard_of_lo);
  };
  const auto [s1, ids1] = shards_at(1);
  const auto [s4, ids4] = shards_at(4);
  EXPECT_EQ(s1, s4);
  EXPECT_EQ(ids1, ids4);
  // Fixed grain 7 over [10, 100): 13 shards, last one short.
  EXPECT_EQ(s1.size(), 13u);
  EXPECT_TRUE(s1.count({10, 17}) == 1);
  EXPECT_TRUE(s1.count({94, 100}) == 1);
}

TEST(ParallelFor, EmptyRangeDoesNothing) {
  ThreadPool pool(2);
  bool called = false;
  ParallelFor(pool, 5, 5, 4, [&](size_t, size_t, size_t, size_t) {
    called = true;
  });
  EXPECT_FALSE(called);
}

// ---- bit-identical equivalence across thread counts ----

SyntheticData EquivData(uint64_t seed = 31) {
  SyntheticConfig c;
  c.num_users = 150;
  c.num_items = 120;
  c.num_clusters = 6;
  c.avg_items_per_user = 12.0;
  c.seed = seed;
  return GenerateSynthetic(c);
}

// What the equivalence runs vary; everything else is fixed.
struct EquivRun {
  size_t dim = 16;
  int epochs = 3;
  int eval_every = 1;
  bool use_adam = true;
};

TrainResult TrainAtThreads(const Dataset& data, size_t num_threads,
                           SamplingMode mode, const EquivRun& run = {}) {
  Rng rng(7);
  MfModel model(data.num_users(), data.num_items(), run.dim, rng);
  BilateralSoftmaxLoss loss(0.2, 0.25);
  UniformNegativeSampler sampler(data);
  TrainConfig cfg;
  cfg.epochs = run.epochs;
  cfg.batch_size = 128;
  cfg.num_negatives = 16;
  cfg.eval_every = run.eval_every;
  cfg.seed = 99;
  cfg.sampling_mode = mode;
  cfg.use_adam = run.use_adam;
  cfg.runtime.num_threads = num_threads;
  Trainer trainer(data, model, loss, sampler, cfg);
  return trainer.Train();
}

void ExpectBitIdentical(const TrainResult& a, const TrainResult& b) {
  // Exact equality on purpose: the runtime's contract is bit-identical
  // results for any worker count, not merely close ones.
  EXPECT_EQ(a.best.recall, b.best.recall);
  EXPECT_EQ(a.best.ndcg, b.best.ndcg);
  EXPECT_EQ(a.best.precision, b.best.precision);
  EXPECT_EQ(a.best.hit_rate, b.best.hit_rate);
  EXPECT_EQ(a.best_epoch, b.best_epoch);
  ASSERT_EQ(a.history.size(), b.history.size());
  for (size_t k = 0; k < a.history.size(); ++k) {
    EXPECT_EQ(a.history[k].avg_loss, b.history[k].avg_loss) << "epoch " << k;
    EXPECT_EQ(a.history[k].avg_aux_loss, b.history[k].avg_aux_loss);
  }
}

TEST(RuntimeEquivalence, SampledTrainingIsThreadCountInvariant) {
  const SyntheticData data = EquivData();
  const TrainResult t1 =
      TrainAtThreads(data.dataset, 1, SamplingMode::kSampledNegatives);
  const TrainResult t2 =
      TrainAtThreads(data.dataset, 2, SamplingMode::kSampledNegatives);
  const TrainResult t8 =
      TrainAtThreads(data.dataset, 8, SamplingMode::kSampledNegatives);
  ExpectBitIdentical(t1, t2);
  ExpectBitIdentical(t1, t8);
}

TEST(RuntimeEquivalence, InBatchTrainingIsThreadCountInvariant) {
  const SyntheticData data = EquivData(33);
  const TrainResult t1 =
      TrainAtThreads(data.dataset, 1, SamplingMode::kInBatch);
  const TrainResult t2 =
      TrainAtThreads(data.dataset, 2, SamplingMode::kInBatch);
  const TrainResult t8 =
      TrainAtThreads(data.dataset, 8, SamplingMode::kInBatch);
  ExpectBitIdentical(t1, t2);
  ExpectBitIdentical(t1, t8);
}

// The shapes above give tables of at most 2.4k elements, inside one
// optimizer shard, so they never step a tensor in parallel. This one
// spans at least three shards per table (two epochs and one eval keep
// it affordable under ThreadSanitizer).
constexpr EquivRun kShardedRun{.dim = 64, .epochs = 2, .eval_every = 2};

SyntheticData ShardedEquivData(uint64_t seed) {
  SyntheticConfig c;
  c.num_users = 800;
  c.num_items = 780;
  c.num_clusters = 8;
  c.avg_items_per_user = 5.0;
  c.seed = seed;
  SyntheticData data = GenerateSynthetic(c);
  const size_t smallest = std::min(data.dataset.num_users(),
                                   data.dataset.num_items()) *
                          kShardedRun.dim;
  EXPECT_GE(smallest, 3 * Optimizer::kStepGrain);
  return data;
}

TEST(RuntimeEquivalence, ShardedOptimizerStepIsThreadCountInvariant) {
  const SyntheticData data = ShardedEquivData(37);
  for (const SamplingMode mode :
       {SamplingMode::kSampledNegatives, SamplingMode::kInBatch}) {
    const TrainResult t1 = TrainAtThreads(data.dataset, 1, mode, kShardedRun);
    const TrainResult t2 = TrainAtThreads(data.dataset, 2, mode, kShardedRun);
    const TrainResult t8 = TrainAtThreads(data.dataset, 8, mode, kShardedRun);
    ExpectBitIdentical(t1, t2);
    ExpectBitIdentical(t1, t8);
  }
}

TEST(RuntimeEquivalence, SgdTrainingIsThreadCountInvariant) {
  const SyntheticData data = ShardedEquivData(39);
  EquivRun sgd = kShardedRun;
  sgd.use_adam = false;
  const TrainResult t1 =
      TrainAtThreads(data.dataset, 1, SamplingMode::kSampledNegatives, sgd);
  const TrainResult t2 =
      TrainAtThreads(data.dataset, 2, SamplingMode::kSampledNegatives, sgd);
  const TrainResult t8 =
      TrainAtThreads(data.dataset, 8, SamplingMode::kSampledNegatives, sgd);
  ExpectBitIdentical(t1, t2);
  ExpectBitIdentical(t1, t8);
  // SGD actually trained: the loss moved.
  EXPECT_NE(t1.history.front().avg_loss, t1.history.back().avg_loss);
}

TEST(RuntimeEquivalence, EvaluatorIsThreadCountInvariant) {
  const SyntheticData data = EquivData(35);
  Rng rng(9);
  MfModel model(data.dataset.num_users(), data.dataset.num_items(), 16, rng);
  model.Forward(rng);

  const Evaluator e1(data.dataset, 20, runtime::RuntimeConfig{1});
  const Evaluator e2(data.dataset, 20, runtime::RuntimeConfig{2});
  const Evaluator e8(data.dataset, 20, runtime::RuntimeConfig{8});

  const TopKMetrics m1 = e1.Evaluate(model);
  const TopKMetrics m2 = e2.Evaluate(model);
  const TopKMetrics m8 = e8.Evaluate(model);
  EXPECT_EQ(m1.recall, m2.recall);
  EXPECT_EQ(m1.ndcg, m2.ndcg);
  EXPECT_EQ(m1.precision, m2.precision);
  EXPECT_EQ(m1.hit_rate, m2.hit_rate);
  EXPECT_EQ(m1.num_users, m2.num_users);
  EXPECT_EQ(m1.recall, m8.recall);
  EXPECT_EQ(m1.ndcg, m8.ndcg);

  EXPECT_EQ(e1.GroupNdcg(model, 5), e2.GroupNdcg(model, 5));
  EXPECT_EQ(e1.GroupNdcg(model, 5), e8.GroupNdcg(model, 5));
  EXPECT_EQ(e1.ItemExposure(model), e2.ItemExposure(model));
  EXPECT_EQ(e1.ItemExposure(model), e8.ItemExposure(model));
}

TEST(RuntimeEquivalence, PassSharesItemTableAcrossQueries) {
  // A pass must agree with the single-shot wrappers (same item table,
  // same buffers) — and its GroupNdcg decomposition must still sum to
  // the overall NDCG.
  const Dataset d = testing::TinyDataset();
  Rng rng(11);
  MfModel model(d.num_users(), d.num_items(), 8, rng);
  model.Forward(rng);
  const Evaluator eval(d, 4, runtime::RuntimeConfig{2});
  Evaluator::Pass pass = eval.BeginPass(model);
  const TopKMetrics via_pass = pass.Evaluate();
  const TopKMetrics via_wrapper = eval.Evaluate(model);
  EXPECT_EQ(via_pass.ndcg, via_wrapper.ndcg);
  EXPECT_EQ(via_pass.recall, via_wrapper.recall);
  const auto groups = pass.GroupNdcg(3);
  double total = 0.0;
  for (double g : groups) total += g;
  EXPECT_NEAR(total, via_pass.ndcg, 1e-9);
  EXPECT_EQ(pass.ItemExposure(), eval.ItemExposure(model));
  EXPECT_EQ(pass.TopKForUser(0), eval.TopKForUser(model, 0));
}

}  // namespace
}  // namespace bslrec
