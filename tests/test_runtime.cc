// Tests for the parallel execution runtime: thread-pool lifecycle,
// ParallelFor coverage, exception propagation, and the bit-identical
// results guarantee of the multi-threaded trainer and evaluator.
#include "runtime/thread_pool.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/losses.h"
#include "data/synthetic.h"
#include "graph/bipartite_graph.h"
#include "gtest/gtest.h"
#include "math/vec.h"
#include "models/lightgcn.h"
#include "models/mf.h"
#include "sampling/negative_sampler.h"
#include "test_util.h"
#include "train/optimizer.h"
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

TEST(ThreadPool, OneTaskJobRunsInlineOnTheCaller) {
  // A one-task job runs on the calling thread as worker 0, without
  // waking the pool, at any pool size; so does a ParallelFor whose
  // range fits in one grain.
  for (size_t n : {1u, 2u, 4u}) {
    ThreadPool pool(n);
    const std::thread::id caller = std::this_thread::get_id();
    std::thread::id ran_on;
    size_t ran_as = SIZE_MAX;
    pool.Run(1, [&](size_t task, size_t worker) {
      EXPECT_EQ(task, 0u);
      ran_on = std::this_thread::get_id();
      ran_as = worker;
    });
    EXPECT_EQ(ran_on, caller) << n << " workers";
    EXPECT_EQ(ran_as, 0u) << n << " workers";

    size_t calls = 0;
    ran_on = std::thread::id();
    ran_as = SIZE_MAX;
    ParallelFor(pool, 3, 19, 16,
                [&](size_t lo, size_t hi, size_t shard, size_t worker) {
                  ++calls;
                  EXPECT_EQ(lo, 3u);
                  EXPECT_EQ(hi, 19u);
                  EXPECT_EQ(shard, 0u);
                  ran_on = std::this_thread::get_id();
                  ran_as = worker;
                });
    EXPECT_EQ(calls, 1u);
    EXPECT_EQ(ran_on, caller) << n << " workers";
    EXPECT_EQ(ran_as, 0u) << n << " workers";
  }
}

TEST(ThreadPool, OneTaskJobRethrows) {
  for (size_t n : {1u, 4u}) {
    ThreadPool pool(n);
    EXPECT_THROW(pool.Run(1,
                          [](size_t, size_t) {
                            throw std::runtime_error("boom");
                          }),
                 std::runtime_error)
        << n << " workers";
    // The pool stays usable, for one task and for many.
    size_t one = 0;
    pool.Run(1, [&](size_t, size_t) { ++one; });
    EXPECT_EQ(one, 1u);
    std::atomic<size_t> many{0};
    pool.Run(8, [&](size_t, size_t) { many.fetch_add(1); });
    EXPECT_EQ(many.load(), 8u);
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
  EXPECT_GE(smallest, 3 * AdamOptimizer::kStepGrain);
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

// ---- row owners against the per-shard slot backend ----
//
// The trainer's gradient as it was computed before both sampling modes
// scored, then scattered through row owners: per-shard first-touch slots
// filled by vec::AccumulateCosineGrad, then a serial shard-order
// reduction into the gradient tables. In-batch mode (Algorithm 2) scores
// with per-pair vec::Dot over 16-sample shards; sampled mode (Algorithm
// 1) draws each sample's negatives in its shard from the counter-based
// stream (sampling_stream_seed, epoch, sample), scores them with
// vec::GatherNormalize and vec::DotBatch over 32-sample shards. The
// shards run serially here; their bits never depended on the worker.
// Sampled runs must pin `sampling_stream_seed` (nonzero).
class SlotBackendOracle {
 public:
  SlotBackendOracle(const Dataset& data, EmbeddingModel& model,
                    const LossFunction& loss, const NegativeSampler& sampler,
                    const TrainConfig& cfg)
      : data_(data),
        model_(model),
        loss_(loss),
        sampler_(sampler),
        cfg_(cfg),
        optimizer_(cfg.lr, cfg.weight_decay),
        rng_(cfg.seed) {}

  // Trainer::RunEpoch's loop: shuffle, then per batch Forward, ZeroGrad,
  // loss, aux, Backward and the Adam step. Returns the mean loss.
  double RunEpoch(uint64_t epoch) {
    std::vector<Edge> edges = data_.train_edges();
    rng_.Shuffle(edges);
    double loss_sum = 0.0;
    for (size_t begin = 0; begin < edges.size(); begin += cfg_.batch_size) {
      const size_t end = std::min(edges.size(), begin + cfg_.batch_size);
      model_.Forward(rng_);
      model_.ZeroGrad();
      loss_sum += cfg_.sampling_mode == SamplingMode::kInBatch
                      ? InBatchLoss(edges, begin, end)
                      : SampledLoss(edges, begin, end, epoch);
      std::vector<uint32_t> users, items;
      for (size_t s = begin; s < end; ++s) {
        users.push_back(edges[s].user);
        items.push_back(edges[s].item);
      }
      std::sort(users.begin(), users.end());
      users.erase(std::unique(users.begin(), users.end()), users.end());
      std::sort(items.begin(), items.end());
      items.erase(std::unique(items.begin(), items.end()), items.end());
      model_.AuxLossAndGrad(users, items, rng_);
      model_.Backward();
      optimizer_.Step(model_.Params());
    }
    return loss_sum / static_cast<double>(edges.size());
  }

 private:
  // One shard's sparse gradient rows in first-touch order.
  struct Slots {
    std::vector<uint32_t> rows;
    std::vector<float> vals;
    std::vector<int> slot_of;  // row -> slot, -1 when untouched
    float* Get(uint32_t row, size_t d) {
      if (slot_of[row] < 0) {
        slot_of[row] = static_cast<int>(rows.size());
        rows.push_back(row);
        vals.resize(vals.size() + d, 0.0f);
      }
      return vals.data() + static_cast<size_t>(slot_of[row]) * d;
    }
  };

  // Every shard's user and item slots, and its loss sum.
  struct ShardSlots {
    std::vector<Slots> users, items;
    std::vector<double> loss;
    void Begin(const Dataset& data) {
      users.emplace_back().slot_of.assign(data.num_users(), -1);
      items.emplace_back().slot_of.assign(data.num_items(), -1);
      loss.push_back(0.0);
    }
  };

  // Adds every shard's slots into the gradient tables in shard order;
  // returns the summed loss.
  double Reduce(const ShardSlots& shards) {
    const size_t d = model_.dim();
    double loss_sum = 0.0;
    for (size_t sh = 0; sh < shards.loss.size(); ++sh) {
      const Slots& us = shards.users[sh];
      const Slots& is = shards.items[sh];
      for (size_t r = 0; r < us.rows.size(); ++r) {
        vec::Axpy(1.0f, us.vals.data() + r * d, model_.UserGrad(us.rows[r]),
                  d);
      }
      for (size_t r = 0; r < is.rows.size(); ++r) {
        vec::Axpy(1.0f, is.vals.data() + r * d, model_.ItemGrad(is.rows[r]),
                  d);
      }
      loss_sum += shards.loss[sh];
    }
    return loss_sum;
  }

  double SampledLoss(const std::vector<Edge>& edges, size_t begin, size_t end,
                     uint64_t epoch) {
    const size_t d = model_.dim();
    const size_t n_neg = cfg_.num_negatives;
    const size_t b = end - begin;
    const float inv_batch = 1.0f / static_cast<float>(b);
    const SamplerDispatch sample = sampler_.Dispatch();
    const Matrix& item_table = model_.FinalItemMatrix();
    std::vector<float> u_hat(d), i_hat(d), j_norm(n_neg), neg_scores(n_neg),
        d_neg(n_neg);
    std::vector<uint32_t> negs(n_neg);
    Matrix j_hat(n_neg, d);
    ShardSlots shards;
    for (size_t lo = 0; lo < b; lo += 32) {
      shards.Begin(data_);
      Slots& us = shards.users.back();
      Slots& is = shards.items.back();
      for (size_t s = lo; s < std::min(b, lo + 32); ++s) {
        const uint32_t u = edges[begin + s].user;
        const uint32_t i = edges[begin + s].item;
        StreamRng stream(cfg_.sampling_stream_seed, epoch, begin + s);
        sample(u, stream, negs);
        const float u_norm = vec::Normalize(model_.UserEmb(u), u_hat.data(), d);
        const float i_norm = vec::Normalize(model_.ItemEmb(i), i_hat.data(), d);
        const float pos_score = vec::Dot(u_hat.data(), i_hat.data(), d);
        vec::GatherNormalize(item_table.data(), item_table.cols(), negs.data(),
                             n_neg, d, j_hat.data(), j_norm.data());
        vec::DotBatch(u_hat.data(), j_hat.data(), n_neg, d, neg_scores.data());
        float d_pos = 0.0f;
        shards.loss.back() +=
            loss_.Compute(pos_score, neg_scores, &d_pos, d_neg);
        const float d_pos_scaled = d_pos * inv_batch;
        vec::AccumulateCosineGrad(u_hat.data(), i_hat.data(), pos_score, u_norm,
                                  d_pos_scaled, us.Get(u, d), d);
        vec::AccumulateCosineGrad(i_hat.data(), u_hat.data(), pos_score, i_norm,
                                  d_pos_scaled, is.Get(i, d), d);
        for (size_t j = 0; j < n_neg; ++j) {
          const float g = d_neg[j] * inv_batch;
          if (g == 0.0f) continue;
          vec::AccumulateCosineGrad(u_hat.data(), j_hat.Row(j), neg_scores[j],
                                    u_norm, g, us.Get(u, d), d);
          vec::AccumulateCosineGrad(j_hat.Row(j), u_hat.data(), neg_scores[j],
                                    j_norm[j], g, is.Get(negs[j], d), d);
        }
      }
    }
    return Reduce(shards);
  }

  double InBatchLoss(const std::vector<Edge>& edges, size_t begin,
                     size_t end) {
    const size_t d = model_.dim();
    const size_t b = end - begin;
    if (b < 2) return 0.0;
    const float inv_batch = 1.0f / static_cast<float>(b);
    Matrix u_hat(b, d), i_hat(b, d);
    std::vector<float> u_norm(b), i_norm(b), logq_shift(b, 0.0f);
    for (size_t s = 0; s < b; ++s) {
      const Edge& e = edges[begin + s];
      u_norm[s] = vec::Normalize(model_.UserEmb(e.user), u_hat.Row(s), d);
      i_norm[s] = vec::Normalize(model_.ItemEmb(e.item), i_hat.Row(s), d);
    }
    if (cfg_.inbatch_logq_tau > 0.0) {
      const double total =
          static_cast<double>(data_.num_train()) + data_.num_items();
      for (size_t t = 0; t < b; ++t) {
        const double pop = data_.item_popularity()[edges[begin + t].item];
        const double q = (pop + 1.0) / total;
        logq_shift[t] = static_cast<float>(cfg_.inbatch_logq_tau * std::log(q));
      }
    }
    ShardSlots shards;
    std::vector<float> neg_scores(b - 1), d_neg(b - 1);
    for (size_t lo = 0; lo < b; lo += 16) {
      const size_t hi = std::min(b, lo + 16);
      shards.Begin(data_);
      Slots& us = shards.users.back();
      Slots& is = shards.items.back();
      for (size_t s = lo; s < hi; ++s) {
        const uint32_t u = edges[begin + s].user;
        const uint32_t i = edges[begin + s].item;
        const float pos_score = vec::Dot(u_hat.Row(s), i_hat.Row(s), d);
        size_t idx = 0;
        for (size_t t = 0; t < b; ++t) {
          if (t == s) continue;
          neg_scores[idx++] =
              vec::Dot(u_hat.Row(s), i_hat.Row(t), d) - logq_shift[t];
        }
        float d_pos = 0.0f;
        shards.loss.back() +=
            loss_.Compute(pos_score, neg_scores, &d_pos, d_neg);
        const float d_pos_scaled = d_pos * inv_batch;
        vec::AccumulateCosineGrad(u_hat.Row(s), i_hat.Row(s), pos_score,
                                  u_norm[s], d_pos_scaled, us.Get(u, d), d);
        vec::AccumulateCosineGrad(i_hat.Row(s), u_hat.Row(s), pos_score,
                                  i_norm[s], d_pos_scaled, is.Get(i, d), d);
        idx = 0;
        for (size_t t = 0; t < b; ++t) {
          if (t == s) continue;
          const float g = d_neg[idx] * inv_batch;
          const float score = neg_scores[idx] + logq_shift[t];
          ++idx;
          if (g == 0.0f) continue;
          vec::AccumulateCosineGrad(u_hat.Row(s), i_hat.Row(t), score,
                                    u_norm[s], g, us.Get(u, d), d);
          vec::AccumulateCosineGrad(i_hat.Row(t), u_hat.Row(s), score,
                                    i_norm[t], g,
                                    is.Get(edges[begin + t].item, d), d);
        }
      }
    }
    return Reduce(shards);
  }

  const Dataset& data_;
  EmbeddingModel& model_;
  const LossFunction& loss_;
  const NegativeSampler& sampler_;
  TrainConfig cfg_;
  AdamOptimizer optimizer_;
  Rng rng_;
};

// Random train/test edges in which users (few users) or items (few
// items) repeat inside every 16-sample shard.
Dataset RepeatingCatalog(uint32_t num_users, uint32_t num_items,
                         size_t train_per_user, uint64_t seed) {
  Rng rng(seed);
  std::vector<Edge> train, test;
  for (uint32_t u = 0; u < num_users; ++u) {
    const std::vector<uint32_t> items = rng.SampleWithoutReplacement(
        num_items, static_cast<uint32_t>(train_per_user + 1));
    for (size_t k = 0; k < train_per_user; ++k) train.push_back({u, items[k]});
    test.push_back({u, items[train_per_user]});
  }
  return Dataset(num_users, num_items, std::move(train), std::move(test));
}

bool SameParamBits(EmbeddingModel& a, EmbeddingModel& b) {
  const std::vector<ParamGrad> pa = a.Params(), pb = b.Params();
  if (pa.size() != pb.size()) return false;
  for (size_t k = 0; k < pa.size(); ++k) {
    const Matrix& x = *pa[k].value;
    const Matrix& y = *pb[k].value;
    if (x.size() != y.size()) return false;
    for (size_t e = 0; e < x.size(); ++e) {
      if (std::bit_cast<uint32_t>(x.data()[e]) !=
          std::bit_cast<uint32_t>(y.data()[e])) {
        return false;
      }
    }
  }
  return true;
}

// Trains one model with the oracle and one per thread count (1, 2, 8)
// with the trainer, each from make_model(): per-epoch losses and final
// parameters must agree bit for bit.
template <typename MakeModel>
void ExpectTrainerMatchesOracle(const Dataset& data,
                                const MakeModel& make_model,
                                const LossFunction& loss,
                                const NegativeSampler& sampler, TrainConfig cfg,
                                const std::string& where) {
  const std::unique_ptr<EmbeddingModel> oracle_model = make_model();
  SlotBackendOracle oracle(data, *oracle_model, loss, sampler, cfg);
  std::vector<double> oracle_losses;
  for (int e = 0; e < cfg.epochs; ++e) {
    oracle_losses.push_back(oracle.RunEpoch(e + 1));
  }
  for (const size_t threads : {1u, 2u, 8u}) {
    cfg.runtime.num_threads = threads;
    const std::unique_ptr<EmbeddingModel> model = make_model();
    Trainer trainer(data, *model, loss, sampler, cfg);
    for (int e = 0; e < cfg.epochs; ++e) {
      const double got = trainer.RunEpoch(e + 1).avg_loss;
      EXPECT_EQ(std::bit_cast<uint64_t>(got),
                std::bit_cast<uint64_t>(oracle_losses[e]))
          << where << " threads=" << threads << " epoch " << e + 1;
    }
    EXPECT_TRUE(SameParamBits(*model, *oracle_model))
        << where << " threads=" << threads;
  }
}

TEST(InBatchRowOwners, TrainBitIdenticallyToPerShardSlotBackend) {
  // Every dim x batch cell runs once, and the 24 cells also walk every
  // (catalog, logQ, loss, backbone) combination once, so each value of
  // each axis meets several partners. Each run is compared at 1, 2 and
  // 8 threads: per-epoch losses and trained parameters, bit for bit.
  const Dataset few_users = RepeatingCatalog(20, 300, 30, 61);
  const Dataset few_items = RepeatingCatalog(300, 15, 2, 62);
  const BipartiteGraph few_users_graph(few_users);
  const BipartiteGraph few_items_graph(few_items);
  const BilateralSoftmaxLoss bsl(0.2, 0.25);
  const BprLoss bpr;
  const CmlLoss cml(0.5);
  const LossFunction* losses[] = {&bsl, &bpr, &cml};
  size_t cell = 0;
  for (const size_t dim : {1u, 7u, 17u, 64u}) {
    for (const size_t batch : {2u, 3u, 15u, 33u, 130u, 512u}) {
      const bool users_repeat = cell % 2 == 0;
      const bool logq = cell / 2 % 2 == 0;
      const LossFunction& loss = *losses[cell / 4 % 3];
      const bool lightgcn = cell / 12 % 2 == 1;
      ++cell;
      const Dataset& data = users_repeat ? few_users : few_items;
      const BipartiteGraph& graph =
          users_repeat ? few_users_graph : few_items_graph;
      const auto make_model = [&]() -> std::unique_ptr<EmbeddingModel> {
        Rng init(17);
        if (lightgcn) {
          return std::make_unique<LightGcnModel>(graph, dim, 2, init);
        }
        return std::make_unique<MfModel>(data.num_users(), data.num_items(),
                                         dim, init);
      };
      TrainConfig cfg;
      cfg.epochs = 2;
      cfg.batch_size = batch;
      cfg.sampling_mode = SamplingMode::kInBatch;
      cfg.inbatch_logq_tau = logq ? 0.25 : 0.0;
      cfg.seed = 5 + cell;
      const std::string where =
          "dim=" + std::to_string(dim) + " batch=" + std::to_string(batch) +
          (users_repeat ? " 20x300" : " 300x15") + (logq ? " logQ " : " ") +
          std::string(loss.name()) + (lightgcn ? " LightGCN" : " MF");

      const UniformNegativeSampler sampler(data);  // unused in this mode
      ExpectTrainerMatchesOracle(data, make_model, loss, sampler, cfg, where);
    }
  }
}

TEST(SampledRowOwners, TrainBitIdenticallyToPerShardSlotBackend) {
  // Every dim x batch cell runs once. The other axes cycle with periods
  // 2, 3, 9, 12 and 4 over the 28 cells, so every pair of values of two
  // of them (catalog, N-, sampler, loss, backbone) meets at least once.
  // LightGCN re-propagates the whole graph every batch, so it leaves the
  // 1- and 2-sample batches (hundreds of batches an epoch) to MF: they
  // would take most of this test's time under ThreadSanitizer, and the
  // gradient path does not depend on the backbone. The noisy sampler
  // serves positives as negatives, so a sample's own positive and
  // repeated draws appear among its terms; CML gives zero coefficients,
  // also on positives. Each run is compared at 1, 2 and 8 threads:
  // per-epoch losses and trained parameters, bit for bit.
  const Dataset few_users = RepeatingCatalog(20, 300, 30, 61);
  const Dataset few_items = RepeatingCatalog(300, 15, 2, 62);
  const BipartiteGraph few_users_graph(few_users);
  const BipartiteGraph few_items_graph(few_items);
  const BilateralSoftmaxLoss bsl(0.2, 0.25);
  const BprLoss bpr;
  const CmlLoss cml(0.5);
  const LossFunction* losses[] = {&bsl, &bpr, &cml};
  const char* sampler_names[] = {"uniform", "popularity", "noisy"};
  size_t cell = 0;
  for (const size_t dim : {1u, 7u, 17u, 64u}) {
    for (const size_t batch : {1u, 2u, 31u, 32u, 33u, 130u, 512u}) {
      const bool users_repeat = cell % 2 == 0;
      const size_t n_neg = std::array<size_t, 3>{1, 3, 64}[cell % 3];
      const size_t sampler_kind = cell / 3 % 3;
      const LossFunction& loss = *losses[cell / 4 % 3];
      const bool lightgcn = cell / 2 % 2 == 1 && batch > 2;
      ++cell;
      const Dataset& data = users_repeat ? few_users : few_items;
      const BipartiteGraph& graph =
          users_repeat ? few_users_graph : few_items_graph;
      const auto make_model = [&]() -> std::unique_ptr<EmbeddingModel> {
        Rng init(17);
        if (lightgcn) {
          return std::make_unique<LightGcnModel>(graph, dim, 2, init);
        }
        return std::make_unique<MfModel>(data.num_users(), data.num_items(),
                                         dim, init);
      };
      std::unique_ptr<NegativeSampler> sampler;
      if (sampler_kind == 0) {
        sampler = std::make_unique<UniformNegativeSampler>(data);
      } else if (sampler_kind == 1) {
        sampler = std::make_unique<PopularityNegativeSampler>(data, 0.75);
      } else {
        sampler = std::make_unique<NoisyNegativeSampler>(data, 2.0);
      }
      TrainConfig cfg;
      cfg.epochs = 2;
      cfg.batch_size = batch;
      cfg.num_negatives = n_neg;
      cfg.seed = 5 + cell;
      cfg.sampling_stream_seed = 1000 + cell;
      const std::string where =
          "dim=" + std::to_string(dim) + " batch=" + std::to_string(batch) +
          (users_repeat ? " 20x300" : " 300x15") + " N-=" +
          std::to_string(n_neg) + " " + sampler_names[sampler_kind] + " " +
          std::string(loss.name()) + (lightgcn ? " LightGCN" : " MF");
      ExpectTrainerMatchesOracle(data, make_model, loss, *sampler, cfg,
                                 where);
    }
  }
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
