#include "sampling/negative_sampler.h"

#include <memory>
#include <vector>

#include "core/losses.h"
#include "data/synthetic.h"
#include "gtest/gtest.h"
#include "models/mf.h"
#include "runtime/thread_pool.h"
#include "test_util.h"
#include "train/trainer.h"

namespace bslrec {
namespace {

Dataset MediumDataset(uint64_t seed = 1) {
  SyntheticConfig c;
  c.num_users = 60;
  c.num_items = 100;
  c.avg_items_per_user = 15.0;
  c.seed = seed;
  return GenerateSynthetic(c).dataset;
}

TEST(UniformSampler, NeverReturnsTrainPositives) {
  const Dataset d = MediumDataset();
  UniformNegativeSampler sampler(d);
  Rng rng(2);
  std::vector<uint32_t> out;
  for (uint32_t u = 0; u < d.num_users(); ++u) {
    sampler.Sample(u, 50, rng, out);
    ASSERT_EQ(out.size(), 50u);
    for (uint32_t j : out) {
      EXPECT_LT(j, d.num_items());
      EXPECT_FALSE(d.IsTrainPositive(u, j));
    }
  }
}

TEST(UniformSampler, ClearsOutputVector) {
  const Dataset d = MediumDataset();
  UniformNegativeSampler sampler(d);
  Rng rng(3);
  std::vector<uint32_t> out = {999, 999};
  sampler.Sample(0, 5, rng, out);
  EXPECT_EQ(out.size(), 5u);
}

TEST(UniformSampler, CoversNegativeSpace) {
  const Dataset d = testing::TinyDataset();
  UniformNegativeSampler sampler(d);
  Rng rng(4);
  std::vector<uint32_t> out;
  std::vector<int> seen(d.num_items(), 0);
  sampler.Sample(0, 2000, rng, out);
  for (uint32_t j : out) ++seen[j];
  // User 0's train positives are {0, 1}; all other items should appear.
  EXPECT_EQ(seen[0], 0);
  EXPECT_EQ(seen[1], 0);
  for (uint32_t i = 2; i < 6; ++i) EXPECT_GT(seen[i], 0) << "item " << i;
}

TEST(PopularitySampler, PrefersPopularItems) {
  // Build a dataset where item 0 is hugely popular.
  std::vector<Edge> train;
  for (uint32_t u = 1; u < 50; ++u) train.push_back({u, 0});
  for (uint32_t u = 0; u < 50; ++u) train.push_back({u, 1 + u % 9});
  const Dataset d(50, 10, std::move(train), {});
  PopularityNegativeSampler sampler(d, /*beta=*/1.0);
  Rng rng(5);
  std::vector<uint32_t> out;
  std::vector<int> counts(10, 0);
  // User 0 never interacted with item 0, so it is a valid negative.
  for (int r = 0; r < 200; ++r) {
    sampler.Sample(0, 10, rng, out);
    for (uint32_t j : out) ++counts[j];
  }
  int max_other = 0;
  for (uint32_t i = 2; i < 10; ++i) max_other = std::max(max_other, counts[i]);
  EXPECT_GT(counts[0], 3 * max_other);
}

TEST(PopularitySampler, StillExcludesPositives) {
  const Dataset d = MediumDataset();
  PopularityNegativeSampler sampler(d, 0.75);
  Rng rng(6);
  std::vector<uint32_t> out;
  for (uint32_t u = 0; u < d.num_users(); ++u) {
    sampler.Sample(u, 30, rng, out);
    for (uint32_t j : out) EXPECT_FALSE(d.IsTrainPositive(u, j));
  }
}

TEST(NoisySampler, ZeroNoiseMatchesUniformBehavior) {
  const Dataset d = MediumDataset();
  NoisyNegativeSampler sampler(d, 0.0);
  Rng rng(7);
  std::vector<uint32_t> out;
  for (uint32_t u = 0; u < d.num_users(); ++u) {
    sampler.Sample(u, 40, rng, out);
    for (uint32_t j : out) EXPECT_FALSE(d.IsTrainPositive(u, j));
  }
}

class NoisySamplerRateSweep : public ::testing::TestWithParam<double> {};

TEST_P(NoisySamplerRateSweep, FalseNegativeRateMatchesOdds) {
  const double r_noise = GetParam();
  const Dataset d = MediumDataset(9);
  NoisyNegativeSampler sampler(d, r_noise);
  Rng rng(8);
  std::vector<uint32_t> out;
  size_t positives = 0, total = 0;
  double expected_rate_sum = 0.0;
  size_t users = 0;
  for (uint32_t u = 0; u < d.num_users(); ++u) {
    const double n_pos = static_cast<double>(d.TrainItems(u).size());
    const double n_neg = static_cast<double>(d.num_items()) - n_pos;
    expected_rate_sum += r_noise * n_pos / (r_noise * n_pos + n_neg);
    ++users;
    sampler.Sample(u, 400, rng, out);
    for (uint32_t j : out) {
      ++total;
      if (d.IsTrainPositive(u, j)) ++positives;
    }
  }
  const double observed = static_cast<double>(positives) / total;
  const double expected = expected_rate_sum / users;
  EXPECT_NEAR(observed, expected, 0.02) << "r_noise=" << r_noise;
}

INSTANTIATE_TEST_SUITE_P(Rates, NoisySamplerRateSweep,
                         ::testing::Values(0.5, 1.0, 3.0, 5.0, 10.0));

TEST(NoisySampler, HigherOddsMoreFalseNegatives) {
  const Dataset d = MediumDataset(10);
  Rng rng(11);
  std::vector<uint32_t> out;
  const auto rate = [&](double r) {
    NoisyNegativeSampler sampler(d, r);
    Rng local(12);
    size_t pos = 0, total = 0;
    for (uint32_t u = 0; u < d.num_users(); ++u) {
      sampler.Sample(u, 200, local, out);
      for (uint32_t j : out) {
        ++total;
        if (d.IsTrainPositive(u, j)) ++pos;
      }
    }
    return static_cast<double>(pos) / total;
  };
  EXPECT_LT(rate(0.5), rate(3.0));
  EXPECT_LT(rate(3.0), rate(10.0));
}

// ---- counter-based stream sampling ----

// Draws n_neg negatives for every sample index in [0, num_samples) over
// `threads` workers, the exact pattern the trainer uses: one StreamRng
// per sample keyed by its index, drawn inside fixed-grain shards.
std::vector<uint32_t> DrawAllStream(const NegativeSampler& sampler,
                                    const Dataset& d, size_t num_samples,
                                    size_t n_neg, size_t threads,
                                    uint64_t seed = 77, uint64_t epoch = 3) {
  runtime::ThreadPool pool(threads);
  const SamplerDispatch sample = sampler.Dispatch();
  std::vector<uint32_t> all(num_samples * n_neg);
  runtime::ParallelFor(
      pool, 0, num_samples, 16,
      [&](size_t lo, size_t hi, size_t /*shard*/, size_t /*worker*/) {
        for (size_t s = lo; s < hi; ++s) {
          StreamRng stream(seed, epoch, s);
          sample(static_cast<uint32_t>(s % d.num_users()), stream,
                 {all.data() + s * n_neg, n_neg});
        }
      });
  return all;
}

std::vector<std::unique_ptr<NegativeSampler>> AllSamplers(const Dataset& d) {
  std::vector<std::unique_ptr<NegativeSampler>> samplers;
  samplers.push_back(std::make_unique<UniformNegativeSampler>(d));
  samplers.push_back(std::make_unique<PopularityNegativeSampler>(d, 0.75));
  samplers.push_back(std::make_unique<NoisyNegativeSampler>(d, 2.0));
  return samplers;
}

TEST(StreamSampling, BitIdenticalAcrossWorkerCounts) {
  const Dataset d = MediumDataset(21);
  for (const auto& sampler : AllSamplers(d)) {
    const auto at1 = DrawAllStream(*sampler, d, 300, 24, 1);
    const auto at2 = DrawAllStream(*sampler, d, 300, 24, 2);
    const auto at8 = DrawAllStream(*sampler, d, 300, 24, 8);
    EXPECT_EQ(at1, at2);
    EXPECT_EQ(at1, at8);
  }
}

TEST(StreamSampling, SampleStreamMatchesDispatch) {
  // The virtual convenience entry point and the devirtualized handle
  // must be the same function.
  const Dataset d = MediumDataset(22);
  for (const auto& sampler : AllSamplers(d)) {
    std::vector<uint32_t> via_virtual(16), via_dispatch(16);
    StreamRng s1(5, 1, 9), s2(5, 1, 9);
    sampler->SampleStream(3, s1, via_virtual);
    sampler->Dispatch()(3, s2, {via_dispatch.data(), via_dispatch.size()});
    EXPECT_EQ(via_virtual, via_dispatch);
  }
}

TEST(StreamSampling, TrueNegativeSamplersStillExcludePositives) {
  const Dataset d = MediumDataset(23);
  const UniformNegativeSampler uniform(d);
  const PopularityNegativeSampler popularity(d, 1.0);
  for (const NegativeSampler* sampler :
       {static_cast<const NegativeSampler*>(&uniform),
        static_cast<const NegativeSampler*>(&popularity)}) {
    const auto all = DrawAllStream(*sampler, d, 240, 32, 4);
    for (size_t s = 0; s < 240; ++s) {
      const uint32_t u = static_cast<uint32_t>(s % d.num_users());
      for (size_t j = 0; j < 32; ++j) {
        const uint32_t i = all[s * 32 + j];
        EXPECT_LT(i, d.num_items());
        EXPECT_FALSE(d.IsTrainPositive(u, i));
      }
    }
  }
}

TEST(StreamSampling, DrawsUniformAcrossSampleIndices) {
  // Chi-square-style uniformity over a small catalog, pooling draws from
  // many *distinct* per-sample streams for one user: if streams for
  // adjacent sample indices were correlated, bucket counts would skew.
  const Dataset d = testing::TinyDataset();  // user 0 positives: {0, 1}
  const UniformNegativeSampler sampler(d);
  const SamplerDispatch sample = sampler.Dispatch();
  std::vector<int> counts(d.num_items(), 0);
  constexpr size_t kStreams = 30000;
  constexpr size_t kPerStream = 2;
  std::vector<uint32_t> buf(kPerStream);
  for (size_t s = 0; s < kStreams; ++s) {
    StreamRng stream(99, 0, s);
    sample(0, stream, {buf.data(), buf.size()});
    for (uint32_t i : buf) ++counts[i];
  }
  EXPECT_EQ(counts[0], 0);
  EXPECT_EQ(counts[1], 0);
  const double draws = static_cast<double>(kStreams * kPerStream);
  const double expected = draws / 4.0;  // 4 allowed items
  double chi2 = 0.0;
  for (uint32_t i = 2; i < d.num_items(); ++i) {
    const double diff = counts[i] - expected;
    chi2 += diff * diff / expected;
  }
  EXPECT_LT(chi2, 16.3);  // chi2(3) 99.9th percentile
}

// The uniform sampler's first draws from fixed streams, recorded when
// the membership test was a std::binary_search behind an out-of-line
// call. A change that moves the draws (a different stream, reduction or
// rejection rule) fails here even when every draw still excludes the
// user's positives. The dataset is a literal, not GenerateSynthetic, so
// the table does not depend on libm.
TEST(StreamSampling, UniformDrawsMatchGoldenList) {
  std::vector<Edge> train;
  for (uint32_t i : {1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u}) {
    train.push_back({0, i});
  }
  // User 1 has no train positives; user 2 has the first and last ids;
  // user 3 has every odd id.
  train.push_back({2, 0});
  train.push_back({2, 39});
  for (uint32_t i = 0; i < 20; ++i) train.push_back({3, 2 * i + 1});
  const Dataset d(4, 40, train, {});
  const UniformNegativeSampler sampler(d);
  struct Golden {
    uint64_t seed, epoch, index;
    uint32_t user;
    std::vector<uint32_t> draws;
  };
  const Golden golden[] = {
      {1, 0, 0, 0, {27, 38, 17, 32, 14, 33, 33, 11, 15, 20}},
      {1, 0, 0, 1, {27, 38, 17, 32, 14, 33, 33, 11, 5, 1}},
      {1, 0, 0, 2, {27, 38, 17, 32, 14, 33, 33, 11, 5, 1}},
      {1, 0, 0, 3, {38, 32, 14, 20, 0, 0, 8, 38, 32, 12}},
      {42, 3, 17, 0, {4, 19, 17, 24, 15, 18, 18, 20, 25, 23}},
      {42, 3, 17, 1, {4, 19, 17, 24, 15, 18, 18, 20, 25, 23}},
      {42, 3, 17, 2, {4, 19, 17, 24, 15, 18, 18, 20, 25, 23}},
      {42, 3, 17, 3, {4, 24, 18, 18, 20, 32, 22, 12, 8, 38}},
      {0xDEADBEEF, 7, 1023, 0, {4, 14, 10, 16, 36, 4, 16, 39, 26, 31}},
      {0xDEADBEEF, 7, 1023, 1, {4, 21, 3, 14, 10, 16, 36, 4, 16, 39}},
      {0xDEADBEEF, 7, 1023, 2, {4, 21, 3, 14, 10, 16, 36, 4, 16, 5}},
      {0xDEADBEEF, 7, 1023, 3, {4, 14, 10, 16, 36, 4, 16, 26, 6, 8}},
  };
  for (const Golden& g : golden) {
    StreamRng stream(g.seed, g.epoch, g.index);
    std::vector<uint32_t> out(g.draws.size());
    sampler.SampleStream(g.user, stream, out);
    EXPECT_EQ(out, g.draws) << "stream (" << g.seed << ", " << g.epoch
                            << ", " << g.index << "), user " << g.user;
  }
}

TEST(StreamSampling, LegacyApiDoesNotReallocateSteadyState) {
  const Dataset d = MediumDataset(24);
  Rng rng(9);
  for (const auto& sampler : AllSamplers(d)) {
    std::vector<uint32_t> out;
    sampler->Sample(0, 40, rng, out);  // first call sizes the buffer
    const uint32_t* data = out.data();
    const size_t cap = out.capacity();
    for (uint32_t u = 0; u < d.num_users(); ++u) {
      sampler->Sample(u, 40, rng, out);
      EXPECT_EQ(out.size(), 40u);
      EXPECT_EQ(out.data(), data);
      EXPECT_EQ(out.capacity(), cap);
    }
    // Smaller requests shrink the size but keep the capacity.
    sampler->Sample(0, 10, rng, out);
    EXPECT_EQ(out.size(), 10u);
    EXPECT_EQ(out.data(), data);
    EXPECT_EQ(out.capacity(), cap);
  }
}

TEST(StreamSampling, TrainingRunReproducesWhenOnlyThreadCountChanges) {
  // End-to-end: the whole training history must be bit-identical when
  // nothing but runtime.num_threads changes, for every sampler kind —
  // the invariance the counter-based streams guarantee by construction.
  const Dataset d = MediumDataset(25);
  const auto run = [&](const NegativeSampler& sampler, size_t threads) {
    Rng rng(6);
    MfModel model(d.num_users(), d.num_items(), 8, rng);
    SoftmaxLoss loss(0.2);
    TrainConfig cfg;
    cfg.epochs = 2;
    cfg.batch_size = 128;
    cfg.num_negatives = 8;
    cfg.eval_every = 1;
    cfg.seed = 31;
    cfg.runtime.num_threads = threads;
    Trainer trainer(d, model, loss, sampler, cfg);
    return trainer.Train();
  };
  for (const auto& sampler : AllSamplers(d)) {
    const TrainResult t1 = run(*sampler, 1);
    const TrainResult t4 = run(*sampler, 4);
    ASSERT_EQ(t1.history.size(), t4.history.size());
    for (size_t k = 0; k < t1.history.size(); ++k) {
      EXPECT_EQ(t1.history[k].avg_loss, t4.history[k].avg_loss);
    }
    EXPECT_EQ(t1.best.ndcg, t4.best.ndcg);
    EXPECT_EQ(t1.best.recall, t4.best.recall);
  }
}

}  // namespace
}  // namespace bslrec
