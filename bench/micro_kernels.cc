// Google-benchmark microbenchmarks for the hot kernels: loss
// forward+backward per sample, negative sampling, cosine scoring, graph
// propagation, the evaluator and its top-k block kernel. These guard the
// throughput the experiment harnesses depend on.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/dro.h"
#include "core/losses.h"
#include "data/synthetic.h"
#include "eval/evaluator.h"
#include "graph/bipartite_graph.h"
#include "math/rng.h"
#include "math/vec.h"
#include "models/lightgcn.h"
#include "models/mf.h"
#include "runtime/thread_pool.h"
#include "sampling/negative_sampler.h"
#include "serve/model_snapshot.h"
#include "serve/topk_scorer.h"

namespace {

using namespace bslrec;  // NOLINT: bench-local convenience

std::vector<float> MakeScores(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> s(n);
  for (auto& x : s) x = 2.0f * static_cast<float>(rng.NextDouble()) - 1.0f;
  return s;
}

void BM_LossCompute(benchmark::State& state, LossKind kind) {
  const size_t n = static_cast<size_t>(state.range(0));
  LossParams params;
  params.tau = 0.12;
  params.tau1 = 0.15;
  const auto loss = CreateLoss(kind, params);
  const auto negs = MakeScores(n, 1);
  std::vector<float> d_neg(n);
  float d_pos = 0.0f;
  for (auto _ : state) {
    const double l = loss->Compute(0.4f, negs, &d_pos, d_neg);
    benchmark::DoNotOptimize(l);
    benchmark::DoNotOptimize(d_neg.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}

void RegisterLossBenchmarks() {
  const std::pair<const char*, LossKind> kinds[] = {
      {"BPR", LossKind::kBpr},     {"BCE", LossKind::kBce},
      {"MSE", LossKind::kMse},     {"SL", LossKind::kSoftmax},
      {"BSL", LossKind::kBsl},     {"CCL", LossKind::kCcl},
  };
  for (const auto& [name, kind] : kinds) {
    const std::string bench_name = std::string("BM_Loss/") + name;
    benchmark::RegisterBenchmark(bench_name.c_str(),
                                 [kind](benchmark::State& st) {
                                   BM_LossCompute(st, kind);
                                 })
        ->Arg(32)
        ->Arg(256);
  }
}

// The samplers' draws, made the way Trainer::SampledShard makes them:
// the dispatch handle bound once, then one StreamRng per sample keyed
// by the sample's index, filling state.range(0) negatives.
const Dataset& SamplerData() {
  static const Dataset data = [] {
    SyntheticConfig cfg;
    cfg.num_users = 300;
    cfg.num_items = 250;
    cfg.seed = 2;
    return GenerateSynthetic(cfg).dataset;
  }();
  return data;
}

void RunStreamDraws(benchmark::State& state, const NegativeSampler& sampler) {
  const uint32_t num_users = SamplerData().num_users();
  const SamplerDispatch draw = sampler.Dispatch();
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<uint32_t> out(n);
  uint64_t s = 0;
  for (auto _ : state) {
    StreamRng stream(0xBE7C5EEDULL, /*epoch=*/1, s);
    draw(static_cast<uint32_t>(s % num_users), stream, {out.data(), n});
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
    ++s;
  }
  state.SetItemsProcessed(state.iterations() * n);
}

void BM_UniformSampler(benchmark::State& state) {
  const UniformNegativeSampler sampler(SamplerData());
  RunStreamDraws(state, sampler);
}
BENCHMARK(BM_UniformSampler)->Arg(32)->Arg(256);

void BM_PopularitySampler(benchmark::State& state) {
  const PopularityNegativeSampler sampler(SamplerData(), 0.75);
  RunStreamDraws(state, sampler);
}
BENCHMARK(BM_PopularitySampler)->Arg(32)->Arg(256);

void BM_NoisySampler(benchmark::State& state) {
  const NoisyNegativeSampler sampler(SamplerData(), 5.0);
  RunStreamDraws(state, sampler);
}
BENCHMARK(BM_NoisySampler)->Arg(64);

// Naive scalar references for the blocked vec kernels: the pre-blocking
// single-accumulator forms, kept here so BM_Dot/blocked vs BM_Dot/naive
// (etc.) quantifies what the unrolled multi-accumulator loops buy.
namespace naive {

float Dot(const float* a, const float* b, size_t n) {
  double acc = 0.0;
  for (size_t k = 0; k < n; ++k) acc += static_cast<double>(a[k]) * b[k];
  return static_cast<float>(acc);
}

void Axpy(float alpha, const float* x, float* y, size_t n) {
  for (size_t k = 0; k < n; ++k) y[k] += alpha * x[k];
}

float Normalize(const float* x, float* out, size_t n, float eps = 1e-12f) {
  const float norm = std::sqrt(std::max(0.0f, Dot(x, x, n)));
  const float inv = 1.0f / std::max(norm, eps);
  for (size_t k = 0; k < n; ++k) out[k] = x[k] * inv;
  return norm;
}

double LogSumExp(const float* x, size_t n) {
  float max_x = x[0];
  for (size_t k = 1; k < n; ++k) max_x = std::max(max_x, x[k]);
  double acc = 0.0;
  for (size_t k = 0; k < n; ++k) {
    acc += std::exp(static_cast<double>(x[k]) - max_x);
  }
  return static_cast<double>(max_x) + std::log(acc);
}

}  // namespace naive

std::vector<float> GaussianVec(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.NextGaussian());
  return v;
}

// The vec tiers this host can run, so the tiered kernels' benchmarks
// report them side by side (BM_<kernel>/<tier>): every tier gives the
// same bits, so the names differ only in speed.
struct VecTier {
  const char* name;
  float (*dot)(const float*, const float*, size_t);
  void (*dot_rows)(const float*, const float*, size_t, const uint32_t*,
                   size_t, size_t, float*);
  void (*dot_tile)(const double*, size_t, const double*, size_t, size_t,
                   float*, size_t);
  void (*cosine_grad_run)(const float*, const float*, size_t,
                          const uint32_t*, const float*, const float*, size_t,
                          float*, size_t);
  void (*weighted_row_sum)(const float*, const uint32_t*, size_t,
                           const float*, size_t, float*, size_t);
  void (*adam_step)(const vec::AdamCoeffs&, const float*, float*, float*,
                    float*, size_t);
};

std::vector<VecTier> HostTiers() {
#if defined(__x86_64__)
  std::vector<VecTier> tiers = {
      {"sse2", vec::sse2::Dot, vec::sse2::DotRows, vec::sse2::DotTile,
       vec::sse2::AccumulateCosineGradRun, vec::sse2::WeightedRowSum,
       vec::sse2::AdamStep}};
  if (std::string(vec::SimdTier()) == "avx2") {
    tiers.push_back({"avx2", vec::avx2::Dot, vec::avx2::DotRows,
                     vec::avx2::DotTile, vec::avx2::AccumulateCosineGradRun,
                     vec::avx2::WeightedRowSum, vec::avx2::AdamStep});
  }
  return tiers;
#else
  return {{vec::SimdTier(), vec::Dot, vec::DotRows, vec::DotTile,
           vec::AccumulateCosineGradRun, vec::WeightedRowSum,
           vec::AdamStep}};
#endif
}

// Registers fn once per host tier as <name>/<tier>.
template <typename Fn>
std::vector<benchmark::internal::Benchmark*> RegisterPerTier(
    const std::string& name, Fn fn) {
  std::vector<benchmark::internal::Benchmark*> benches;
  for (const VecTier& tier : HostTiers()) {
    benches.push_back(benchmark::RegisterBenchmark(
        (name + "/" + tier.name).c_str(),
        [fn, tier](benchmark::State& st) { fn(st, tier); }));
  }
  return benches;
}

void BM_DotBlocked(benchmark::State& state, const VecTier& tier) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto a = GaussianVec(n, 11), b = GaussianVec(n, 12);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tier.dot(a.data(), b.data(), n));
  }
  state.SetItemsProcessed(state.iterations() * n);
}

void BM_DotNaive(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto a = GaussianVec(n, 11), b = GaussianVec(n, 12);
  for (auto _ : state) {
    benchmark::DoNotOptimize(naive::Dot(a.data(), b.data(), n));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_DotNaive)->Arg(16)->Arg(64)->Arg(256)->Arg(4096);

void BM_AxpyBlocked(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto x = GaussianVec(n, 13);
  auto y = GaussianVec(n, 14);
  for (auto _ : state) {
    vec::Axpy(0.25f, x.data(), y.data(), n);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_AxpyBlocked)->Arg(64)->Arg(4096);

void BM_AxpyNaive(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto x = GaussianVec(n, 13);
  auto y = GaussianVec(n, 14);
  for (auto _ : state) {
    naive::Axpy(0.25f, x.data(), y.data(), n);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_AxpyNaive)->Arg(64)->Arg(4096);

void BM_NormalizeBlocked(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto x = GaussianVec(n, 15);
  std::vector<float> out(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(vec::Normalize(x.data(), out.data(), n));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_NormalizeBlocked)->Arg(64)->Arg(4096);

void BM_NormalizeNaive(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto x = GaussianVec(n, 15);
  std::vector<float> out(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(naive::Normalize(x.data(), out.data(), n));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_NormalizeNaive)->Arg(64)->Arg(4096);

void BM_LogSumExpBlocked(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto x = MakeScores(n, 16);
  for (auto _ : state) {
    benchmark::DoNotOptimize(vec::LogSumExp(x.data(), n));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_LogSumExpBlocked)->Arg(64)->Arg(4096);

void BM_LogSumExpNaive(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto x = MakeScores(n, 16);
  for (auto _ : state) {
    benchmark::DoNotOptimize(naive::LogSumExp(x.data(), n));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_LogSumExpNaive)->Arg(64)->Arg(4096);

// DotBatch (paired rows, shared query loads) vs the per-row Dot loop it
// replaced in the trainer's negative-scoring path. Arg is the dim; the
// block is 64 rows, the default N-.
void BM_DotBatchBlocked(benchmark::State& state) {
  const size_t d = static_cast<size_t>(state.range(0));
  constexpr size_t kRows = 64;
  const auto q = GaussianVec(d, 21);
  const auto rows = GaussianVec(kRows * d, 22);
  std::vector<float> out(kRows);
  for (auto _ : state) {
    vec::DotBatch(q.data(), rows.data(), kRows, d, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * kRows * d);
}
BENCHMARK(BM_DotBatchBlocked)->Arg(16)->Arg(64)->Arg(256);

void BM_DotBatchPerRowLoop(benchmark::State& state) {
  const size_t d = static_cast<size_t>(state.range(0));
  constexpr size_t kRows = 64;
  const auto q = GaussianVec(d, 21);
  const auto rows = GaussianVec(kRows * d, 22);
  std::vector<float> out(kRows);
  for (auto _ : state) {
    for (size_t r = 0; r < kRows; ++r) {
      out[r] = vec::Dot(q.data(), rows.data() + r * d, d);
    }
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * kRows * d);
}
BENCHMARK(BM_DotBatchPerRowLoop)->Arg(16)->Arg(64)->Arg(256);

// One sampled-mode training sample's scoring (Algorithm 1): its
// positive and 64 draws, 65 random rows of the trainer's normalized
// 8k x 64 item table, scored by id against the user's row with
// vec::DotRows. BM_DotRowsPerRowDot is the per-row Dot loop over the
// same rows, with the same bits.
constexpr size_t kTableItems = 8000;
constexpr size_t kTableDim = 64;
constexpr size_t kSampleRows = 65;

std::vector<uint32_t> SampleRowIds() {
  Rng rng(31);
  std::vector<uint32_t> ids(kSampleRows);
  for (auto& id : ids) id = static_cast<uint32_t>(rng.NextIndex(kTableItems));
  return ids;
}

void BM_DotRows(benchmark::State& state, const VecTier& tier) {
  const auto table = GaussianVec(kTableItems * kTableDim, 32);
  const auto q = GaussianVec(kTableDim, 33);
  const std::vector<uint32_t> ids = SampleRowIds();
  std::vector<float> out(kSampleRows);
  for (auto _ : state) {
    tier.dot_rows(q.data(), table.data(), kTableDim, ids.data(), kSampleRows,
                  kTableDim, out.data());
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * kSampleRows);
}

void BM_DotRowsPerRowDot(benchmark::State& state) {
  const auto table = GaussianVec(kTableItems * kTableDim, 32);
  const auto q = GaussianVec(kTableDim, 33);
  const std::vector<uint32_t> ids = SampleRowIds();
  std::vector<float> out(kSampleRows);
  for (auto _ : state) {
    for (size_t r = 0; r < kSampleRows; ++r) {
      out[r] = vec::Dot(q.data(), table.data() + ids[r] * kTableDim,
                        kTableDim);
    }
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * kSampleRows);
}
BENCHMARK(BM_DotRowsPerRowDot);

// In-batch scoring at the trainer's Algorithm-2 shape: a 1024-sample
// batch's users against its 1024 positive items at dim 64. BM_DotTile
// is one tile over rows widened once (the widening is timed too, as the
// trainer pays it once per batch); BM_DotTilePerPairDot is the per-pair
// Dot loop it replaced. The two produce the same bits.
constexpr size_t kTileBatch = 1024;
constexpr size_t kTileDim = 64;

void BM_DotTile(benchmark::State& state, const VecTier& tier) {
  const auto users = GaussianVec(kTileBatch * kTileDim, 23);
  const auto items = GaussianVec(kTileBatch * kTileDim, 24);
  std::vector<double> users_wide(users.size()), items_wide(items.size());
  std::vector<float> out(kTileBatch * kTileBatch);
  for (auto _ : state) {
    vec::Widen(users.data(), users.size(), users_wide.data());
    vec::Widen(items.data(), items.size(), items_wide.data());
    tier.dot_tile(users_wide.data(), kTileBatch, items_wide.data(),
                  kTileBatch, kTileDim, out.data(), kTileBatch);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * kTileBatch * kTileBatch);
}

void BM_DotTilePerPairDot(benchmark::State& state) {
  const auto users = GaussianVec(kTileBatch * kTileDim, 23);
  const auto items = GaussianVec(kTileBatch * kTileDim, 24);
  std::vector<float> out(kTileBatch * kTileBatch);
  for (auto _ : state) {
    for (size_t s = 0; s < kTileBatch; ++s) {
      for (size_t t = 0; t < kTileBatch; ++t) {
        out[s * kTileBatch + t] = vec::Dot(users.data() + s * kTileDim,
                                           items.data() + t * kTileDim,
                                           kTileDim);
      }
    }
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * kTileBatch * kTileBatch);
}
BENCHMARK(BM_DotTilePerPairDot)->Unit(benchmark::kMillisecond);

// One in-batch user run at the same shape: the user's 1023 terms (the
// positive and every other sample's positive) summed into its gradient
// row at dim 64, as the trainer's phase A does once per sample.
void BM_CosineGradRun(benchmark::State& state, const VecTier& tier) {
  constexpr size_t kTerms = kTileBatch - 1;
  const auto self = GaussianVec(kTileDim, 25);
  const auto others = GaussianVec(kTileBatch * kTileDim, 26);
  const auto scores = GaussianVec(kTerms, 27);
  const auto scales = GaussianVec(kTerms, 28);
  std::vector<uint32_t> idx(kTerms);
  for (size_t j = 0; j < kTerms; ++j) idx[j] = static_cast<uint32_t>(j + 1);
  std::vector<float> grad(kTileDim, 0.0f);
  for (auto _ : state) {
    tier.cosine_grad_run(self.data(), others.data(), kTileDim, idx.data(),
                         scores.data(), scales.data(), kTerms, grad.data(),
                         kTileDim);
    benchmark::DoNotOptimize(grad.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * kTerms);
}

// One sparse-times-dense product at LightGCN's propagation shape: a
// 12k x 12k CSR matrix with 13 nonzeros per row (156k, the benchmark's
// 4k x 8k graph) times a 12k x 64 table. BM_SpmmRowKernel/<tier> is
// vec::WeightedRowSum per row, as SparseMatrix's products run it;
// BM_SpmmFillAxpy is the Fill + one Axpy per nonzero loop it replaced,
// with the same bits.
constexpr size_t kSpmmRows = 12000;
constexpr size_t kSpmmRowNnz = 13;
constexpr size_t kSpmmDim = 64;

struct SpmmInput {
  std::vector<float> values;
  std::vector<uint32_t> cols;
  std::vector<float> x;
  std::vector<float> out;
};

SpmmInput MakeSpmmInput() {
  Rng rng(29);
  SpmmInput in;
  in.values.resize(kSpmmRows * kSpmmRowNnz);
  in.cols.resize(kSpmmRows * kSpmmRowNnz);
  for (size_t r = 0; r < kSpmmRows; ++r) {
    uint32_t* row = in.cols.data() + r * kSpmmRowNnz;
    for (size_t k = 0; k < kSpmmRowNnz; ++k) {
      row[k] = static_cast<uint32_t>(rng.NextIndex(kSpmmRows));
      in.values[r * kSpmmRowNnz + k] = static_cast<float>(rng.NextDouble());
    }
    std::sort(row, row + kSpmmRowNnz);  // CSR order
  }
  in.x = GaussianVec(kSpmmRows * kSpmmDim, 30);
  in.out.resize(kSpmmRows * kSpmmDim);
  return in;
}

void BM_SpmmRowKernel(benchmark::State& state, const VecTier& tier) {
  SpmmInput in = MakeSpmmInput();
  for (auto _ : state) {
    for (size_t r = 0; r < kSpmmRows; ++r) {
      tier.weighted_row_sum(in.values.data() + r * kSpmmRowNnz,
                            in.cols.data() + r * kSpmmRowNnz, kSpmmRowNnz,
                            in.x.data(), kSpmmDim,
                            in.out.data() + r * kSpmmDim, kSpmmDim);
    }
    benchmark::DoNotOptimize(in.out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * kSpmmRows * kSpmmRowNnz);
}

void BM_SpmmFillAxpy(benchmark::State& state) {
  SpmmInput in = MakeSpmmInput();
  for (auto _ : state) {
    for (size_t r = 0; r < kSpmmRows; ++r) {
      float* out_row = in.out.data() + r * kSpmmDim;
      vec::Fill(out_row, kSpmmDim, 0.0f);
      for (size_t k = r * kSpmmRowNnz; k < (r + 1) * kSpmmRowNnz; ++k) {
        vec::Axpy(in.values[k], in.x.data() + in.cols[k] * kSpmmDim, out_row,
                  kSpmmDim);
      }
    }
    benchmark::DoNotOptimize(in.out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * kSpmmRows * kSpmmRowNnz);
}
BENCHMARK(BM_SpmmFillAxpy)->Unit(benchmark::kMillisecond);

// One Adam step over the 786,432 elements of the benchmark model's
// user and item tables (12k rows x 64): each tier (BM_AdamStep/<tier>,
// registered with the other tiered kernels) and the scalar loop it
// replaced (BM_AdamStepRef). The trainer's pool divides this per-step
// cost across its workers in fixed element shards.
constexpr size_t kAdamElements = 786432;

template <typename Step>
void RunAdamStep(benchmark::State& state, Step step) {
  const size_t n = kAdamElements;
  const auto g = GaussianVec(n, 37);
  auto w = GaussianVec(n, 38);
  std::vector<float> m(n, 0.0f), v(n, 0.0f);
  const vec::AdamCoeffs c{.lr = 0.05,
                          .weight_decay = 1e-6,
                          .beta1 = 0.9,
                          .beta2 = 0.999,
                          .eps = 1e-8,
                          .bc1 = 1.0 - 0.9,
                          .bc2 = 1.0 - 0.999};
  for (auto _ : state) {
    step(c, g.data(), w.data(), m.data(), v.data(), n);
    benchmark::DoNotOptimize(w.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * n);
}

void BM_AdamStep(benchmark::State& state, const VecTier& tier) {
  RunAdamStep(state, tier.adam_step);
}

void BM_AdamStepRef(benchmark::State& state) {
  RunAdamStep(state, vec::ref::AdamStep);
}
BENCHMARK(BM_AdamStepRef)->Unit(benchmark::kMillisecond);

void RegisterTieredBenchmarks() {
  for (auto* b : RegisterPerTier("BM_DotBlocked", BM_DotBlocked)) {
    b->Arg(16)->Arg(64)->Arg(256)->Arg(4096);
  }
  for (auto* b : RegisterPerTier("BM_DotTile", BM_DotTile)) {
    b->Unit(benchmark::kMillisecond);
  }
  for (auto* b : RegisterPerTier("BM_CosineGradRun", BM_CosineGradRun)) {
    b->Unit(benchmark::kMicrosecond);
  }
  for (auto* b : RegisterPerTier("BM_SpmmRowKernel", BM_SpmmRowKernel)) {
    b->Unit(benchmark::kMillisecond);
  }
  RegisterPerTier("BM_DotRows", BM_DotRows);
  for (auto* b : RegisterPerTier("BM_AdamStep", BM_AdamStep)) {
    b->Unit(benchmark::kMillisecond);
  }
}

// ---- int8 IVF list-scan kernels (ScorerOptions::quantize) ----
// SIMD dispatch vs the always-compiled scalar reference (vec::ref), and
// the batched int8 list scan vs the fp32 DotBatch of an fp32 list — the
// latter pair is the memory-traffic argument in numbers.

std::vector<int8_t> QuantizedVec(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<int8_t> v(n);
  for (auto& x : v) {
    x = static_cast<int8_t>(static_cast<int>(rng.NextIndex(255)) - 127);
  }
  return v;
}

void BM_DotI8(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto a = QuantizedVec(n, 31), b = QuantizedVec(n, 32);
  for (auto _ : state) {
    benchmark::DoNotOptimize(vec::DotI8(a.data(), b.data(), n));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_DotI8)->Arg(16)->Arg(64)->Arg(128)->Arg(256);

void BM_DotI8Ref(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto a = QuantizedVec(n, 31), b = QuantizedVec(n, 32);
  for (auto _ : state) {
    benchmark::DoNotOptimize(vec::ref::DotI8(a.data(), b.data(), n));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_DotI8Ref)->Arg(16)->Arg(64)->Arg(128)->Arg(256);

// One int8 list scan: 64 grouped rows against one quantized query.
// Compare against BM_DotBatchBlocked at the same dim for the int8 vs
// fp32 bandwidth story.
void BM_DotBatchI8(benchmark::State& state) {
  const size_t d = static_cast<size_t>(state.range(0));
  constexpr size_t kRows = 64;
  const auto q = QuantizedVec(d, 33);
  const auto rows = QuantizedVec(kRows * d, 34);
  std::vector<int32_t> out(kRows);
  for (auto _ : state) {
    vec::DotBatchI8(q.data(), rows.data(), kRows, d, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * kRows * d);
}
BENCHMARK(BM_DotBatchI8)->Arg(16)->Arg(64)->Arg(128)->Arg(256);

void BM_DotBatchI8Ref(benchmark::State& state) {
  const size_t d = static_cast<size_t>(state.range(0));
  constexpr size_t kRows = 64;
  const auto q = QuantizedVec(d, 33);
  const auto rows = QuantizedVec(kRows * d, 34);
  std::vector<int32_t> out(kRows);
  for (auto _ : state) {
    vec::ref::DotBatchI8(q.data(), rows.data(), kRows, d, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * kRows * d);
}
BENCHMARK(BM_DotBatchI8Ref)->Arg(16)->Arg(64)->Arg(128)->Arg(256);

// Row quantization — the snapshot-freeze cost of building the int8
// table and the per-query cost of encoding q into codes.
void BM_QuantizeRow(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto x = GaussianVec(n, 35);
  std::vector<int8_t> codes(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(vec::QuantizeRow(x.data(), n, codes.data()));
    benchmark::DoNotOptimize(codes.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_QuantizeRow)->Arg(16)->Arg(64)->Arg(128)->Arg(256);

void BM_QuantizeRowRef(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto x = GaussianVec(n, 35);
  std::vector<int8_t> codes(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        vec::ref::QuantizeRow(x.data(), n, codes.data()));
    benchmark::DoNotOptimize(codes.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_QuantizeRowRef)->Arg(16)->Arg(64)->Arg(128)->Arg(256);

void BM_StreamRngDraws(benchmark::State& state) {
  // Cost of one full per-sample stream: construction + 64 bounded draws,
  // the trainer's per-sample sampling pattern.
  uint64_t sink = 0;
  uint64_t s = 0;
  for (auto _ : state) {
    StreamRng rng(42, 1, ++s);
    for (int j = 0; j < 64; ++j) sink += rng.NextIndex(1200);
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_StreamRngDraws);

void BM_CosineScore(benchmark::State& state) {
  const size_t d = static_cast<size_t>(state.range(0));
  Rng rng(5);
  std::vector<float> u(d), v(d);
  for (auto& x : u) x = static_cast<float>(rng.NextGaussian());
  for (auto& x : v) x = static_cast<float>(rng.NextGaussian());
  for (auto _ : state) {
    benchmark::DoNotOptimize(vec::Cosine(u.data(), v.data(), d));
  }
}
BENCHMARK(BM_CosineScore)->Arg(16)->Arg(64)->Arg(256);

void BM_GraphPropagation(benchmark::State& state) {
  SyntheticConfig cfg;
  cfg.num_users = 400;
  cfg.num_items = 350;
  cfg.seed = 6;
  const Dataset data = GenerateSynthetic(cfg).dataset;
  const BipartiteGraph graph(data);
  Matrix base(graph.num_nodes(), 16), out(graph.num_nodes(), 16);
  graph::PropagationEngine engine;  // serial: this tracks the raw kernel
  Rng rng(7);
  base.InitGaussian(rng, 0.1f);
  const int layers = static_cast<int>(state.range(0));
  for (auto _ : state) {
    engine.MeanPropagate(graph.Adjacency(), base, layers, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * graph.Adjacency().nnz() *
                          layers);
}
BENCHMARK(BM_GraphPropagation)->Arg(1)->Arg(3);

void BM_Evaluator(benchmark::State& state) {
  SyntheticConfig cfg;
  cfg.num_users = 300;
  cfg.num_items = 250;
  cfg.seed = 8;
  const Dataset data = GenerateSynthetic(cfg).dataset;
  Rng rng(9);
  MfModel model(data.num_users(), data.num_items(), 16, rng);
  model.Forward(rng);
  const Evaluator eval(data, 20);
  for (auto _ : state) {
    benchmark::DoNotOptimize(eval.Evaluate(model).ndcg);
  }
}
BENCHMARK(BM_Evaluator);

// One block of m queries through serve::BlockTopK's exact tier at the
// evaluator's shape: 8000 items, dim 64, 2048-item shards, k = 20, and
// 20 excluded ids per query. m = 1 is the per-pair vec::Dot scan; larger
// blocks widen each item chunk once for the whole block and score it
// with vec::DotTile. Every m returns the same bits per query.
void BM_BlockTopK(benchmark::State& state) {
  constexpr uint32_t kItems = 8000;
  constexpr uint32_t kUsers = 64;
  constexpr uint32_t kExcluded = 20;
  const size_t m = static_cast<size_t>(state.range(0));
  Rng rng(41);
  MfModel model(kUsers, kItems, 64, rng);
  runtime::ThreadPool pool(1);
  const serve::ModelSnapshot snapshot(model, pool);
  std::vector<std::vector<uint32_t>> excluded(m);
  std::vector<serve::ScoreQuery> block;
  for (size_t j = 0; j < m; ++j) {
    for (uint32_t t = 0; t < kExcluded; ++t) {
      excluded[j].push_back(
          static_cast<uint32_t>((j * 131 + t * 397) % kItems));
    }
    std::sort(excluded[j].begin(), excluded[j].end());
    const auto user = static_cast<uint32_t>(j % kUsers);
    block.push_back({snapshot.UserVec(user), 20, excluded[j]});
  }
  const serve::ScorerOptions options{.items_per_shard = 2048};
  serve::ShardScratch ws;
  std::vector<std::vector<serve::ScoredItem>> tops(m);
  for (auto _ : state) {
    serve::BlockTopK(snapshot, block, options, ws, tops);
    benchmark::DoNotOptimize(tops.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(m) *
                          kItems);
}
BENCHMARK(BM_BlockTopK)->Arg(1)->Arg(2)->Arg(8)->Arg(16);

void BM_WorstCaseWeights(benchmark::State& state) {
  const auto scores = MakeScores(static_cast<size_t>(state.range(0)), 10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dro::WorstCaseWeights(scores, 0.1));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_WorstCaseWeights)->Arg(256)->Arg(4096);

}  // namespace

int main(int argc, char** argv) {
  RegisterLossBenchmarks();
  RegisterTieredBenchmarks();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
