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

#include "bench_util.h"
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

void BM_DotBlocked(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto a = GaussianVec(n, 11), b = GaussianVec(n, 12);
  for (auto _ : state) {
    benchmark::DoNotOptimize(vec::Dot(a.data(), b.data(), n));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_DotBlocked)->Arg(16)->Arg(64)->Arg(256)->Arg(4096);

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

void BM_DotRows(benchmark::State& state) {
  const auto table = GaussianVec(kTableItems * kTableDim, 32);
  const auto q = GaussianVec(kTableDim, 33);
  const std::vector<uint32_t> ids = SampleRowIds();
  std::vector<float> out(kSampleRows);
  for (auto _ : state) {
    vec::DotRows(q.data(), table.data(), kTableDim, ids.data(), kSampleRows,
                 kTableDim, out.data());
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * kSampleRows);
}
BENCHMARK(BM_DotRows);

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

void BM_DotTile(benchmark::State& state) {
  const auto users = GaussianVec(kTileBatch * kTileDim, 23);
  const auto items = GaussianVec(kTileBatch * kTileDim, 24);
  std::vector<double> users_wide(users.size()), items_wide(items.size());
  std::vector<float> out(kTileBatch * kTileBatch);
  for (auto _ : state) {
    vec::Widen(users.data(), users.size(), users_wide.data());
    vec::Widen(items.data(), items.size(), items_wide.data());
    vec::DotTile(users_wide.data(), kTileBatch, items_wide.data(), kTileBatch,
                 kTileDim, out.data(), kTileBatch);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * kTileBatch * kTileBatch);
}
BENCHMARK(BM_DotTile)->Unit(benchmark::kMillisecond);

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

// The exact catalog scan's tile: one query block of 16 against one chunk
// of 64 item rows at dim 64, in single precision over the rows in place
// (serve::ShardTopK's shape). BM_DotTileF32DoubleTile is the same tile as
// the scan scored it before, widening the chunk's rows (the block's
// query rows were widened once per shard, so they are not timed).
constexpr size_t kScanBlock = 16;
constexpr size_t kScanChunk = 64;

void BM_DotTileF32(benchmark::State& state) {
  const auto queries = GaussianVec(kScanBlock * kTileDim, 25);
  const auto rows = GaussianVec(kScanChunk * kTileDim, 26);
  std::vector<float> out(kScanBlock * kScanChunk);
  for (auto _ : state) {
    vec::DotTileF32(queries.data(), kScanBlock, rows.data(), kScanChunk,
                    kTileDim, out.data(), kScanChunk);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * kScanBlock * kScanChunk);
}
BENCHMARK(BM_DotTileF32);

void BM_DotTileF32DoubleTile(benchmark::State& state) {
  const auto queries = GaussianVec(kScanBlock * kTileDim, 25);
  const auto rows = GaussianVec(kScanChunk * kTileDim, 26);
  std::vector<double> queries_wide(queries.size()), rows_wide(rows.size());
  vec::Widen(queries.data(), queries.size(), queries_wide.data());
  std::vector<float> out(kScanBlock * kScanChunk);
  for (auto _ : state) {
    vec::Widen(rows.data(), rows.size(), rows_wide.data());
    vec::DotTile(queries_wide.data(), kScanBlock, rows_wide.data(), kScanChunk,
                 kTileDim, out.data(), kScanChunk);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * kScanBlock * kScanChunk);
}
BENCHMARK(BM_DotTileF32DoubleTile);

// One in-batch user run at the same shape: the user's 1023 terms (the
// positive and every other sample's positive) summed into its gradient
// row at dim 64, as the trainer's phase A does once per sample.
void BM_CosineGradRun(benchmark::State& state) {
  constexpr size_t kTerms = kTileBatch - 1;
  const auto self = GaussianVec(kTileDim, 25);
  const auto others = GaussianVec(kTileBatch * kTileDim, 26);
  const auto scores = GaussianVec(kTerms, 27);
  const auto scales = GaussianVec(kTerms, 28);
  std::vector<uint32_t> idx(kTerms);
  for (size_t j = 0; j < kTerms; ++j) idx[j] = static_cast<uint32_t>(j + 1);
  std::vector<float> grad(kTileDim, 0.0f);
  for (auto _ : state) {
    vec::AccumulateCosineGradRun(self.data(), others.data(), kTileDim,
                                 idx.data(), scores.data(), scales.data(),
                                 kTerms, grad.data(), kTileDim);
    benchmark::DoNotOptimize(grad.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * kTerms);
}
BENCHMARK(BM_CosineGradRun)->Unit(benchmark::kMicrosecond);

// One item row's phase-B runs (Trainer::OwnSampledItemRow and
// OwnInBatchItemRow) at the trainer's two shapes, Args({runs, terms per
// run}) against a 1024 x 64 table of normalized users: {8, 1} is a
// sampled item (about 8 terms per batch at b = 1024 and N- = 64, each in
// its own 32-sample shard), {64, 16} an in-batch item that occurs once
// (a term from every sample, in 64 shards of 16). BM_CosineGradRuns is
// one vec::AccumulateCosineGradRuns call; BM_CosineGradRunLoop is the
// per-run loop it replaced, with the same bits: per run a +0.0f partial,
// one AccumulateCosineGradRun into it and one Axpy into the row.
struct GradRunsInput {
  std::vector<float> self, others, scores, scales, grad, partial;
  std::vector<uint32_t> idx, ends;
};

GradRunsInput MakeGradRunsInput(const benchmark::State& state) {
  const size_t runs = static_cast<size_t>(state.range(0));
  const size_t per_run = static_cast<size_t>(state.range(1));
  GradRunsInput in;
  in.self = GaussianVec(kTileDim, 29);
  in.others = GaussianVec(kTileBatch * kTileDim, 30);
  in.scores = GaussianVec(runs * per_run, 31);
  in.scales = GaussianVec(runs * per_run, 32);
  in.grad.assign(kTileDim, 0.0f);
  in.partial.assign(kTileDim, 0.0f);
  Rng rng(33);
  for (size_t j = 0; j < runs * per_run; ++j) {
    in.idx.push_back(static_cast<uint32_t>(rng.NextIndex(kTileBatch)));
  }
  for (size_t r = 1; r <= runs; ++r) {
    in.ends.push_back(static_cast<uint32_t>(r * per_run));
  }
  return in;
}

void BM_CosineGradRuns(benchmark::State& state) {
  GradRunsInput in = MakeGradRunsInput(state);
  for (auto _ : state) {
    vec::AccumulateCosineGradRuns(in.self.data(), in.others.data(), kTileDim,
                                  in.idx.data(), in.scores.data(),
                                  in.scales.data(), in.ends.data(),
                                  in.ends.size(), in.grad.data(), kTileDim);
    benchmark::DoNotOptimize(in.grad.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * in.idx.size());
}
BENCHMARK(BM_CosineGradRuns)->Args({8, 1})->Args({64, 16});

void BM_CosineGradRunLoop(benchmark::State& state) {
  GradRunsInput in = MakeGradRunsInput(state);
  for (auto _ : state) {
    size_t begin = 0;
    for (const uint32_t end : in.ends) {
      vec::Fill(in.partial.data(), kTileDim, 0.0f);
      vec::AccumulateCosineGradRun(
          in.self.data(), in.others.data(), kTileDim, in.idx.data() + begin,
          in.scores.data() + begin, in.scales.data() + begin, end - begin,
          in.partial.data(), kTileDim);
      vec::Axpy(1.0f, in.partial.data(), in.grad.data(), kTileDim);
      begin = end;
    }
    benchmark::DoNotOptimize(in.grad.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * in.idx.size());
}
BENCHMARK(BM_CosineGradRunLoop)->Args({8, 1})->Args({64, 16});

// One sparse-times-dense product at LightGCN's propagation shape: a
// 12k x 12k CSR matrix with 13 nonzeros per row (156k, the benchmark's
// 4k x 8k graph) times a 12k x 64 table. BM_SpmmRowKernel is
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

void BM_SpmmRowKernel(benchmark::State& state) {
  SpmmInput in = MakeSpmmInput();
  for (auto _ : state) {
    for (size_t r = 0; r < kSpmmRows; ++r) {
      vec::WeightedRowSum(in.values.data() + r * kSpmmRowNnz,
                          in.cols.data() + r * kSpmmRowNnz, kSpmmRowNnz,
                          in.x.data(), kSpmmDim, in.out.data() + r * kSpmmDim,
                          kSpmmDim);
    }
    benchmark::DoNotOptimize(in.out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * kSpmmRows * kSpmmRowNnz);
}
BENCHMARK(BM_SpmmRowKernel)->Unit(benchmark::kMillisecond);

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
// user and item tables (12k rows x 64): the dispatched kernel
// (BM_AdamStep) and the scalar loop it replaced (BM_AdamStepRef). The
// trainer's pool divides this per-step cost across its workers in fixed
// element shards.
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

void BM_AdamStep(benchmark::State& state) {
  RunAdamStep(state, vec::AdamStep);
}
BENCHMARK(BM_AdamStep)->Unit(benchmark::kMillisecond);

void BM_AdamStepRef(benchmark::State& state) {
  RunAdamStep(state, vec::ref::AdamStep);
}
BENCHMARK(BM_AdamStepRef)->Unit(benchmark::kMillisecond);

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
// evaluator's shape: 8000 items, dim 64, k = 20, and 20 excluded ids per
// query. Every m runs the same scan: each item chunk is scored once for
// the whole block as a vec::DotTileF32 tile, and each query re-scores
// with vec::Dot only the items its skip test keeps. Every m returns the
// same bits per query.
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
  serve::ShardScratch ws;
  std::vector<std::vector<serve::ScoredItem>> tops(m);
  for (auto _ : state) {
    serve::BlockTopK(snapshot, block, {}, ws, tops);
    benchmark::DoNotOptimize(tops.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(m) *
                          kItems);
}
BENCHMARK(BM_BlockTopK)->Arg(1)->Arg(2)->Arg(8)->Arg(16);

// A batch of q queries through serve::CatalogScorer::BatchTopK's exact
// tier on a 2-worker pool, at the serving cache depth: 8000 items, dim
// 64, k = 100, 20 excluded ids per query. One query is split into two
// item ranges, one per worker, and merged; 32 queries fill both workers
// with one 16-query block each over the whole catalog. Timed in wall
// time, since the second worker's CPU time is not the caller's.
void BM_BatchTopK(benchmark::State& state) {
  constexpr uint32_t kItems = 8000;
  constexpr uint32_t kUsers = 64;
  constexpr uint32_t kExcluded = 20;
  const size_t q = static_cast<size_t>(state.range(0));
  Rng rng(43);
  MfModel model(kUsers, kItems, 64, rng);
  runtime::ThreadPool pool(2);
  const serve::ModelSnapshot snapshot(model, pool);
  std::vector<std::vector<uint32_t>> excluded(q);
  std::vector<serve::ScoreQuery> queries;
  for (size_t j = 0; j < q; ++j) {
    for (uint32_t t = 0; t < kExcluded; ++t) {
      excluded[j].push_back(
          static_cast<uint32_t>((j * 131 + t * 397) % kItems));
    }
    std::sort(excluded[j].begin(), excluded[j].end());
    const auto user = static_cast<uint32_t>(j % kUsers);
    queries.push_back({snapshot.UserVec(user), 100, excluded[j]});
  }
  const serve::CatalogScorer scorer(snapshot, pool, {});
  for (auto _ : state) {
    benchmark::DoNotOptimize(scorer.BatchTopK(queries));
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(q) *
                          kItems);
}
BENCHMARK(BM_BatchTopK)->Arg(1)->Arg(32)->UseRealTime();

// One ANN query through serve::BlockTopK's IVF tier at nprobe lists:
// 20000 items, dim 64, the automatic nlist (142), k = 20 and 20 excluded
// ids, over bench_serve's clustered tables (25 clusters), so the probed
// lists hold the query's neighbours. The query scans the centroid rows
// for its top nprobe lists, then the lists' grouped rows into one heap.
void BM_IvfTopK(benchmark::State& state) {
  constexpr uint32_t kItems = 20000;
  constexpr uint32_t kExcluded = 20;
  const auto nprobe = static_cast<uint32_t>(state.range(0));
  Rng rng(47);
  MfModel model(1, kItems, 64, rng);
  bench::ClusterEmbeddings(model, 25, rng);
  model.Forward(rng);
  runtime::ThreadPool pool(1);
  serve::SnapshotOptions options;
  options.ivf.build = true;
  const serve::ModelSnapshot snapshot(model, pool, options);
  std::vector<uint32_t> excluded;
  for (uint32_t t = 0; t < kExcluded; ++t) excluded.push_back(t * 997);
  const serve::ScoreQuery query{snapshot.UserVec(0), 20, excluded};
  const serve::ScorerOptions ann{.exact = false, .nprobe = nprobe};
  serve::ShardScratch ws;
  std::vector<serve::ScoredItem> top;
  for (auto _ : state) {
    serve::BlockTopK(snapshot, {&query, 1}, ann, ws, {&top, 1});
    benchmark::DoNotOptimize(top.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_IvfTopK)->Arg(8)->Arg(32);

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
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
