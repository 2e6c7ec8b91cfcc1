// Training workloads: MF + BSL with sampled negatives (paper
// Algorithm 1) and LightGCN + BSL with in-batch negatives and logQ
// correction (Algorithm 2), plus the training-layer replays of the
// traced run.
#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/losses.h"
#include "eval/evaluator.h"
#include "gen.h"
#include "graph/bipartite_graph.h"
#include "math/rng.h"
#include "math/vec.h"
#include "models/lightgcn.h"
#include "models/mf.h"
#include "runtime/thread_pool.h"
#include "sampling/negative_sampler.h"
#include "serve/model_snapshot.h"
#include "train/optimizer.h"
#include "train/trainer.h"
#include "workloads.h"

namespace perfbench {

namespace {

using bslrec::Dataset;
using bslrec::EmbeddingModel;

// BSL temperatures: tau2 on the negatives (the softmax temperature,
// also the logQ correction's), tau1 on the positive.
constexpr double kTau2 = 0.10;
constexpr double kTau1 = 0.12;
// The training shape: dim 64, batch 1024, N- = 64 sampled
// negatives (MF), 2 propagation layers (LightGCN).
constexpr size_t kDim = 64;
constexpr size_t kBatch = 1024;
constexpr size_t kNegatives = 64;
constexpr int kLayers = 2;
// Trained runs score 0.24-0.30; a collapsed one about 0.005.
constexpr double kNdcgFloor = 0.04;
constexpr uint32_t kTopK = 20;
// A set-up takes tens of milliseconds. Back to back, a run's set-ups
// all see the host in one state (medians of 11 and 17 ms in runs a
// minute apart), so they are spread over the run like the eval passes.
constexpr int kSetupRepeats = 24;
// Eval passes spread over the measured epochs. One pass varies by up to
// 20% with the host; with 6 passes a run the LightGCN median spread
// 0.13 over ten seeds, with 14 the MF one 0.04.
constexpr int kEvalPasses = 12;
constexpr int kEvalRepeats = 3;  // traced eval replay

struct TrainSpec {
  bool lightgcn = false;
  GenConfig gen;
  double lr = 0.05;       // Adam
  // Measured epochs are sized from --seconds with this nominal time of
  // one epoch plus the passes and set-ups after it, so a (seed,
  // seconds) pair always trains the same number of epochs and
  // ndcg_at_20 is reproducible bit for bit.
  double nominal_epoch_s = 1.0;
};

TrainSpec SpecFor(bool lightgcn, uint64_t seed) {
  TrainSpec s;
  s.lightgcn = lightgcn;
  s.gen.seed = seed;
  s.gen.latent_dim = 16;
  s.gen.num_users = 4000;
  s.gen.num_items = 8000;
  s.gen.num_clusters = 40;
  if (lightgcn) {
    s.nominal_epoch_s = 10.0;
    // Adam at MF's 0.05 over-fit a 2k x 4k graph within a few epochs
    // and ndcg_at_20 then swung between seeds; 1e-3 trains steadily.
    s.lr = 0.001;
  } else {
    s.nominal_epoch_s = 2.5;
  }
  return s;
}

bslrec::TrainConfig ConfigFor(const TrainSpec& spec, uint64_t seed,
                              size_t threads) {
  bslrec::TrainConfig c;
  c.batch_size = kBatch;
  c.sampling_mode = spec.lightgcn ? bslrec::SamplingMode::kInBatch
                                  : bslrec::SamplingMode::kSampledNegatives;
  c.num_negatives = kNegatives;
  c.inbatch_logq_tau = spec.lightgcn ? kTau2 : 0.0;
  c.metric_k = kTopK;
  c.lr = spec.lr;
  c.seed = seed;
  // Pinned so the sampling replay draws the trainer's exact streams.
  c.sampling_stream_seed = seed * 0x9E3779B97F4A7C15ULL + 1;
  c.runtime.num_threads = threads;
  return c;
}

// Everything a training run holds. Members are declared in dependency
// order, so destruction (and Reset) releases the trainer first.
struct TrainStack {
  void Reset() {
    evaluator.reset();
    trainer.reset();
    sampler.reset();
    loss.reset();
    model.reset();
    graph.reset();
    data.reset();
  }

  std::unique_ptr<Dataset> data;
  std::unique_ptr<bslrec::BipartiteGraph> graph;
  std::unique_ptr<EmbeddingModel> model;
  std::unique_ptr<bslrec::LossFunction> loss;
  std::unique_ptr<bslrec::NegativeSampler> sampler;
  std::unique_ptr<bslrec::Trainer> trainer;
  std::unique_ptr<bslrec::Evaluator> evaluator;  // not part of set-up
};

// Builds the stack from inputs already in memory; the returned seconds
// are the set-up time (index, graph, model, trainer). Edge copies are
// made before the clock starts.
double BuildStack(const GeneratedData& in, const TrainSpec& spec,
                  uint64_t seed, size_t threads, TrainStack& st) {
  st.Reset();
  std::vector<bslrec::Edge> train = in.train, test = in.test;
  ScopedSpan setup("setup");
  {
    ScopedSpan s("data.Dataset");
    st.data = std::make_unique<Dataset>(in.num_users, in.num_items,
                                        std::move(train), std::move(test));
  }
  if (spec.lightgcn) {
    ScopedSpan s("graph.BipartiteGraph");
    st.graph = std::make_unique<bslrec::BipartiteGraph>(*st.data);
  }
  {
    ScopedSpan s("train.setup");
    bslrec::Rng init_rng(seed);
    if (spec.lightgcn) {
      st.model = std::make_unique<bslrec::LightGcnModel>(*st.graph, kDim,
                                                         kLayers, init_rng);
    } else {
      st.model = std::make_unique<bslrec::MfModel>(in.num_users, in.num_items,
                                                   kDim, init_rng);
    }
    st.loss = std::make_unique<bslrec::BilateralSoftmaxLoss>(kTau1, kTau2);
    st.sampler = std::make_unique<bslrec::UniformNegativeSampler>(*st.data);
    st.trainer = std::make_unique<bslrec::Trainer>(
        *st.data, *st.model, *st.loss, *st.sampler,
        ConfigFor(spec, seed, threads));
  }
  return setup.ms() / 1e3;
}

size_t NumBatches(size_t samples, size_t batch) {
  return (samples + batch - 1) / batch;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// ---- traced-run replays ---------------------------------------------------

// Per-batch calls the trainer makes around its shard work, replayed
// once per batch of one epoch on a fresh model of the same shape.
void ReplayModelCalls(const TrainSpec& spec, const TrainStack& st,
                      uint64_t seed, Result& r) {
  bslrec::runtime::ThreadPool pool(kPoolThreads);
  bslrec::Rng rng(seed);
  std::unique_ptr<EmbeddingModel> model;
  if (spec.lightgcn) {
    model = std::make_unique<bslrec::LightGcnModel>(*st.graph, kDim, kLayers,
                                                    rng);
  } else {
    model = std::make_unique<bslrec::MfModel>(
        st.data->num_users(), st.data->num_items(), kDim, rng);
  }
  model->SetRuntime(&pool);
  bslrec::AdamOptimizer opt(spec.lr, 1e-6);
  const size_t batches = NumBatches(st.data->num_train(), kBatch);
  double fwd = 0, zero = 0, bwd = 0, step = 0;
  for (size_t b = 0; b < batches; ++b) {
    { ScopedSpan s("models.Forward", b); model->Forward(rng); fwd += s.ms(); }
    { ScopedSpan s("models.ZeroGrad", b); model->ZeroGrad(); zero += s.ms(); }
    { ScopedSpan s("models.Backward", b); model->Backward(); bwd += s.ms(); }
    {
      ScopedSpan s("train.AdamOptimizer::Step", b);
      opt.Step(model->Params());
      step += s.ms();
    }
  }
  model->SetRuntime(nullptr);
  r.AddLayer("models.forward_ms", fwd, "ms", "per-epoch sum");
  r.AddLayer("models.zero_grad_ms", zero, "ms", "per-epoch sum");
  r.AddLayer("models.backward_ms", bwd, "ms", "per-epoch sum");
  r.AddLayer("train.optimizer_step_ms", step, "ms", "per-epoch sum");
}

// Pooled SpMM on the normalized adjacency, the propagation kernel.
void ReplaySpmm(const TrainStack& st, Result& r) {
  const bslrec::BipartiteGraph* graph = st.graph.get();
  std::unique_ptr<bslrec::BipartiteGraph> built;
  if (graph == nullptr) {
    ScopedSpan s("graph.BipartiteGraph");
    built = std::make_unique<bslrec::BipartiteGraph>(*st.data);
    graph = built.get();
  }
  bslrec::runtime::ThreadPool pool(kPoolThreads);
  bslrec::Rng rng(7);
  bslrec::Matrix x(graph->num_nodes(), kDim), out(graph->num_nodes(), kDim);
  for (size_t i = 0; i < x.size(); ++i) {
    x.data()[i] = static_cast<float>(rng.NextGaussian());
  }
  std::vector<double> ms;
  for (int rep = 0; rep < 20; ++rep) {
    ScopedSpan s("graph.SparseMatrix::Multiply");
    graph->Adjacency().Multiply(x, out, pool, bslrec::graph::kDefaultRowGrain);
    ms.push_back(s.ms());
  }
  r.AddLayer("graph.spmm_ms", Median(ms), "ms", "median per call");
}

// One thread: the sampler, the fused gather/dot kernels and the loss
// over one epoch's worth of samples, each timed on its own.
void ReplayKernels(const TrainSpec& spec, const TrainStack& st,
                   uint64_t seed, Result& r) {
  const Dataset& data = *st.data;
  const size_t d = kDim;
  const size_t n_neg = kNegatives;
  const std::vector<bslrec::Edge>& edges = data.train_edges();
  const size_t n = edges.size();
  const uint64_t stream_seed = ConfigFor(spec, seed, 1).sampling_stream_seed;

  std::vector<uint32_t> negs(n * n_neg);
  double draw_ms = 0.0;
  {
    ScopedSpan s("sampling.NegativeSampler::Dispatch");
    const bslrec::SamplerDispatch sample = st.sampler->Dispatch();
    for (size_t i = 0; i < n; ++i) {
      bslrec::StreamRng stream(stream_seed, 1, i);
      sample(edges[i].user, stream, {negs.data() + i * n_neg, n_neg});
    }
    draw_ms = s.ms();
  }
  r.AddLayer("sampling.draw_ms", draw_ms, "ms", "one epoch, 1 thread");
  r.AddLayer("sampling.draws", static_cast<double>(n * n_neg), "count");

  const bslrec::Matrix& users = st.model->FinalUserMatrix();
  const bslrec::Matrix& items = st.model->FinalItemMatrix();
  bslrec::Matrix u_hat(users.rows(), d), i_hat(items.rows(), d);
  for (size_t u = 0; u < users.rows(); ++u) {
    bslrec::vec::Normalize(users.Row(u), u_hat.Row(u), d);
  }
  for (size_t i = 0; i < items.rows(); ++i) {
    bslrec::vec::Normalize(items.Row(i), i_hat.Row(i), d);
  }
  std::vector<float> scores(n * n_neg), j_hat(n_neg * d), j_norm(n_neg);
  double gather_ms = 0.0;
  {
    ScopedSpan s("math.GatherNormalize+DotBatch");
    for (size_t i = 0; i < n; ++i) {
      bslrec::vec::GatherNormalize(items.data(), items.cols(),
                                   negs.data() + i * n_neg, n_neg, d,
                                   j_hat.data(), j_norm.data());
      bslrec::vec::DotBatch(u_hat.Row(edges[i].user), j_hat.data(), n_neg, d,
                            scores.data() + i * n_neg);
    }
    gather_ms = s.ms();
  }
  r.AddLayer("math.gather_dot_ms", gather_ms, "ms", "one epoch, 1 thread");

  const bslrec::LossFunction& loss = *st.loss;
  float d_pos = 0.0f;
  double loss_ms = 0.0;
  if (!spec.lightgcn) {
    std::vector<float> d_neg(n_neg);
    ScopedSpan s("core.LossFunction::Compute");
    for (size_t i = 0; i < n; ++i) {
      const float pos = bslrec::vec::Dot(u_hat.Row(edges[i].user),
                                         i_hat.Row(edges[i].item), d);
      loss.Compute(pos, {scores.data() + i * n_neg, n_neg}, &d_pos,
                   {d_neg.data(), n_neg});
    }
    loss_ms = s.ms();
  } else {
    // In-batch rows are b-1 wide: score each batch outside the clock,
    // time only the loss calls.
    const size_t b = kBatch;
    std::vector<float> rows(b * (b - 1)), pos(b), d_neg(b - 1);
    for (size_t lo = 0; lo < n; lo += b) {
      const size_t hi = std::min(n, lo + b);
      const size_t m = hi - lo;
      if (m < 2) continue;
      for (size_t s = 0; s < m; ++s) {
        const float* uv = u_hat.Row(edges[lo + s].user);
        pos[s] = bslrec::vec::Dot(uv, i_hat.Row(edges[lo + s].item), d);
        size_t idx = 0;
        for (size_t t = 0; t < m; ++t) {
          if (t == s) continue;
          rows[s * (m - 1) + idx++] =
              bslrec::vec::Dot(uv, i_hat.Row(edges[lo + t].item), d);
        }
      }
      ScopedSpan span("core.LossFunction::Compute", lo / b);
      for (size_t s = 0; s < m; ++s) {
        loss.Compute(pos[s], {rows.data() + s * (m - 1), m - 1}, &d_pos,
                     {d_neg.data(), m - 1});
      }
      loss_ms += span.ms();
    }
  }
  r.AddLayer("core.loss_ms", loss_ms, "ms",
             spec.lightgcn ? "one epoch, b-1 wide, 1 thread"
                           : "one epoch, N- wide, 1 thread");
}

// Snapshot freeze and the ranking pass, timed apart.
void ReplayEval(const TrainStack& st, Result& r) {
  bslrec::runtime::ThreadPool pool(kPoolThreads);
  bslrec::Evaluator evaluator(*st.data, kTopK, &pool);
  std::vector<double> freeze, rank;
  for (int rep = 0; rep < kEvalRepeats; ++rep) {
    std::shared_ptr<const bslrec::serve::ModelSnapshot> snap;
    {
      ScopedSpan s("eval.ModelSnapshot");
      snap = std::make_shared<const bslrec::serve::ModelSnapshot>(*st.model,
                                                                  pool);
      freeze.push_back(s.ms());
    }
    ScopedSpan s("eval.Evaluator::Pass::Evaluate");
    evaluator.BeginPassOn(snap).Evaluate();
    rank.push_back(s.ms());
  }
  r.AddLayer("eval.freeze_ms", Median(freeze), "ms", "median");
  r.AddLayer("eval.rank_ms", Median(rank), "ms", "median");
  r.AddLayer("eval.users", static_cast<double>(st.data->TestUsers().size()),
             "count");
}

// ---- one training run -----------------------------------------------------

struct TrainOutcome {
  double setup_s = 0.0;
  size_t setups = 0;
  std::vector<double> pass_ms;  // eval passes between epochs
  double warmup_loss = 0.0;
  double warmup_epoch_ms = 0.0;
  std::vector<double> epoch_ms;
  double cpu_s = 0.0;
  size_t samples = 0;  // measured samples
};

// Sets up, warms up and trains the measured epochs; checks losses. A
// share of the eval passes and of the repeated set-ups (on a throwaway
// stack) follows every measured epoch, so their times sample the host
// over the whole run. Neither touches the trained stack.
TrainOutcome TrainMeasured(const GeneratedData& in, const TrainSpec& spec,
                           uint64_t seed, int epochs, TrainStack& st,
                           Result& r) {
  TrainOutcome out;
  std::vector<double> setups = {
      BuildStack(in, spec, seed, kPoolThreads, st)};
  const int setups_per_epoch = (kSetupRepeats + epochs - 1) / epochs;
  const int passes_per_epoch = (kEvalPasses + epochs - 1) / epochs;
  TrainStack spare;
  st.evaluator = std::make_unique<bslrec::Evaluator>(
      *st.data, kTopK,
      bslrec::runtime::RuntimeConfig{.num_threads = kPoolThreads});
  const size_t n = st.data->num_train();
  const size_t batches = NumBatches(n, kBatch);

  {
    const int64_t t0 = NowNs();
    const bslrec::EpochStats es = st.trainer->RunEpoch(1);
    out.warmup_epoch_ms = MsSince(t0);
    out.warmup_loss = es.avg_loss;
    r.attempted += batches;
    if (!std::isfinite(es.avg_loss)) {
      r.failed += batches;
      r.Check(false, "warm-up epoch loss is not finite");
    }
    st.evaluator->Evaluate(*st.model);  // allocates the pass buffers
  }

  for (int e = 0; e < epochs; ++e) {
    bslrec::EpochStats es;
    double ms = 0.0;
    const double cpu0 = ProcessCpuSeconds();
    {
      ScopedSpan s("train.Trainer::RunEpoch", static_cast<uint64_t>(e + 2));
      es = st.trainer->RunEpoch(e + 2);
      ms = s.ms();
    }
    out.cpu_s += ProcessCpuSeconds() - cpu0;
    out.epoch_ms.push_back(ms);
    r.attempted += batches;
    if (!std::isfinite(es.avg_loss)) {
      r.failed += batches;
      r.Check(false, "epoch " + std::to_string(e + 2) +
                         " loss is not finite");
    }
    for (int rep = 0; rep < passes_per_epoch; ++rep) {
      ScopedSpan s("eval.Evaluator::Evaluate");
      st.evaluator->Evaluate(*st.model);
      out.pass_ms.push_back(s.ms());
    }
    for (int rep = 0; rep < setups_per_epoch; ++rep) {
      setups.push_back(BuildStack(in, spec, seed, kPoolThreads, spare));
    }
    spare.Reset();
  }
  out.setup_s = Median(setups);
  out.setups = setups.size();
  out.samples = n * static_cast<size_t>(epochs);
  return out;
}

void AddTrainLayers(const TrainSpec& spec, const TrainOutcome& o,
                    const GeneratedData& in, TrainStack& st, uint64_t seed,
                    Result& r) {
  Tracer& tracer = Tracer::Get();
  const double epoch_ms = Median(tracer.DurationsMs("train.Trainer::RunEpoch"));
  r.AddLayer("train.epoch_ms", epoch_ms, "ms", "median steady epoch");
  ReplayModelCalls(spec, st, seed, r);
  double replayed = 0.0;
  for (const Metric& m : r.per_layer) {
    if (m.name == "models.forward_ms" || m.name == "models.zero_grad_ms" ||
        m.name == "models.backward_ms" ||
        m.name == "train.optimizer_step_ms") {
      replayed += m.value;
    }
  }
  r.AddLayer("train.shard_ms", epoch_ms - replayed, "ms",
             "epoch minus the four replayed per-batch sums");
  ReplaySpmm(st, r);
  ReplayKernels(spec, st, seed, r);

  // 1-thread epoch on an identical stack: the determinism contract
  // (bitwise-equal loss) and the parallel efficiency.
  {
    TrainStack single;
    BuildStack(in, spec, seed, 1, single);
    double ms1 = 0.0;
    bslrec::EpochStats es;
    {
      ScopedSpan s("train.Trainer::RunEpoch[1 thread]", 1);
      es = single.trainer->RunEpoch(1);
      ms1 = s.ms();
    }
    r.Check(SameBits(es.avg_loss, o.warmup_loss),
            "1-thread epoch loss differs from the 2-thread one");
    r.AddLayer("runtime.parallel_efficiency",
               ms1 / (static_cast<double>(kPoolThreads) * o.warmup_epoch_ms),
               "ratio", "t(1 thread) / (2 x t(2 threads)), first epochs");
  }
  ReplayEval(st, r);
  r.AddLayer("data.index_ms", Median(tracer.DurationsMs("data.Dataset")),
             "ms", "median set-up");
  r.AddLayer("graph.build_ms",
             Median(tracer.DurationsMs("graph.BipartiteGraph")), "ms",
             "median");
  r.AddLayer("train.setup_ms", Median(tracer.DurationsMs("train.setup")),
             "ms", "model + Trainer, median set-up");
}

}  // namespace

void RunTrainWorkload(const Options& opt, bool lightgcn, Result& r) {
  const TrainSpec spec = SpecFor(lightgcn, opt.seed);
  const GeneratedData in = GenerateClustered(spec.gen);
  const int epochs = std::max(
      3, static_cast<int>(std::lround(opt.seconds / spec.nominal_epoch_s)));
  r.diagnostics.push_back(
      "inputs users=" + std::to_string(in.num_users) +
      " items=" + std::to_string(in.num_items) +
      " train_edges=" + std::to_string(in.train.size()) +
      " test_edges=" + std::to_string(in.test.size()) +
      " measured_epochs=" + std::to_string(epochs));

  const CpuTimes host0 = ReadCpuTimes();
  TrainStack st;
  const TrainOutcome o = TrainMeasured(in, spec, opt.seed, epochs, st, r);
  std::vector<double> pass_ms = o.pass_ms;

  // The trained model: refresh the final tables, then two more passes,
  // which must agree bitwise and give ndcg_at_20.
  bslrec::Rng eval_rng(opt.seed ^ 0xE7A15A17ULL);
  st.model->Forward(eval_rng);
  double ndcg = 0.0;
  for (int rep = 0; rep < 2; ++rep) {
    ScopedSpan s("eval.Evaluator::Evaluate");
    const bslrec::TopKMetrics m = st.evaluator->Evaluate(*st.model);
    pass_ms.push_back(s.ms());
    if (rep == 0) ndcg = m.ndcg;
    r.Check(SameBits(m.ndcg, ndcg), "repeated eval passes disagree");
  }
  const CpuTimes host1 = ReadCpuTimes();
  r.Check(std::isfinite(ndcg) && ndcg > kNdcgFloor,
          "ndcg_at_20 " + std::to_string(ndcg) + " not above floor " +
              std::to_string(kNdcgFloor));

  std::vector<double> rates;
  for (double ms : o.epoch_ms) {
    rates.push_back(static_cast<double>(st.data->num_train()) / (ms / 1e3));
  }
  r.AddE2e("samples_per_s", Median(rates), "1/s",
           "median over " + std::to_string(rates.size()) + " epochs");
  r.AddE2e("eval_pass_ms", Median(pass_ms), "ms",
           "Evaluator::Evaluate, median of " + std::to_string(pass_ms.size()) +
               " passes between epochs and after training");
  r.AddE2e("ndcg_at_20", ndcg, "ratio");
  r.AddE2e("setup_s", o.setup_s, "s",
           "median of " + std::to_string(o.setups) +
               " set-ups spread over the run");
  r.AddE2e("peak_rss_mb", PeakRssMb(), "MiB");
  r.AddE2e("cpu_us_per_op", o.cpu_s * 1e6 / static_cast<double>(o.samples),
           "us", "process CPU per trained sample");

  r.diagnostics.push_back("host.steal_share=" +
                          std::to_string(StealShare(host0, host1)));
  std::string times = "epoch_ms warmup=" + std::to_string(o.warmup_epoch_ms);
  for (double ms : o.epoch_ms) times.append(" ").append(std::to_string(ms));
  times.append(" eval_pass_ms");
  for (double ms : pass_ms) times.append(" ").append(std::to_string(ms));
  r.diagnostics.push_back(times);
  if (!opt.trace) return;

  AddTrainLayers(spec, o, in, st, opt.seed, r);
  r.AddLayer("host.steal_share", StealShare(host0, host1), "ratio",
             "measured phase");
  AddServeLayerProbe(*st.data, *st.model, opt.seed, r);
}

}  // namespace perfbench
