// bslrec_train — command-line trainer/evaluator for the bslrec library.
//
// Train any backbone x loss combination on a synthetic preset or on your
// own interaction files, report Recall/NDCG/Precision/HitRate@K, and
// optionally save/load embedding checkpoints.
//
// Examples:
//   bslrec_train --dataset=yelp --backbone=mf --loss=BSL
//                --tau=0.6 --tau1=0.72 --epochs=30
//   bslrec_train --train-file=train.txt --test-file=test.txt
//                --backbone=lightgcn --loss=SL --in-batch --save=model.ckpt
//
// All flags are --key=value (or bare --key for booleans); unknown flags
// abort with usage.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "core/losses.h"
#include "eval/evaluator.h"
#include "graph/bipartite_graph.h"
#include "models/checkpoint.h"
#include "runtime/runtime_config.h"
#include "sampling/negative_sampler.h"
#include "tool_util.h"
#include "train/trainer.h"

namespace {

using bslrec::LossKind;
using bslrec::runtime::kMaxThreads;
using bslrec::tools::ParseIntFlag;

struct Options {
  std::string dataset = "yelp";  // yelp|amazon|gowalla|ml1m
  std::string train_file;
  std::string test_file;
  std::string backbone = "mf";  // mf|ngcf|lightgcn|sgl|simgcl|lightgcl
  std::string loss = "BSL";
  double tau = 0.6;
  double tau1 = 0.66;
  double margin = 0.5;
  double negative_weight = 1.0;
  size_t dim = 32;
  int layers = 2;
  int epochs = 30;
  double lr = 0.05;
  double weight_decay = 1e-6;
  size_t negatives = 64;
  size_t batch = 1024;
  bool in_batch = false;
  int eval_every = 5;
  uint32_t eval_k = 20;
  uint64_t seed = 42;
  size_t threads = 0;  // 0 = hardware concurrency, 1 = serial
  bool async_eval = false;
  size_t eval_threads = 0;  // 0 = half the training budget
  std::string save_path;
  std::string load_path;
};

void Usage() {
  std::fprintf(
      stderr,
      "usage: bslrec_train [--dataset=yelp|amazon|gowalla|ml1m]\n"
      "                    [--train-file=F --test-file=F]\n"
      "                    [--backbone=mf|ngcf|lightgcn|sgl|simgcl|lightgcl]\n"
      "                    [--loss=BPR|BCE|MSE|SL|SL-full|BSL|CML|CCL]\n"
      "                    [--tau=X] [--tau1=X] [--margin=X]\n"
      "                    [--dim=N] [--layers=N] [--epochs=N] [--lr=X]\n"
      "                    [--negatives=N] [--batch=N] [--in-batch]\n"
      "                    [--eval-every=N] [--eval-k=N] [--seed=N]\n"
      "                    [--threads=N] [--async-eval] [--eval-threads=N]\n"
      "                    [--save=F] [--load=F]\n"
      "\n"
      "--threads: worker count for training, evaluation, and graph\n"
      "propagation — the trainer hands its pool to the model, so GCN\n"
      "backbones' Forward/Backward parallelize too (0 = one per\n"
      "hardware thread, 1 = serial). Results are bit-identical for any\n"
      "value.\n"
      "\n"
      "--async-eval: overlap each periodic evaluation with the next\n"
      "training epoch — the trainer freezes a model snapshot and a\n"
      "background pool runs the full ranking pass while training\n"
      "continues. Reported metrics are bit-identical to synchronous\n"
      "evaluation; only wall time changes. --eval-threads sizes the\n"
      "background pool (0 = half of --threads, at least 1).\n");
}

bool ParseFlags(int argc, char** argv, Options& opts) {
  for (int a = 1; a < argc; ++a) {
    std::string arg = argv[a];
    if (arg.rfind("--", 0) != 0) {
      std::fprintf(stderr, "unexpected argument '%s'\n", arg.c_str());
      return false;
    }
    arg = arg.substr(2);
    std::string key = arg, value;
    const size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      key = arg.substr(0, eq);
      value = arg.substr(eq + 1);
    }
    const auto as_double = [&]() { return std::atof(value.c_str()); };
    bool ok = true;  // false once an integer flag fails to parse
    if (key == "dataset") {
      opts.dataset = value;
    } else if (key == "train-file") {
      opts.train_file = value;
    } else if (key == "test-file") {
      opts.test_file = value;
    } else if (key == "backbone") {
      opts.backbone = value;
    } else if (key == "loss") {
      opts.loss = value;
    } else if (key == "tau") {
      opts.tau = as_double();
    } else if (key == "tau1") {
      opts.tau1 = as_double();
    } else if (key == "margin") {
      opts.margin = as_double();
    } else if (key == "negative-weight") {
      opts.negative_weight = as_double();
    } else if (key == "dim") {
      ok = ParseIntFlag(key, value, &opts.dim, 1);
    } else if (key == "layers") {
      ok = ParseIntFlag(key, value, &opts.layers, 0);
    } else if (key == "epochs") {
      ok = ParseIntFlag(key, value, &opts.epochs, 0);
    } else if (key == "lr") {
      opts.lr = as_double();
    } else if (key == "weight-decay") {
      opts.weight_decay = as_double();
    } else if (key == "negatives") {
      // A sampled batch indexes its batch x (1 + N-) item terms in 32
      // bits (checked against --batch below).
      ok = ParseIntFlag(key, value, &opts.negatives, 1, UINT32_MAX - 1);
    } else if (key == "batch") {
      ok = ParseIntFlag(key, value, &opts.batch, 1);
    } else if (key == "in-batch") {
      opts.in_batch = true;
    } else if (key == "eval-every") {
      ok = ParseIntFlag(key, value, &opts.eval_every, 1);
    } else if (key == "eval-k") {
      ok = ParseIntFlag(key, value, &opts.eval_k, 1);
    } else if (key == "seed") {
      ok = ParseIntFlag(key, value, &opts.seed);
    } else if (key == "threads") {
      ok = ParseIntFlag(key, value, &opts.threads, 0, kMaxThreads);
    } else if (key == "async-eval") {
      opts.async_eval = true;
    } else if (key == "eval-threads") {
      ok = ParseIntFlag(key, value, &opts.eval_threads, 0, kMaxThreads);
    } else if (key == "save") {
      opts.save_path = value;
    } else if (key == "load") {
      opts.load_path = value;
    } else if (key == "help") {
      Usage();
      std::exit(0);
    } else {
      std::fprintf(stderr, "unknown flag '--%s'\n", key.c_str());
      return false;
    }
    if (!ok) return false;
  }
  if (!bslrec::tools::CheckBackboneFlags(opts.backbone, opts.layers)) {
    return false;
  }
  if (!opts.in_batch && opts.batch > UINT32_MAX / (1 + opts.negatives)) {
    std::fprintf(stderr,
                 "--batch x (1 + --negatives) must be at most 2^32 - 1\n");
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  if (!ParseFlags(argc, argv, opts)) {
    Usage();
    return 2;
  }

  const auto data = bslrec::tools::LoadDatasetFromFlags(
      opts.dataset, opts.train_file, opts.test_file, opts.seed);
  if (!data.has_value()) return 1;
  std::printf("data: %u users, %u items, %zu train, %zu test (%.3f%% dense)\n",
              data->num_users(), data->num_items(), data->num_train(),
              data->num_test(), 100.0 * data->TrainDensity());

  const auto loss_kind = bslrec::ParseLossKind(opts.loss);
  if (!loss_kind.has_value()) {
    std::fprintf(stderr, "unknown loss '%s'\n", opts.loss.c_str());
    return 1;
  }
  bslrec::LossParams loss_params;
  loss_params.tau = opts.tau;
  loss_params.tau1 = opts.tau1;
  loss_params.margin = opts.margin;
  loss_params.negative_weight = opts.negative_weight;
  const auto loss = bslrec::CreateLoss(*loss_kind, loss_params);

  const bslrec::BipartiteGraph graph(*data);
  bslrec::Rng rng(opts.seed);
  auto model = bslrec::tools::MakeBackbone(opts.backbone, graph, opts.dim,
                                           opts.layers, rng);
  if (!opts.load_path.empty() &&
      !bslrec::LoadModelParams(*model, opts.load_path)) {
    return 1;
  }

  bslrec::UniformNegativeSampler sampler(*data);
  bslrec::TrainConfig cfg;
  cfg.epochs = opts.epochs;
  cfg.batch_size = opts.batch;
  cfg.num_negatives = opts.negatives;
  cfg.sampling_mode = opts.in_batch
                          ? bslrec::SamplingMode::kInBatch
                          : bslrec::SamplingMode::kSampledNegatives;
  cfg.lr = opts.lr;
  cfg.weight_decay = opts.weight_decay;
  cfg.eval_every = opts.eval_every;
  cfg.metric_k = opts.eval_k;
  cfg.seed = opts.seed;
  cfg.runtime.num_threads = opts.threads;
  cfg.async_eval = opts.async_eval;
  cfg.runtime.eval_threads = opts.eval_threads;

  bslrec::Trainer trainer(*data, *model, *loss, sampler, cfg);
  std::printf("training %s + %s (dim %zu, %d epochs)...\n",
              opts.backbone.c_str(), opts.loss.c_str(), opts.dim,
              opts.epochs);
  const bslrec::TrainResult result = trainer.Train();
  if (result.non_finite.has_value()) {
    const bslrec::NonFiniteLoss& bad = *result.non_finite;
    std::fprintf(stderr,
                 "training stopped: non-finite loss %g in epoch %d, batch "
                 "%zu, shard %zu (nothing stepped from that batch on)\n",
                 bad.shard_loss, bad.epoch, bad.batch, bad.shard);
    return 1;
  }
  // Round-trip precision: two runs print the same line exactly when
  // their metrics are the same doubles.
  std::printf(
      "best (epoch %d): Recall@%u %.17g  NDCG@%u %.17g  Precision@%u %.17g  "
      "HitRate@%u %.17g\n",
      result.best_epoch, opts.eval_k, result.best.recall, opts.eval_k,
      result.best.ndcg, opts.eval_k, result.best.precision, opts.eval_k,
      result.best.hit_rate);

  if (!opts.save_path.empty()) {
    if (!bslrec::SaveModelParams(*model, opts.save_path)) return 1;
    std::printf("checkpoint written to %s\n", opts.save_path.c_str());
  }
  return 0;
}
