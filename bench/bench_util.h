// Shared experiment runner for the bench/ harnesses.
//
// Every table/figure binary funnels through RunExperiment so a row in any
// printed table means exactly one thing: train <backbone> with <loss> on
// <dataset> under the standard protocol, report best Recall@20 / NDCG@20.
//
// Set BSLREC_FAST=1 in the environment to shrink epochs (useful on CI);
// printed results then lose fidelity but every code path still runs.
#ifndef BSLREC_BENCH_BENCH_UTIL_H_
#define BSLREC_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/losses.h"
#include "data/synthetic.h"
#include "graph/bipartite_graph.h"
#include "math/vec.h"
#include "models/contrastive.h"
#include "models/lightgcn.h"
#include "models/mf.h"
#include "models/ngcf.h"
#include "runtime/thread_pool.h"
#include "sampling/negative_sampler.h"
#include "train/trainer.h"

namespace bslrec::bench {

enum class Backbone { kMf, kNgcf, kLightGcn, kSgl, kSimGcl, kLightGcl };

inline const char* BackboneName(Backbone b) {
  switch (b) {
    case Backbone::kMf:
      return "MF";
    case Backbone::kNgcf:
      return "NGCF";
    case Backbone::kLightGcn:
      return "LGN";
    case Backbone::kSgl:
      return "SGL";
    case Backbone::kSimGcl:
      return "SimGCL";
    case Backbone::kLightGcl:
      return "LightGCL";
  }
  return "?";
}

struct RunSpec {
  Backbone backbone = Backbone::kMf;
  LossKind loss = LossKind::kSoftmax;
  LossParams loss_params;
  // Optional temperature grid emulating the paper's per-cell grid search:
  // when non-empty, the run is repeated per tau (keeping the configured
  // tau1/tau2 ratio for BSL) and the best-NDCG result is reported.
  std::vector<double> tau_grid;
  size_t dim = 16;
  int layers = 2;
  double r_noise = 0.0;  // false-negative odds (0 = clean uniform sampler)
  TrainConfig train;
};

inline bool FastMode() {
  const char* env = std::getenv("BSLREC_FAST");
  return env != nullptr && env[0] == '1';
}

// BSLREC_SCALE=1 selects the opposite regime from BSLREC_FAST: a
// serving-scale workload (wide catalogs, production dims) for benches
// that support it. FAST wins when both are set.
inline bool ScaleMode() {
  const char* env = std::getenv("BSLREC_SCALE");
  return env != nullptr && env[0] == '1' && !FastMode();
}

// ---- machine topology ----------------------------------------------------
//
// Every BENCH_*.json leads with a "machine" object so a results file is
// interpretable without knowing which host produced it: thread count,
// SIMD tier the binary dispatched to, cache geometry (the tiled exact
// scan and the int8 IVF lists are cache-footprint plays), and which env
// switches shaped the workload. Cache fields are 0 when sysfs is
// unavailable (non-Linux, restricted containers) — absent, not wrong.

struct MachineTopology {
  size_t hardware_threads = 0;
  std::string simd_tier;        // vec::SimdTier(): "avx2" / "sse2" / "scalar"
  size_t cache_line_bytes = 0;  // coherency line size; 0 = unknown
  size_t l1d_kib = 0;           // per-core L1 data cache; 0 = unknown
  size_t l2_kib = 0;
  size_t l3_kib = 0;
  bool fast_mode = false;   // BSLREC_FAST=1
  bool scale_mode = false;  // BSLREC_SCALE=1
};

// Parses a sysfs cache size string ("32K", "8192K", "1M") into KiB;
// returns 0 on anything unrecognized.
inline size_t ParseCacheSizeKib(const std::string& s) {
  if (s.empty()) return 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (end == s.c_str()) return 0;
  if (*end == 'K') return static_cast<size_t>(v);
  if (*end == 'M') return static_cast<size_t>(v) * 1024;
  return 0;
}

inline MachineTopology QueryMachineTopology() {
  MachineTopology t;
  t.hardware_threads = runtime::ResolveNumThreads(0);
  t.simd_tier = vec::SimdTier();
  t.fast_mode = FastMode();
  t.scale_mode = ScaleMode();
  // cpu0's cache hierarchy stands in for the machine's (homogeneous
  // cores are the overwhelmingly common case; on hybrid parts this
  // reports the boot core).
  for (int idx = 0; idx < 8; ++idx) {
    const std::string base =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(idx) + "/";
    std::ifstream level_f(base + "level");
    std::ifstream type_f(base + "type");
    std::ifstream size_f(base + "size");
    if (!level_f || !type_f || !size_f) continue;
    int level = 0;
    std::string type, size_str;
    level_f >> level;
    type_f >> type;
    size_f >> size_str;
    if (type == "Instruction") continue;  // want data/unified capacities
    const size_t kib = ParseCacheSizeKib(size_str);
    if (level == 1) {
      t.l1d_kib = kib;
    } else if (level == 2) {
      t.l2_kib = kib;
    } else if (level == 3) {
      t.l3_kib = kib;
    }
    if (t.cache_line_bytes == 0) {
      std::ifstream line_f(base + "coherency_line_size");
      size_t bytes = 0;
      if (line_f >> bytes) t.cache_line_bytes = bytes;
    }
  }
  return t;
}

// ---- BENCH_*.json envelope -----------------------------------------------
//
// Opens `path`, writes the opening brace plus the shared "machine"
// header, and returns the stream (nullptr + stderr diagnostic on
// failure). The bench then prints its own payload keys and closes the
// envelope with FinishBenchJson, which appends the determinism-probe
// verdict as "bit_identical", closes the file, and logs the write.

inline FILE* BeginBenchJson(const char* path) {
  FILE* out = std::fopen(path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return nullptr;
  }
  const MachineTopology t = QueryMachineTopology();
  std::fprintf(out, "{\n");
  std::fprintf(out,
               "  \"machine\": {\"hardware_threads\": %zu, "
               "\"simd_tier\": \"%s\", \"cache_line_bytes\": %zu, "
               "\"l1d_kib\": %zu, \"l2_kib\": %zu, \"l3_kib\": %zu, "
               "\"fast_mode\": %s, \"scale_mode\": %s},\n",
               t.hardware_threads, t.simd_tier.c_str(), t.cache_line_bytes,
               t.l1d_kib, t.l2_kib, t.l3_kib, t.fast_mode ? "true" : "false",
               t.scale_mode ? "true" : "false");
  std::fprintf(out, "  \"hardware_threads\": %zu,\n", t.hardware_threads);
  return out;
}

inline void FinishBenchJson(FILE* out, const char* path, bool probe_passed) {
  std::fprintf(out, "  \"bit_identical\": %s\n",
               probe_passed ? "true" : "false");
  std::fprintf(out, "}\n");
  std::fclose(out);
  std::printf("wrote %s\n", path);
}

// Standard protocol used by (almost) every figure/table.
inline TrainConfig DefaultTrainConfig() {
  TrainConfig cfg;
  cfg.epochs = FastMode() ? 4 : 18;
  cfg.batch_size = 1024;
  cfg.num_negatives = 64;
  cfg.lr = 0.05;
  cfg.weight_decay = 1e-6;
  cfg.eval_every = 6;
  cfg.metric_k = 20;
  cfg.seed = 2024;
  return cfg;
}

inline std::unique_ptr<EmbeddingModel> MakeModel(Backbone backbone,
                                                 const BipartiteGraph& graph,
                                                 size_t dim, int layers,
                                                 Rng& rng) {
  switch (backbone) {
    case Backbone::kMf:
      return std::make_unique<MfModel>(graph.num_users(), graph.num_items(),
                                       dim, rng);
    case Backbone::kNgcf:
      return std::make_unique<NgcfModel>(graph, dim, layers, rng);
    case Backbone::kLightGcn:
      return std::make_unique<LightGcnModel>(graph, dim, layers, rng);
    case Backbone::kSgl: {
      ContrastiveConfig cc;
      cc.kind = AugmentationKind::kEdgeDropout;
      cc.num_layers = layers;
      return std::make_unique<ContrastiveModel>(graph, dim, cc, rng);
    }
    case Backbone::kSimGcl: {
      ContrastiveConfig cc;
      cc.kind = AugmentationKind::kEmbeddingNoise;
      cc.num_layers = layers;
      return std::make_unique<ContrastiveModel>(graph, dim, cc, rng);
    }
    case Backbone::kLightGcl: {
      ContrastiveConfig cc;
      cc.kind = AugmentationKind::kSvdView;
      cc.num_layers = layers;
      return std::make_unique<ContrastiveModel>(graph, dim, cc, rng);
    }
  }
  return nullptr;
}

// Trains one configuration and returns the best (by NDCG) checkpoint
// metrics — the paper's grid-search-with-early-stopping protocol.
inline TopKMetrics RunExperimentOnce(const Dataset& data,
                                     const RunSpec& spec) {
  const BipartiteGraph graph(data);
  Rng rng(spec.train.seed ^ 0x5EEDBA5EULL);
  std::unique_ptr<EmbeddingModel> model =
      MakeModel(spec.backbone, graph, spec.dim, spec.layers, rng);
  const std::unique_ptr<LossFunction> loss =
      CreateLoss(spec.loss, spec.loss_params);
  std::unique_ptr<NegativeSampler> sampler;
  if (spec.r_noise > 0.0) {
    sampler = std::make_unique<NoisyNegativeSampler>(data, spec.r_noise);
  } else {
    sampler = std::make_unique<UniformNegativeSampler>(data);
  }
  Trainer trainer(data, *model, *loss, *sampler, spec.train);
  return trainer.Train().best;
}

inline bool IsSoftmaxFamily(LossKind kind) {
  return kind == LossKind::kSoftmax || kind == LossKind::kBsl ||
         kind == LossKind::kSoftmaxNoVariance ||
         kind == LossKind::kVarianceAugmentedMean;
}

inline TopKMetrics RunExperiment(const Dataset& data, const RunSpec& spec) {
  if (spec.tau_grid.empty() || !IsSoftmaxFamily(spec.loss)) {
    return RunExperimentOnce(data, spec);
  }
  const double ratio = spec.loss_params.tau1 / spec.loss_params.tau;
  TopKMetrics best;
  for (double tau : spec.tau_grid) {
    RunSpec point = spec;
    point.loss_params.tau = tau;
    point.loss_params.tau1 = tau * ratio;
    const TopKMetrics m = RunExperimentOnce(data, point);
    if (m.ndcg > best.ndcg) best = m;
  }
  return best;
}

// The two-point grid used by the headline tables (MF peaks near 0.6 on
// the presets, propagated GCN embeddings nearer 0.9; Corollary III.1).
inline std::vector<double> DefaultTauGrid() {
  return FastMode() ? std::vector<double>{0.6} : std::vector<double>{0.6, 0.9};
}

// ---- table formatting helpers ----

inline void PrintHeader(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

inline void PrintRule(int width = 78) {
  for (int i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

}  // namespace bslrec::bench

#endif  // BSLREC_BENCH_BENCH_UTIL_H_
