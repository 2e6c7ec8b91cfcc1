// Shared scaffolding for the command-line tools (bslrec_train,
// bslrec_serve, bslrec_served): strict integer flag parsing, dataset
// selection from the common --dataset / --train-file / --test-file flags
// and the backbone table behind the common --backbone and --layers flags
// (their check at flag parsing, and the factory). Keeping
// these here means a new preset or backbone shows up in every tool at
// once instead of drifting.
#ifndef BSLREC_TOOLS_TOOL_UTIL_H_
#define BSLREC_TOOLS_TOOL_UTIL_H_

#include <charconv>
#include <cstdio>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <system_error>
#include <type_traits>

#include "data/dataset.h"
#include "data/loaders.h"
#include "data/synthetic.h"
#include "graph/bipartite_graph.h"
#include "math/check.h"
#include "models/contrastive.h"
#include "models/lightgcn.h"
#include "models/mf.h"
#include "models/ngcf.h"

namespace bslrec::tools {

// Parses the value of integer flag --`key`: all of `value` must be a
// base-10 integer in [lo, hi] (the bounds default to T's range; an
// unsigned flag takes no sign). Stores it in *out, or prints a
// diagnostic and returns false, so the tool fails flag parsing (exit 2
// with usage) instead of casting a wrapped or truncated value.
template <typename T>
bool ParseIntFlag(const std::string& key, const std::string& value, T* out,
                  std::type_identity_t<T> lo = std::numeric_limits<T>::min(),
                  std::type_identity_t<T> hi = std::numeric_limits<T>::max()) {
  T v{};
  const char* const end = value.data() + value.size();
  const std::from_chars_result r = std::from_chars(value.data(), end, v);
  if (r.ec != std::errc() || r.ptr != end || v < lo || v > hi) {
    std::fprintf(stderr, "--%s must be an integer in [%s, %s] (got '%s')\n",
                 key.c_str(), std::to_string(lo).c_str(),
                 std::to_string(hi).c_str(), value.c_str());
    return false;
  }
  *out = v;
  return true;
}

// Loads interaction files when given, otherwise generates the named
// synthetic preset (yelp|amazon|gowalla|ml1m). Returns nullopt with a
// stderr diagnostic on bad flags.
inline std::optional<Dataset> LoadDatasetFromFlags(
    const std::string& dataset, const std::string& train_file,
    const std::string& test_file, uint64_t seed) {
  if (!train_file.empty()) {
    if (test_file.empty()) {
      std::fprintf(stderr, "--train-file requires --test-file\n");
      return std::nullopt;
    }
    return LoadInteractions(train_file, test_file);
  }
  if (dataset == "yelp") {
    return GenerateSynthetic(Yelp18Synth(seed)).dataset;
  }
  if (dataset == "amazon") {
    return GenerateSynthetic(AmazonSynth(seed)).dataset;
  }
  if (dataset == "gowalla") {
    return GenerateSynthetic(GowallaSynth(seed)).dataset;
  }
  if (dataset == "ml1m") {
    return GenerateSynthetic(Movielens1MSynth(seed)).dataset;
  }
  std::fprintf(stderr, "unknown dataset '%s'\n", dataset.c_str());
  return std::nullopt;
}

// One backbone --backbone can name: its least --layers (NGCF needs a
// propagation layer; every other backbone runs with none) and its
// factory.
struct BackboneSpec {
  const char* name;
  int min_layers;
  std::unique_ptr<EmbeddingModel> (*make)(const BipartiteGraph& graph,
                                          size_t dim, int layers, Rng& rng);
};

// The backbones' factories: MF takes neither the graph nor the layer
// count, NGCF and LightGCN take both, and the contrastive backbones
// differ only in their augmentation.
inline std::unique_ptr<EmbeddingModel> MakeMf(const BipartiteGraph& graph,
                                              size_t dim, int /*layers*/,
                                              Rng& rng) {
  return std::make_unique<MfModel>(graph.num_users(), graph.num_items(), dim,
                                   rng);
}

template <typename Model>
std::unique_ptr<EmbeddingModel> MakeGraphModel(const BipartiteGraph& graph,
                                               size_t dim, int layers,
                                               Rng& rng) {
  return std::make_unique<Model>(graph, dim, layers, rng);
}

template <AugmentationKind kKind>
std::unique_ptr<EmbeddingModel> MakeContrastive(const BipartiteGraph& graph,
                                                size_t dim, int layers,
                                                Rng& rng) {
  ContrastiveConfig cc;
  cc.num_layers = layers;
  cc.kind = kKind;
  return std::make_unique<ContrastiveModel>(graph, dim, cc, rng);
}

// Every backbone of the tools, in --backbone's usage order
// (mf|ngcf|lightgcn|sgl|simgcl|lightgcl).
inline constexpr BackboneSpec kBackbones[] = {
    {"mf", 0, MakeMf},
    {"ngcf", 1, MakeGraphModel<NgcfModel>},
    {"lightgcn", 0, MakeGraphModel<LightGcnModel>},
    {"sgl", 0, MakeContrastive<AugmentationKind::kEdgeDropout>},
    {"simgcl", 0, MakeContrastive<AugmentationKind::kEmbeddingNoise>},
    {"lightgcl", 0, MakeContrastive<AugmentationKind::kSvdView>},
};

// The spec --backbone names, or nullptr.
inline const BackboneSpec* FindBackbone(const std::string& backbone) {
  for (const BackboneSpec& spec : kBackbones) {
    if (backbone == spec.name) return &spec;
  }
  return nullptr;
}

// Checks --backbone and --layers together, at flag parsing: false with a
// stderr diagnostic for an unknown backbone or a --layers below the
// backbone's minimum, so the tool exits 2 with usage before any data
// loads.
inline bool CheckBackboneFlags(const std::string& backbone, int layers) {
  const BackboneSpec* spec = FindBackbone(backbone);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown backbone '%s'\n", backbone.c_str());
    return false;
  }
  if (layers < spec->min_layers) {
    std::fprintf(stderr, "--backbone=%s needs --layers >= %d (got %d)\n",
                 spec->name, spec->min_layers, layers);
    return false;
  }
  return true;
}

// Builds the backbone named by --backbone; the flags must have passed
// CheckBackboneFlags.
inline std::unique_ptr<EmbeddingModel> MakeBackbone(
    const std::string& backbone, const BipartiteGraph& graph, size_t dim,
    int layers, Rng& rng) {
  const BackboneSpec* spec = FindBackbone(backbone);
  BSLREC_CHECK_MSG(spec != nullptr && layers >= spec->min_layers,
                   "MakeBackbone needs flags that passed CheckBackboneFlags");
  return spec->make(graph, dim, layers, rng);
}

}  // namespace bslrec::tools

#endif  // BSLREC_TOOLS_TOOL_UTIL_H_
