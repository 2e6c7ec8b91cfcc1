// bslrec_serve — synchronous top-k serving CLI.
//
// Loads a dataset and a model checkpoint, freezes the model into a
// serving snapshot, and answers top-k recommendation requests from
// stdin (or --requests=FILE), batching consecutive requests for
// throughput. Batches are served one at a time by a single driver
// (serve::InferenceService over a --threads pool). For concurrent
// producers over a socket, run the bslrec_served daemon instead: it
// reads the same request lines and takes the same scoring flags, plus
// the front door's batching and admission flags.
//
// Requests are parsed through the shared wire grammar (serve/wire.h —
// the same grammar serve::NetServer speaks on a socket), one request
// per line:
//   <user> [<k>] [all]                        (legacy CLI form)
//   TOPK <user> <k> [FILTER=..] [LANE=..] ...  (wire form)
// where <user> is the user id, <k> overrides the default cutoff and
// the literal word "all" disables seen-item filtering (train positives
// are masked by default). Blank lines and lines starting with '#' are
// skipped. Responses are printed one line per request, in input order:
//   user=<u> k=<k> items=<item>:<score>,...
// A wire-form line's LANE=, DEADLINE_US= and ID= fields parse but do
// not change the response: lanes and deadlines are front-door policy.
//
// Examples:
//   bslrec_train --dataset=yelp --loss=BSL --save=model.ckpt
//   echo "3 10" | bslrec_serve --dataset=yelp --load=model.ckpt
//   bslrec_serve --dataset=yelp --load=model.ckpt
//                --requests=reqs.txt --batch=256 --threads=8
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "graph/bipartite_graph.h"
#include "models/checkpoint.h"
#include "serve/inference_service.h"
#include "serve/wire.h"
#include "tool_util.h"

namespace {

using namespace bslrec;  // NOLINT: tool-local convenience

struct Options {
  std::string dataset = "yelp";  // yelp|amazon|gowalla|ml1m
  std::string train_file;
  std::string test_file;
  std::string backbone = "mf";  // mf|ngcf|lightgcn|sgl|simgcl|lightgcl
  size_t dim = 32;
  int layers = 2;
  std::string load_path;
  std::string requests_file;  // empty = stdin
  uint32_t k = 10;            // default cutoff per request
  uint32_t max_k = 100;       // cache / prefix-reuse depth
  uint32_t shard_items = serve::CatalogScorer::kDefaultItemsPerShard;
  size_t batch = 32;          // requests handled per HandleBatch call
  bool no_cache = false;
  bool quantize = false;      // int8 IVF list scan (needs --ann)
  bool ann = false;           // IVF approximate retrieval
  uint32_t nlist = 0;         // coarse lists (0 = ceil(sqrt(num_items)))
  uint32_t nprobe = serve::kDefaultNprobe;  // lists visited per query
  bool recall = false;        // replay against an exact reference
  uint32_t margin = serve::kDefaultCandidateMargin;
  uint64_t seed = 42;
  size_t threads = 0;  // 0 = hardware concurrency, 1 = serial
};

void Usage() {
  std::fprintf(
      stderr,
      "usage: bslrec_serve [--dataset=yelp|amazon|gowalla|ml1m]\n"
      "                    [--train-file=F --test-file=F]\n"
      "                    [--backbone=mf|ngcf|lightgcn|sgl|simgcl|lightgcl]\n"
      "                    [--dim=N] [--layers=N] [--load=CKPT]\n"
      "                    [--requests=FILE] [--k=N] [--max-k=N]\n"
      "                    [--batch=N] [--shard-items=N] [--no-cache]\n"
      "                    [--ann] [--nlist=N] [--nprobe=P] [--recall]\n"
      "                    [--quantize] [--margin=N]\n"
      "                    [--threads=N] [--seed=N]\n"
      "\n"
      "Serves top-k recommendations from a frozen model snapshot, one\n"
      "batch at a time. Requests are read from --requests (default:\n"
      "stdin), one per line: '<user> [<k>] [all]' — k defaults to --k;\n"
      "'all' disables seen-item filtering for that request. Output, in\n"
      "input order:\n"
      "  user=<u> k=<k> items=<item>:<score>,...\n"
      "For concurrent clients over a socket, with micro-batching,\n"
      "admission control, lanes, deadlines and brownout, run\n"
      "bslrec_served.\n"
      "\n"
      "--load:        checkpoint from bslrec_train --save (without it\n"
      "               the model serves its random initialization)\n"
      "--batch:       requests grouped per HandleBatch call (>= 1);\n"
      "               responses are identical for any batch size\n"
      "--max-k:       per-user rankings are cached at this depth and\n"
      "               smaller cutoffs served as prefixes\n"
      "--shard-items: catalog items per scoring shard (a worker's\n"
      "               score buffer holds one request block's scores\n"
      "               for one shard)\n"
      "--ann:         approximate retrieval through an IVF coarse index\n"
      "               built at snapshot time: score --nlist centroids,\n"
      "               visit the top --nprobe lists, exact fp32 re-rank\n"
      "               the gathered candidates. Composes with --quantize\n"
      "               (int8 list scans, then the fp32 re-rank).\n"
      "               Responses are deterministic (bit-identical for any\n"
      "               --threads / --batch / --shard-items) but may miss\n"
      "               items outside the probed lists\n"
      "--nlist:       coarse lists in the IVF index\n"
      "               (0 = ceil(sqrt(num_items)))\n"
      "--nprobe:      lists visited per query (clamped to [1, nlist]);\n"
      "               higher = better recall, slower\n"
      "--recall:      after serving, replay every request against an\n"
      "               exact reference scorer and report measured\n"
      "               recall-vs-exact on stderr (needs --ann)\n"
      "--quantize:    scan the IVF lists as int8 codes, then re-rank\n"
      "               the best --margin + k candidates in fp32 (needs\n"
      "               --ann)\n"
      "--margin:      extra int8 candidates per request beyond k kept\n"
      "               for the fp32 re-rank (--ann --quantize; larger =\n"
      "               fewer true top-k items lost to int8 rounding)\n"
      "--threads:     worker count (0 = one per hardware thread,\n"
      "               1 = serial). Results are bit-identical for any\n"
      "               value.\n");
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
    const auto as_int = [&]() { return std::atoll(value.c_str()); };
    if (key == "dataset") {
      opts.dataset = value;
    } else if (key == "train-file") {
      opts.train_file = value;
    } else if (key == "test-file") {
      opts.test_file = value;
    } else if (key == "backbone") {
      opts.backbone = value;
    } else if (key == "dim") {
      opts.dim = static_cast<size_t>(as_int());
    } else if (key == "layers") {
      opts.layers = static_cast<int>(as_int());
    } else if (key == "load") {
      opts.load_path = value;
    } else if (key == "requests") {
      opts.requests_file = value;
    } else if (key == "k") {
      opts.k = static_cast<uint32_t>(as_int());
    } else if (key == "max-k") {
      opts.max_k = static_cast<uint32_t>(as_int());
    } else if (key == "shard-items") {
      opts.shard_items = static_cast<uint32_t>(as_int());
    } else if (key == "batch") {
      opts.batch = static_cast<size_t>(as_int());
    } else if (key == "no-cache") {
      opts.no_cache = true;
    } else if (key == "quantize") {
      opts.quantize = true;
    } else if (key == "ann") {
      opts.ann = true;
    } else if (key == "nlist") {
      opts.nlist = static_cast<uint32_t>(as_int());
    } else if (key == "nprobe") {
      opts.nprobe = static_cast<uint32_t>(as_int());
    } else if (key == "recall") {
      opts.recall = true;
    } else if (key == "margin") {
      opts.margin = static_cast<uint32_t>(as_int());
    } else if (key == "seed") {
      opts.seed = static_cast<uint64_t>(as_int());
    } else if (key == "threads") {
      const long long n = as_int();
      if (n < 0) {
        std::fprintf(stderr, "--threads must be >= 0 (got %lld)\n", n);
        return false;
      }
      opts.threads = static_cast<size_t>(n);
    } else if (key == "help") {
      Usage();
      std::exit(0);
    } else {
      std::fprintf(stderr, "unknown flag '--%s'\n", key.c_str());
      return false;
    }
  }
  if (opts.k == 0 || opts.max_k == 0 || opts.batch == 0 ||
      opts.shard_items == 0) {
    std::fprintf(stderr, "--k, --max-k, --batch, --shard-items must be > 0\n");
    return false;
  }
  if (opts.ann && opts.nprobe == 0) {
    std::fprintf(stderr, "--nprobe must be >= 1\n");
    return false;
  }
  if (opts.quantize && !opts.ann) {
    std::fprintf(stderr,
                 "--quantize scans the IVF lists as int8 and needs --ann\n");
    return false;
  }
  if (opts.recall && !opts.ann) {
    std::fprintf(stderr,
                 "--recall needs the approximate mode (--ann); exact "
                 "responses match the reference by construction\n");
    return false;
  }
  return true;
}

// Parses one request line through the shared wire grammar (wire.h);
// returns false (with the historical stderr diagnostic) on malformed
// input or an out-of-range user.
bool ParseRequest(const std::string& line, const Options& opts,
                  uint32_t num_users, serve::TopKRequest& req) {
  serve::wire::ParseOptions parse_opts;
  parse_opts.num_users = num_users;
  parse_opts.default_k = opts.k;
  serve::wire::ParsedRequest parsed;
  const serve::ServeStatus status =
      serve::wire::ParseRequest(line, parse_opts, &parsed);
  if (!status.ok()) {
    std::fprintf(stderr, "bad request '%s': %s\n", line.c_str(),
                 status.detail.c_str());
    return false;
  }
  req = parsed.topk;
  return true;
}

void PrintResponses(const std::vector<serve::TopKRequest>& reqs,
                    const std::vector<serve::TopKResponse>& resps) {
  for (size_t i = 0; i < reqs.size(); ++i) {
    std::printf("%s\n",
                serve::wire::FormatCliResponse(reqs[i], resps[i]).c_str());
  }
}

// Short human tag for the active scan mode in the snapshot-ready line.
std::string ModeSuffix(const Options& opts) {
  return opts.ann ? ", ivf index" : "";
}

// Replays `reqs` against an exact reference service built from the same
// model/threads and reports the mean per-request overlap fraction
// |approx ∩ exact| / |exact| — the measured recall of the approximate
// responses in `resps`. Exact scoring is deterministic, so this is the
// same reference bench_serve sweeps against.
void ReportRecall(const Options& opts, const Dataset& data,
                  const EmbeddingModel& model, const serve::ServeConfig& cfg,
                  const std::vector<serve::TopKRequest>& reqs,
                  const std::vector<serve::TopKResponse>& resps) {
  serve::ServeConfig ref_cfg = cfg;
  ref_cfg.quantize = false;
  ref_cfg.exact = true;
  ref_cfg.ivf = serve::IvfBuildOptions{};
  serve::InferenceService ref(data, model, ref_cfg);
  double sum = 0.0;
  size_t counted = 0;
  for (size_t i = 0; i < reqs.size(); i += opts.batch) {
    const size_t n = std::min(opts.batch, reqs.size() - i);
    const std::vector<serve::TopKResponse> exact =
        ref.HandleBatch({reqs.data() + i, n});
    for (size_t j = 0; j < n; ++j) {
      if (exact[j].items.empty()) continue;
      size_t hits = 0;
      for (uint32_t item : resps[i + j].items) {
        for (uint32_t e : exact[j].items) {
          if (e == item) {
            ++hits;
            break;
          }
        }
      }
      sum += static_cast<double>(hits) /
             static_cast<double>(exact[j].items.size());
      ++counted;
    }
  }
  std::fprintf(stderr, "measured recall@%u vs exact: %.4f (%zu requests)\n",
               opts.k,
               counted > 0 ? sum / static_cast<double>(counted) : 1.0,
               counted);
}

// IVF probe counters for the stderr summary (--ann).
void ReportScanStats(const serve::CatalogScorer& scorer) {
  const serve::CatalogScorer::Stats st = scorer.stats();
  std::fprintf(stderr,
               "ivf probe: %llu queries, %llu lists visited, %llu "
               "candidates gathered, %llu re-ranked\n",
               static_cast<unsigned long long>(st.ivf_queries),
               static_cast<unsigned long long>(st.ivf_lists),
               static_cast<unsigned long long>(st.ivf_candidates),
               static_cast<unsigned long long>(st.ivf_reranked));
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  if (!ParseFlags(argc, argv, opts)) {
    Usage();
    return 2;
  }

  const auto data = tools::LoadDatasetFromFlags(opts.dataset, opts.train_file,
                                                opts.test_file, opts.seed);
  if (!data.has_value()) return 1;
  std::fprintf(stderr, "data: %u users, %u items, %zu train interactions\n",
               data->num_users(), data->num_items(), data->num_train());

  const BipartiteGraph graph(*data);
  Rng rng(opts.seed);
  auto model =
      tools::MakeBackbone(opts.backbone, graph, opts.dim, opts.layers, rng);
  if (model == nullptr) return 1;
  if (!opts.load_path.empty()) {
    if (!LoadModelParams(*model, opts.load_path)) return 1;
    std::fprintf(stderr, "loaded checkpoint %s\n", opts.load_path.c_str());
  } else {
    std::fprintf(stderr,
                 "warning: no --load given, serving random-init %s model\n",
                 opts.backbone.c_str());
  }
  model->Forward(rng);  // materialize final embeddings for the snapshot

  serve::ServeConfig cfg;
  cfg.max_k = opts.max_k;
  cfg.items_per_shard = opts.shard_items;
  cfg.cache_rankings = !opts.no_cache;
  cfg.quantize = opts.quantize;
  cfg.exact = !opts.ann;
  cfg.nprobe = opts.nprobe;
  cfg.ivf.nlist = opts.nlist;
  cfg.candidate_margin = opts.margin;
  cfg.runtime.num_threads = opts.threads;
  std::ifstream req_file;
  if (!opts.requests_file.empty()) {
    req_file.open(opts.requests_file);
    if (!req_file) {
      std::fprintf(stderr, "cannot open --requests file '%s'\n",
                   opts.requests_file.c_str());
      return 1;
    }
  }
  std::istream& in = opts.requests_file.empty() ? std::cin : req_file;

  serve::InferenceService service(*data, *model, cfg);
  std::fprintf(stderr, "snapshot ready (%u users x %u items, dim %zu%s)\n",
               service.snapshot().num_users(), service.snapshot().num_items(),
               service.snapshot().dim(), ModeSuffix(opts).c_str());

  size_t served = 0, malformed = 0;
  double total_secs = 0.0;
  std::vector<serve::TopKRequest> batch;
  // --recall retains every request/response pair for the reference
  // replay after serving.
  std::vector<serve::TopKRequest> all_reqs;
  std::vector<serve::TopKResponse> all_resps;
  const auto flush = [&]() {
    if (batch.empty()) return;
    const auto t0 = std::chrono::steady_clock::now();
    const std::vector<serve::TopKResponse> resps =
        service.HandleBatch(batch);
    total_secs += std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
    PrintResponses(batch, resps);
    if (opts.recall) {
      all_reqs.insert(all_reqs.end(), batch.begin(), batch.end());
      all_resps.insert(all_resps.end(), resps.begin(), resps.end());
    }
    served += batch.size();
    batch.clear();
  };

  std::string line;
  while (std::getline(in, line)) {
    if (serve::wire::IsIgnorableLine(line)) continue;
    serve::TopKRequest req;
    if (!ParseRequest(line, opts, data->num_users(), req)) {
      ++malformed;
      continue;
    }
    batch.push_back(req);
    if (batch.size() >= opts.batch) flush();
  }
  flush();

  std::fprintf(stderr,
               "served %zu requests in %.1f ms (%.0f req/s), %zu malformed\n",
               served, total_secs * 1000.0,
               total_secs > 0.0 ? static_cast<double>(served) / total_secs
                                : 0.0,
               malformed);
  if (opts.ann) ReportScanStats(service.scorer());
  if (opts.recall) {
    ReportRecall(opts, *data, *model, cfg, all_reqs, all_resps);
  }
  return malformed == 0 ? 0 : 1;
}
