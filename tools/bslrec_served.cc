// bslrec_served — network serving daemon for the front door.
//
// Loads a dataset and a model checkpoint, freezes the model into a
// serving snapshot behind the concurrent front door
// (serve::ServingFrontEnd), and serves top-k requests over TCP through
// serve::NetServer: a non-blocking epoll loop whose connection
// handlers do no scoring — every parsed line becomes a front-door
// Submit, so micro-batching, admission control, deadlines, lanes, and
// brownout all apply to socket traffic exactly as they do in-process.
// This is the serving entry point for concurrent producers;
// bslrec_serve answers a request file or stdin synchronously, with the
// same scoring flags and the same request lines.
//
// The protocol is the newline-delimited grammar documented atop
// src/serve/wire.h (both the TOPK wire form and the legacy
// '<user> [<k>] [all]' CLI form are accepted):
//   TOPK 3 10 LANE=interactive DEADLINE_US=5000 ID=a1
//   -> OK a1 none seq=1 17:0.812345 4:0.798101 ...
//   -> ERR a1 OVERLOAD retry_after_us=1000        (shed)
//   -> ERR a1 DEADLINE stage=queue                (SLO missed)
//   -> ERR a1 BAD_REQUEST <detail>                (malformed)
//
// A request's lane and deadline travel on its own line (LANE=,
// DEADLINE_US=), and every OK line names the tier that served it and
// the snapshot publication (seq=), so any socket client can replay a
// request file and attribute each response.
//
// SIGINT/SIGTERM stop the server gracefully: in-flight requests are
// answered and flushed before the process exits, then the front-door
// and transport stats print to stderr.
//
// Examples:
//   bslrec_train --dataset=yelp --loss=BSL --save=model.ckpt
//   bslrec_served --dataset=yelp --load=model.ckpt --port=7070
//   printf 'TOPK 3 10 ID=x\n' | nc 127.0.0.1 7070
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "graph/bipartite_graph.h"
#include "models/checkpoint.h"
#include "serve/net_server.h"
#include "serve/serving_frontend.h"
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
  uint32_t k = 10;      // default cutoff for lines that name none
  uint32_t max_k = 100;  // cache / prefix-reuse depth
  uint32_t shard_items = serve::CatalogScorer::kDefaultItemsPerShard;
  bool no_cache = false;
  bool quantize = false;  // int8 IVF list scan (needs --ann)
  bool ann = false;
  uint32_t nlist = 0;
  uint32_t nprobe = serve::kDefaultNprobe;
  uint32_t margin = serve::kDefaultCandidateMargin;
  uint64_t seed = 42;
  size_t threads = 0;  // 0 = hardware concurrency, 1 = serial
  // ---- front door ----
  size_t batch = 32;        // micro-batch size (max_batch)
  uint32_t flush_us = 200;  // micro-batch flush deadline (us)
  size_t max_queue = 0;     // bounded queue depth (0 = unbounded)
  std::string overflow = "block";  // block|shed-newest|shed-oldest
  uint32_t deadline_us = 0;        // default per-request SLO (0 = none)
  uint32_t brownout_nprobe = 0;    // > 0 enables brownout degradation
  // ---- transport ----
  std::string bind = "127.0.0.1";
  uint16_t port = 7070;  // 0 = ephemeral (printed on startup)
  int backlog = 128;
  size_t io_threads = 1;
  size_t max_line = 4096;
};

void Usage() {
  std::fprintf(
      stderr,
      "usage: bslrec_served [--dataset=yelp|amazon|gowalla|ml1m]\n"
      "                     [--train-file=F --test-file=F]\n"
      "                     "
      "[--backbone=mf|ngcf|lightgcn|sgl|simgcl|lightgcl]\n"
      "                     [--dim=N] [--layers=N] [--load=CKPT]\n"
      "                     [--k=N] [--max-k=N] [--shard-items=N]\n"
      "                     [--no-cache]\n"
      "                     [--ann] [--nlist=N] [--nprobe=P] [--quantize]\n"
      "                     [--margin=N] [--threads=N] [--seed=N]\n"
      "                     [--batch=N] [--flush-us=D] [--max-queue=N]\n"
      "                     [--overflow=block|shed-newest|shed-oldest]\n"
      "                     [--deadline-us=D] [--brownout-nprobe=P]\n"
      "                     [--bind=ADDR] [--port=N] [--backlog=N]\n"
      "                     [--io-threads=N] [--max-line=N]\n"
      "\n"
      "Serves top-k recommendations over TCP: newline-delimited\n"
      "requests per the grammar atop src/serve/wire.h —\n"
      "  TOPK <user> <k> [FILTER=seen|none] [LANE=interactive|bulk]\n"
      "       [DEADLINE_US=n] [ID=token]\n"
      "or the legacy '<user> [<k>] [all]' CLI form. Responses:\n"
      "  OK <id> <degrade_mode> seq=<n> <item>:<score> ...\n"
      "  ERR <id> OVERLOAD retry_after_us=<n> | DEADLINE stage=<s> |\n"
      "      BAD_REQUEST <detail> | INTERNAL <detail>\n"
      "SIGINT/SIGTERM drain in-flight requests, then exit.\n"
      "\n"
      "Model / scoring flags (same meaning as bslrec_serve):\n"
      "--load:        checkpoint from bslrec_train --save (without it\n"
      "               the model serves its random initialization)\n"
      "--k:           cutoff for request lines that name no k\n"
      "--max-k:       per-user rankings are cached at this depth\n"
      "--shard-items: catalog items per scoring shard\n"
      "--ann:         IVF approximate retrieval (--nlist/--nprobe)\n"
      "--quantize:    int8 IVF list scan + fp32 re-rank (needs --ann)\n"
      "--margin:      extra int8 candidates per request kept for the\n"
      "               fp32 re-rank (--ann --quantize)\n"
      "--threads:     scorer workers (0 = hardware concurrency)\n"
      "\n"
      "Front-door flags (a request's lane travels on its own line as\n"
      "LANE=interactive|bulk):\n"
      "--batch:       micro-batch size (dispatcher flushes at N)\n"
      "--flush-us:    micro-batch flush deadline in microseconds\n"
      "--max-queue:   bound the front-door queue at N requests\n"
      "               (0 = unbounded); at capacity --overflow applies\n"
      "--overflow:    block | shed-newest | shed-oldest. Shed requests\n"
      "               answer 'ERR <id> OVERLOAD retry_after_us=<n>'\n"
      "--deadline-us: default SLO for requests without DEADLINE_US=;\n"
      "               missed deadlines answer 'ERR _ DEADLINE stage=_'\n"
      "--brownout-nprobe: enable brownout degradation at P IVF probes;\n"
      "               degraded responses carry their tier in the OK\n"
      "               line's <degrade_mode> field\n"
      "\n"
      "Transport flags:\n"
      "--bind:        listen address (default 127.0.0.1)\n"
      "--port:        listen port (0 = ephemeral; the bound port is\n"
      "               printed on startup)\n"
      "--backlog:     listen(2) backlog\n"
      "--io-threads:  epoll event-loop threads (>= 1); connections are\n"
      "               assigned round-robin. Handlers never score — all\n"
      "               scoring happens behind the front door\n"
      "--max-line:    longest accepted request line in bytes; a\n"
      "               connection exceeding it without a newline is\n"
      "               answered BAD_REQUEST and hung up\n");
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
    } else if (key == "k") {
      opts.k = static_cast<uint32_t>(as_int());
    } else if (key == "max-k") {
      opts.max_k = static_cast<uint32_t>(as_int());
    } else if (key == "shard-items") {
      opts.shard_items = static_cast<uint32_t>(as_int());
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
    } else if (key == "margin") {
      opts.margin = static_cast<uint32_t>(as_int());
    } else if (key == "seed") {
      opts.seed = static_cast<uint64_t>(as_int());
    } else if (key == "threads") {
      opts.threads = static_cast<size_t>(as_int());
    } else if (key == "batch") {
      opts.batch = static_cast<size_t>(as_int());
    } else if (key == "flush-us") {
      opts.flush_us = static_cast<uint32_t>(as_int());
    } else if (key == "max-queue") {
      opts.max_queue = static_cast<size_t>(as_int());
    } else if (key == "overflow") {
      opts.overflow = value;
    } else if (key == "deadline-us") {
      opts.deadline_us = static_cast<uint32_t>(as_int());
    } else if (key == "brownout-nprobe") {
      opts.brownout_nprobe = static_cast<uint32_t>(as_int());
    } else if (key == "bind") {
      opts.bind = value;
    } else if (key == "port") {
      opts.port = static_cast<uint16_t>(as_int());
    } else if (key == "backlog") {
      opts.backlog = static_cast<int>(as_int());
    } else if (key == "io-threads") {
      opts.io_threads = static_cast<size_t>(as_int());
    } else if (key == "max-line") {
      opts.max_line = static_cast<size_t>(as_int());
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
  if (opts.overflow != "block" && opts.overflow != "shed-newest" &&
      opts.overflow != "shed-oldest") {
    std::fprintf(stderr,
                 "--overflow must be block, shed-newest, or shed-oldest\n");
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
  if (opts.io_threads == 0 || opts.max_line == 0) {
    std::fprintf(stderr, "--io-threads and --max-line must be >= 1\n");
    return false;
  }
  return true;
}

serve::OverflowPolicy OverflowFromFlag(const std::string& name) {
  if (name == "shed-newest") return serve::OverflowPolicy::kShedNewest;
  if (name == "shed-oldest") return serve::OverflowPolicy::kShedOldest;
  return serve::OverflowPolicy::kBlock;
}

std::string ModeSuffix(const Options& opts) {
  return opts.ann ? ", ivf index" : "";
}

volatile std::sig_atomic_t g_stop_requested = 0;

void HandleStopSignal(int) { g_stop_requested = 1; }

void ReportStats(const serve::FrontEndStats& st,
                 const serve::NetServer::Stats& net) {
  std::fprintf(stderr,
               "net: %llu connections accepted (%llu closed), %llu lines, "
               "%llu requests, %llu bad, %llu ok / %llu err responses\n",
               static_cast<unsigned long long>(net.connections_accepted),
               static_cast<unsigned long long>(net.connections_closed),
               static_cast<unsigned long long>(net.lines),
               static_cast<unsigned long long>(net.requests),
               static_cast<unsigned long long>(net.bad_requests),
               static_cast<unsigned long long>(net.responses_ok),
               static_cast<unsigned long long>(net.responses_err));
  std::fprintf(stderr,
               "front door: %llu batches (%llu size / %llu deadline / "
               "%llu drain flushes), largest batch %llu\n",
               static_cast<unsigned long long>(st.batches),
               static_cast<unsigned long long>(st.size_flushes),
               static_cast<unsigned long long>(st.deadline_flushes),
               static_cast<unsigned long long>(st.drain_flushes),
               static_cast<unsigned long long>(st.max_batch_served));
  std::fprintf(stderr,
               "admission: %llu submitted, depth high-water %llu, "
               "%llu blocked submits, %llu shed-newest, %llu shed-oldest\n",
               static_cast<unsigned long long>(st.submitted),
               static_cast<unsigned long long>(st.queue_depth_high_water),
               static_cast<unsigned long long>(st.blocked_submits),
               static_cast<unsigned long long>(st.shed_newest),
               static_cast<unsigned long long>(st.shed_oldest));
  std::fprintf(stderr,
               "deadlines: %llu admission / %llu queue / %llu batch "
               "expiries\n",
               static_cast<unsigned long long>(st.expired_admission),
               static_cast<unsigned long long>(st.expired_queue),
               static_cast<unsigned long long>(st.expired_batch));
  std::fprintf(stderr,
               "brownout: %llu entries / %llu exits, %.1f ms degraded, "
               "%llu degraded responses\n",
               static_cast<unsigned long long>(st.brownout_entries),
               static_cast<unsigned long long>(st.brownout_exits),
               static_cast<double>(st.brownout_us) / 1000.0,
               static_cast<unsigned long long>(st.degraded_served));
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

  serve::FrontEndConfig fe;
  fe.max_batch = opts.batch;
  fe.flush_deadline_us = opts.flush_us;
  fe.max_queue_depth = opts.max_queue;
  fe.overflow = OverflowFromFlag(opts.overflow);
  fe.default_deadline_us = opts.deadline_us;
  if (opts.brownout_nprobe > 0) {
    fe.brownout.enable = true;
    fe.brownout.nprobe = opts.brownout_nprobe;
  }
  fe.serve.max_k = opts.max_k;
  fe.serve.items_per_shard = opts.shard_items;
  fe.serve.cache_rankings = !opts.no_cache;
  fe.serve.quantize = opts.quantize;
  fe.serve.exact = !opts.ann;
  fe.serve.nprobe = opts.nprobe;
  fe.serve.ivf.nlist = opts.nlist;
  fe.serve.candidate_margin = opts.margin;
  fe.serve.runtime.num_threads = opts.threads;
  serve::ServingFrontEnd frontend(*data, *model, fe);
  std::fprintf(stderr,
               "snapshot ready (%u users x %u items, dim %zu%s), "
               "front door: max_batch=%zu flush-us=%u\n",
               frontend.current_snapshot()->num_users(),
               frontend.current_snapshot()->num_items(),
               frontend.current_snapshot()->dim(), ModeSuffix(opts).c_str(),
               fe.max_batch, fe.flush_deadline_us);

  serve::NetServerConfig net;
  net.bind_address = opts.bind;
  net.port = opts.port;
  net.backlog = opts.backlog;
  net.io_threads = opts.io_threads;
  net.max_line_bytes = opts.max_line;
  net.default_k = opts.k;
  serve::NetServer server(frontend, net);
  if (!server.Start()) {
    std::fprintf(stderr, "cannot start server: %s\n",
                 server.last_error().c_str());
    return 1;
  }
  std::fprintf(stderr, "listening on %s:%u (%zu io threads)\n",
               opts.bind.c_str(), server.port(), opts.io_threads);

  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGTERM, HandleStopSignal);
  while (g_stop_requested == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  std::fprintf(stderr, "stop requested, draining...\n");
  server.Stop();
  ReportStats(frontend.stats(), server.stats());
  return 0;
}
