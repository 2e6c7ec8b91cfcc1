// Inference-service bench: per-batch latency percentiles (p50/p99) and
// request throughput for the top-k scorer across its two serving
// modes — exact fp32 scan and IVF approximate retrieval
// (ServeConfig::exact = false) — across batch sizes and 1 / 2 /
// hardware threads. Probes gate the exit code: exact responses must be
// bit-identical to the 1-thread baseline for every worker count, which
// sets how the exact scan splits the catalog, and batch packing; IVF
// responses must be bit-identical across thread counts and batch
// packings (and equal the exact scan outright at nprobe >= nlist).
// Emits machine-readable BENCH_serve.json into the working directory.
//
// An ANN tier sweeps (nlist, nprobe) and reports recall@k of each
// point's response lists against the exact scorer's, plus req/s; the
// headline is the fastest point clearing the 0.95 recall floor and its
// speedup over the exact scan under the same harness. The embedding
// tables are rewritten as clustered unit vectors (shared centers +
// small Gaussian noise) before serving: random-init tables have no
// neighborhood structure, so ANN recall on them measures noise rather
// than the index, while clustered tables mirror the locality trained
// embeddings have. Throughput and every bit-identity probe are
// insensitive to the table values.
//
// A second, closed-loop tier drives the concurrent front door
// (serve::ServingFrontEnd): N producer threads each keep exactly one
// request outstanding (submit, wait, repeat), so the adaptive
// micro-batcher — not a pre-packed batch — decides the batching.
// Reports per-request p50/p99 and aggregate req/s at several producer
// counts, plus a sustained train-and-serve scenario where snapshots
// are hot-swapped mid-traffic. Every front-door response is probed
// bit-identical to the synchronous path against the snapshot that
// served it; the probe gates the exit code alongside the others.
//
// A loopback socket tier then re-runs the closed loop through
// serve::NetServer: the same producer counts, but each producer is a
// TCP client on 127.0.0.1 speaking the wire grammar (wire.h), so the
// delta against the in-process front-door points is the cost of the
// transport itself — epoll loops, line parsing, the completion pump,
// and kernel round trips. Every response line is probed bytewise
// against wire::FormatResponse over the synchronous path; the probe
// gates the exit code alongside the others.
//
// An overload tier then pushes the front door past its service rate
// with an open-loop burst (a fault injector bounds service
// deterministically) and reports goodput, shed rate, deadline-miss
// rate, degraded fraction, and queue-wait p50/p99. Its probes gate the
// exit code too: the admission accounting identity (served + shed +
// deadline-missed == submitted, on both harvest and stats sides), the
// queue-depth bound, a forced-expiry sub-run proving a deadline-missed
// request is never fulfilled, and tier bit-identity of every served
// response (exact or the published brownout tier).
//
// The ranking cache is disabled so every request pays full catalog
// scoring — the numbers measure the scorer, not the cache.
//
// Tiers:
//   BSLREC_FAST=1   tiny catalog, few reps (CI smoke)
//   BSLREC_SCALE=1  serving-scale: 100k-item catalog, dim 128,
//                   power-law (zipf) item popularity.
//   (neither)       mid-size default
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench_util.h"
#include "data/synthetic.h"
#include "math/vec.h"
#include "models/mf.h"
#include "runtime/thread_pool.h"
#include "serve/fault_injector.h"
#include "serve/inference_service.h"
#include "serve/net_server.h"
#include "serve/ranking_engine.h"
#include "serve/serving_frontend.h"
#include "serve/wire.h"

namespace {

using namespace bslrec;  // NOLINT: bench-local convenience

struct ServePoint {
  const char* mode;  // "exact" | "ivf"
  size_t threads;
  size_t batch;
  double p50_ms;
  double p99_ms;
  double requests_per_sec;
};

// One (nlist, nprobe) sweep point of the ANN tier.
struct AnnPoint {
  uint32_t nlist;
  uint32_t nprobe;
  double recall_at_k;
  double p50_ms;
  double p99_ms;
  double requests_per_sec;
};

std::vector<size_t> ThreadCounts() {
  const size_t hw = runtime::ResolveNumThreads(0);
  std::vector<size_t> counts = {1, 2};
  if (hw > 2) counts.push_back(hw);
  return counts;
}

// Nearest-rank percentile (ceil(p*n)-th order statistic), so "p99"
// reports at least the 99th percentile even at small sample counts
// instead of silently rounding down into the body of the distribution.
double Percentile(const std::vector<double>& sorted_ms, double p) {
  if (sorted_ms.empty()) return 0.0;
  const size_t rank = static_cast<size_t>(
      std::ceil(p * static_cast<double>(sorted_ms.size())));
  return sorted_ms[std::min(sorted_ms.size(), std::max<size_t>(rank, 1)) - 1];
}

// Deterministic request stream: users cycle through a seeded shuffle so
// every (mode, threads, batch) point serves the same traffic.
std::vector<serve::TopKRequest> MakeRequests(size_t count,
                                             uint32_t num_users,
                                             uint32_t k, uint64_t seed) {
  Rng rng(seed);
  std::vector<serve::TopKRequest> reqs(count);
  for (serve::TopKRequest& req : reqs) {
    req.user = static_cast<uint32_t>(rng.NextIndex(num_users));
    req.k = k;
  }
  return reqs;
}

serve::ServeConfig MakeConfig(uint32_t k, size_t threads, const char* mode) {
  serve::ServeConfig sc;
  sc.max_k = k;
  sc.cache_rankings = false;  // measure scoring, not cache hits
  sc.runtime.num_threads = threads;
  if (std::strcmp(mode, "ivf") == 0) sc.exact = false;  // auto nlist, nprobe 8
  return sc;
}

// ---- closed-loop front-door load generator ----

struct FrontEndPoint {
  size_t producers;
  double p50_ms;
  double p99_ms;
  double requests_per_sec;
  uint64_t size_flushes;
  uint64_t deadline_flushes;
};

// One producer-count point of the loopback socket tier.
struct NetPoint {
  size_t producers;
  double p50_ms;
  double p99_ms;
  double requests_per_sec;
};

// ---- loopback client plumbing for the net tier ----

int ConnectLoopback(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool SendAll(int fd, const char* data, size_t len) {
  size_t off = 0;
  while (off < len) {
    const ssize_t n = ::send(fd, data + off, len - off, MSG_NOSIGNAL);
    if (n <= 0) return false;
    off += static_cast<size_t>(n);
  }
  return true;
}

// Reads one '\n'-terminated line (newline stripped); `buf` carries
// leftover bytes between calls.
bool RecvLine(int fd, std::string& buf, std::string& line) {
  for (;;) {
    const size_t nl = buf.find('\n');
    if (nl != std::string::npos) {
      line.assign(buf, 0, nl);
      buf.erase(0, nl + 1);
      return true;
    }
    char chunk[4096];
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) return false;
    buf.append(chunk, static_cast<size_t>(n));
  }
}

struct ClosedLoopResult {
  std::vector<std::vector<serve::ServedResponse>> responses;  // per producer
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double requests_per_sec = 0.0;
};

// N producers, each with its own deterministic request stream, each
// keeping one request in flight (submit, wait, repeat). Returns every
// response so the caller can probe bit-identity.
ClosedLoopResult RunClosedLoop(
    serve::ServingFrontEnd& frontend,
    const std::vector<std::vector<serve::TopKRequest>>& streams) {
  const size_t producers = streams.size();
  ClosedLoopResult result;
  result.responses.resize(producers);
  std::vector<std::vector<double>> latencies(producers);
  std::vector<std::thread> threads;
  threads.reserve(producers);
  const auto t0 = std::chrono::steady_clock::now();
  for (size_t p = 0; p < producers; ++p) {
    threads.emplace_back([&, p] {
      result.responses[p].reserve(streams[p].size());
      latencies[p].reserve(streams[p].size());
      for (const serve::TopKRequest& req : streams[p]) {
        const auto s = std::chrono::steady_clock::now();
        result.responses[p].push_back(frontend.HandleSync(req));
        latencies[p].push_back(
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          s)
                .count() *
            1000.0);
      }
    });
  }
  size_t total_requests = 0;
  for (size_t p = 0; p < producers; ++p) {
    threads[p].join();
    total_requests += streams[p].size();
  }
  const double total_secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  std::vector<double> all;
  for (const std::vector<double>& lat : latencies) {
    all.insert(all.end(), lat.begin(), lat.end());
  }
  std::sort(all.begin(), all.end());
  result.p50_ms = Percentile(all, 0.50);
  result.p99_ms = Percentile(all, 0.99);
  result.requests_per_sec =
      total_secs > 0.0 ? static_cast<double>(total_requests) / total_secs
                       : 0.0;
  return result;
}

bool SameResponse(const serve::TopKResponse& got,
                  const serve::TopKResponse& want) {
  return got.items == want.items && got.scores == want.scores;
}

}  // namespace

int main() {
  const bool fast = bench::FastMode();
  const bool scale = bench::ScaleMode();
  SyntheticConfig cfg;
  if (scale) {
    // Serving-scale: catalog far beyond cache, production embedding
    // width, zipf popularity so the item-degree distribution is skewed
    // like real traffic.
    cfg.num_users = 2000;
    cfg.num_items = 100000;
    cfg.num_clusters = 25;
    cfg.avg_items_per_user = 25.0;
    cfg.zipf_alpha = 1.1;
  } else {
    cfg.num_users = fast ? 400 : 1500;
    cfg.num_items = fast ? 300 : 1200;
    cfg.num_clusters = 10;
    cfg.avg_items_per_user = 18.0;
  }
  cfg.seed = 77;
  const Dataset data = GenerateSynthetic(cfg).dataset;
  const size_t dim = scale ? 128 : (fast ? 16 : 48);
  const uint32_t k = 20;
  // The scale tier's batches take tens of milliseconds each, so a point
  // needs enough of them that a host stall cannot pass for the scan.
  const size_t batches_per_point = scale ? 40 : (fast ? 8 : 30);
  const std::vector<size_t> batch_sizes =
      scale ? std::vector<size_t>{64, 256} : std::vector<size_t>{1, 16, 256};

  Rng rng(5);
  MfModel model(data.num_users(), data.num_items(), dim, rng);
  bench::ClusterEmbeddings(model, cfg.num_clusters, rng);
  model.Forward(rng);

  std::printf("serve bench%s: %u users, %u items, dim %zu, k %u, "
              "%zu embedding clusters\n",
              scale ? " [scale tier]" : "", data.num_users(),
              data.num_items(), dim, k,
              static_cast<size_t>(cfg.num_clusters));

  std::vector<ServePoint> points;
  for (size_t threads : ThreadCounts()) {
    for (const char* mode : {"exact", "ivf"}) {
      serve::InferenceService service(data, model,
                                      MakeConfig(k, threads, mode));
      for (size_t batch : batch_sizes) {
        const std::vector<serve::TopKRequest> reqs =
            MakeRequests(batch * batches_per_point, data.num_users(), k, 31);
        // Warm-up batch (pool wake-up, allocator).
        service.HandleBatch({reqs.data(), batch});
        std::vector<double> latencies_ms;
        latencies_ms.reserve(batches_per_point);
        double total_secs = 0.0;
        for (size_t b = 0; b < batches_per_point; ++b) {
          const auto t0 = std::chrono::steady_clock::now();
          const auto resps =
              service.HandleBatch({reqs.data() + b * batch, batch});
          const double secs = std::chrono::duration<double>(
                                  std::chrono::steady_clock::now() - t0)
                                  .count();
          latencies_ms.push_back(secs * 1000.0);
          total_secs += secs;
          if (resps.size() != batch) return 1;  // paranoia
        }
        std::sort(latencies_ms.begin(), latencies_ms.end());
        ServePoint p;
        p.mode = mode;
        p.threads = threads;
        p.batch = batch;
        p.p50_ms = Percentile(latencies_ms, 0.50);
        p.p99_ms = Percentile(latencies_ms, 0.99);
        p.requests_per_sec =
            static_cast<double>(batch * batches_per_point) / total_secs;
        points.push_back(p);
        std::printf(
            "%-9s threads=%zu batch=%-3zu  p50 %.3f ms  p99 %.3f ms  "
            "%.0f req/s\n",
            p.mode, threads, batch, p.p50_ms, p.p99_ms, p.requests_per_sec);
      }
    }
  }

  // ---- bit-identity probe (gates the exit code) ----
  // The exact scorer at every worker count must reproduce its 1-thread
  // responses bitwise, as a whole batch (one item range per query
  // block) and one request at a time (one item range per worker).
  bool identical = true;
  {
    const std::vector<serve::TopKRequest> probe =
        MakeRequests(scale ? 32 : 64, data.num_users(), k, 97);
    serve::InferenceService baseline(data, model, MakeConfig(k, 1, "exact"));
    const auto want = baseline.HandleBatch(probe);
    for (size_t threads : ThreadCounts()) {
      serve::InferenceService service(data, model,
                                      MakeConfig(k, threads, "exact"));
      const auto got = service.HandleBatch(probe);
      for (size_t r = 0; r < probe.size(); ++r) {
        identical = identical && SameResponse(got[r], want[r]) &&
                    SameResponse(service.Handle(probe[r]), want[r]);
      }
    }
  }
  std::printf("exact bit-identical across thread counts and batching: %s\n",
              identical ? "yes" : "NO — BUG");

  // ---- ANN determinism probes (gate the exit code) ----
  // IVF responses are a pure function of (snapshot, request): the
  // per-query probe and list scan are serial and the pool only
  // parallelizes across queries, so neither thread count nor batch
  // packing may move a bit. And with nprobe >= nlist the
  // "approximation" visits the whole catalog, so it must reproduce the
  // exact scan outright.
  bool ann_identical = true;
  {
    const std::vector<serve::TopKRequest> probe =
        MakeRequests(scale ? 32 : 64, data.num_users(), k, 131);
    const uint32_t probe_nlist = 16;
    const auto ann_cfg = [&](size_t threads, uint32_t nprobe) {
      serve::ServeConfig sc = MakeConfig(k, threads, "ivf");
      sc.ivf.nlist = probe_nlist;
      sc.nprobe = nprobe;
      return sc;
    };
    serve::InferenceService baseline(data, model, ann_cfg(1, 4));
    const auto want = baseline.HandleBatch(probe);
    for (size_t threads : ThreadCounts()) {
      serve::InferenceService service(data, model, ann_cfg(threads, 4));
      const auto whole = service.HandleBatch(probe);
      for (size_t r = 0; r < probe.size(); ++r) {
        ann_identical = ann_identical && SameResponse(whole[r], want[r]);
        // Re-serve one-by-one: batch packing must not matter either.
        ann_identical = ann_identical &&
                        SameResponse(service.Handle(probe[r]), want[r]);
      }
    }
    serve::InferenceService exact_ref(data, model, MakeConfig(k, 1, "exact"));
    const auto exact_want = exact_ref.HandleBatch(probe);
    serve::InferenceService full_probe(
        data, model, ann_cfg(ThreadCounts().back(), probe_nlist));
    const auto full = full_probe.HandleBatch(probe);
    for (size_t r = 0; r < probe.size(); ++r) {
      ann_identical = ann_identical && SameResponse(full[r], exact_want[r]);
    }
  }
  std::printf("ivf bit-identical across threads/batching and "
              "full-probe == exact: %s\n",
              ann_identical ? "yes" : "NO — BUG");

  // ---- ANN tier: (nlist, nprobe) sweep, recall@k vs exact ----
  // Each point serves the same request stream as an exact reference run
  // under the same harness (hw threads, fixed batch); recall@k is the
  // mean fraction of the exact top-k reproduced per response. The
  // headline is the fastest point clearing the 0.95 recall floor (the
  // CI gate); if nothing clears it — which would itself be a finding —
  // the highest-recall point is reported so the floor check fails
  // loudly rather than on a missing key.
  std::vector<AnnPoint> ann_points;
  double ann_exact_rps = 0.0;
  double ann_recall = 0.0;
  double ann_speedup = 0.0;
  uint32_t ann_headline_nlist = 0;
  uint32_t ann_headline_nprobe = 0;
  serve::CatalogScorer::Stats ivf_stats;
  {
    const size_t hw = ThreadCounts().back();
    const size_t ann_batch = 64;
    const size_t ann_batches = scale ? 8 : (fast ? 2 : 4);
    const std::vector<serve::TopKRequest> reqs =
        MakeRequests(ann_batch * ann_batches, data.num_users(), k, 211);
    const auto run_stream = [&](serve::InferenceService& service,
                                std::vector<serve::TopKResponse>& responses,
                                double& p50_ms, double& p99_ms) {
      responses.clear();
      responses.reserve(reqs.size());
      service.HandleBatch({reqs.data(), ann_batch});  // warm-up
      std::vector<double> lat;
      lat.reserve(ann_batches);
      double total_secs = 0.0;
      for (size_t b = 0; b < ann_batches; ++b) {
        const auto t0 = std::chrono::steady_clock::now();
        auto out = service.HandleBatch({reqs.data() + b * ann_batch,
                                        ann_batch});
        const double secs = std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - t0)
                                .count();
        lat.push_back(secs * 1000.0);
        total_secs += secs;
        for (serve::TopKResponse& resp : out) {
          responses.push_back(std::move(resp));
        }
      }
      std::sort(lat.begin(), lat.end());
      p50_ms = Percentile(lat, 0.50);
      p99_ms = Percentile(lat, 0.99);
      return total_secs > 0.0
                 ? static_cast<double>(reqs.size()) / total_secs
                 : 0.0;
    };
    std::vector<serve::TopKResponse> exact_resps;
    {
      serve::InferenceService exact_service(data, model,
                                            MakeConfig(k, hw, "exact"));
      double p50 = 0.0, p99 = 0.0;
      ann_exact_rps = run_stream(exact_service, exact_resps, p50, p99);
    }
    std::printf("ann sweep: %zu requests, exact reference %.0f req/s\n",
                reqs.size(), ann_exact_rps);
    const std::vector<uint32_t> nlists =
        scale ? std::vector<uint32_t>{64, 256}
              : (fast ? std::vector<uint32_t>{8, 16}
                      : std::vector<uint32_t>{16, 32});
    for (uint32_t nlist : nlists) {
      for (uint32_t nprobe : {1u, 2u, 4u, 8u, 16u}) {
        if (nprobe > nlist) continue;
        serve::ServeConfig sc = MakeConfig(k, hw, "ivf");
        sc.ivf.nlist = nlist;
        sc.nprobe = nprobe;
        serve::InferenceService service(data, model, sc);
        std::vector<serve::TopKResponse> resps;
        AnnPoint p;
        p.nlist = nlist;
        p.nprobe = nprobe;
        p.requests_per_sec = run_stream(service, resps, p.p50_ms, p.p99_ms);
        double recall_sum = 0.0;
        size_t counted = 0;
        for (size_t r = 0; r < reqs.size(); ++r) {
          std::vector<uint32_t> truth = exact_resps[r].items;
          if (truth.empty()) continue;
          std::sort(truth.begin(), truth.end());
          size_t hits = 0;
          for (const uint32_t item : resps[r].items) {
            hits += std::binary_search(truth.begin(), truth.end(), item)
                        ? 1
                        : 0;
          }
          recall_sum += static_cast<double>(hits) /
                        static_cast<double>(truth.size());
          ++counted;
        }
        p.recall_at_k =
            counted > 0 ? recall_sum / static_cast<double>(counted) : 1.0;
        ivf_stats += service.scorer().stats();
        ann_points.push_back(p);
        std::printf(
            "ivf nlist=%-4u nprobe=%-3u  recall@%u %.4f  p50 %.3f ms  "
            "p99 %.3f ms  %.0f req/s (%.2fx exact)\n",
            p.nlist, p.nprobe, k, p.recall_at_k, p.p50_ms, p.p99_ms,
            p.requests_per_sec,
            ann_exact_rps > 0.0 ? p.requests_per_sec / ann_exact_rps : 0.0);
      }
    }
    const double kRecallFloor = 0.95;
    const AnnPoint* headline = nullptr;
    for (const AnnPoint& p : ann_points) {
      if (p.recall_at_k >= kRecallFloor &&
          (headline == nullptr ||
           p.requests_per_sec > headline->requests_per_sec)) {
        headline = &p;
      }
    }
    if (headline == nullptr) {
      for (const AnnPoint& p : ann_points) {
        if (headline == nullptr || p.recall_at_k > headline->recall_at_k) {
          headline = &p;
        }
      }
    }
    if (headline != nullptr) {
      ann_recall = headline->recall_at_k;
      ann_speedup = ann_exact_rps > 0.0
                        ? headline->requests_per_sec / ann_exact_rps
                        : 0.0;
      ann_headline_nlist = headline->nlist;
      ann_headline_nprobe = headline->nprobe;
      std::printf(
          "ann headline: nlist=%u nprobe=%u  recall@%u %.4f  "
          "%.2fx exact req/s\n",
          ann_headline_nlist, ann_headline_nprobe, k, ann_recall,
          ann_speedup);
    }
  }

  // ---- concurrent front door: closed-loop load at N producers ----
  // Every response is compared bit-for-bit against the synchronous
  // path (InferenceService::Handle on the same model) — queueing and
  // micro-batching must move latency, never results.
  serve::FrontEndConfig fe_cfg;
  fe_cfg.max_batch = 16;
  fe_cfg.flush_deadline_us = 200;
  fe_cfg.serve = MakeConfig(k, 0, "exact");  // hw threads, exact scan
  const std::vector<size_t> producer_counts =
      fast ? std::vector<size_t>{1, 2, 4} : std::vector<size_t>{1, 2, 4, 8};
  const size_t reqs_per_producer = scale ? 40 : (fast ? 30 : 120);

  bool frontdoor_identical = true;
  std::vector<FrontEndPoint> fe_points;
  {
    serve::InferenceService sync_baseline(data, model,
                                          MakeConfig(k, 1, "exact"));
    std::printf("front door: max_batch=%zu flush_deadline_us=%u "
                "(closed loop, %zu reqs/producer)\n",
                fe_cfg.max_batch, fe_cfg.flush_deadline_us,
                reqs_per_producer);
    for (size_t producers : producer_counts) {
      std::vector<std::vector<serve::TopKRequest>> streams(producers);
      for (size_t p = 0; p < producers; ++p) {
        streams[p] = MakeRequests(reqs_per_producer, data.num_users(), k,
                                  1000 + 17 * p);
      }
      serve::ServingFrontEnd frontend(data, model, fe_cfg);
      const ClosedLoopResult run = RunClosedLoop(frontend, streams);
      const serve::FrontEndStats st = frontend.stats();
      // Probe: bit-identity per request vs the synchronous path (one
      // sync response per distinct user at this fixed k).
      std::unordered_map<uint32_t, serve::TopKResponse> want;
      for (size_t p = 0; p < producers; ++p) {
        for (size_t r = 0; r < streams[p].size(); ++r) {
          const serve::TopKRequest& req = streams[p][r];
          auto it = want.find(req.user);
          if (it == want.end()) {
            it = want.emplace(req.user, sync_baseline.Handle(req)).first;
          }
          const serve::ServedResponse& got = run.responses[p][r];
          frontdoor_identical = frontdoor_identical &&
                                SameResponse(got.topk, it->second) &&
                                got.snapshot_seq == 1;
        }
      }
      FrontEndPoint fp;
      fp.producers = producers;
      fp.p50_ms = run.p50_ms;
      fp.p99_ms = run.p99_ms;
      fp.requests_per_sec = run.requests_per_sec;
      fp.size_flushes = st.size_flushes;
      fp.deadline_flushes = st.deadline_flushes;
      fe_points.push_back(fp);
      std::printf(
          "frontdoor producers=%zu  p50 %.3f ms  p99 %.3f ms  %.0f req/s  "
          "(%llu size / %llu deadline flushes)\n",
          producers, fp.p50_ms, fp.p99_ms, fp.requests_per_sec,
          static_cast<unsigned long long>(fp.size_flushes),
          static_cast<unsigned long long>(fp.deadline_flushes));
    }
  }
  std::printf("front door bit-identical to synchronous path: %s\n",
              frontdoor_identical ? "yes" : "NO — BUG");

  // ---- loopback socket tier: the closed loop through NetServer ----
  // Same producer counts and per-producer request volume as the
  // in-process points above; each producer is a loopback TCP client
  // keeping one wire-grammar request line in flight. Every response
  // line is compared bytewise against wire::FormatResponse over the
  // synchronous path (the socket analogue of the front-door probe).
  bool net_identical = true;
  std::vector<NetPoint> net_points;
  const size_t net_io_threads = 2;
  {
    serve::InferenceService sync_baseline(data, model,
                                          MakeConfig(k, 1, "exact"));
    serve::ServingFrontEnd frontend(data, model, fe_cfg);
    serve::NetServerConfig net_cfg;
    net_cfg.io_threads = net_io_threads;
    serve::NetServer server(frontend, net_cfg);
    if (!server.Start()) {
      std::fprintf(stderr, "net tier: %s\n", server.last_error().c_str());
      return 1;
    }
    std::printf("net transport: loopback port %u, %zu io threads\n",
                server.port(), net_io_threads);
    for (size_t producers : producer_counts) {
      std::vector<std::vector<serve::TopKRequest>> streams(producers);
      for (size_t p = 0; p < producers; ++p) {
        streams[p] = MakeRequests(reqs_per_producer, data.num_users(), k,
                                  3000 + 29 * p);
      }
      std::vector<std::vector<std::string>> lines(producers);
      std::vector<std::vector<double>> lat(producers);
      std::atomic<bool> net_ok{true};
      std::vector<std::thread> clients;
      const auto t0 = std::chrono::steady_clock::now();
      for (size_t p = 0; p < producers; ++p) {
        clients.emplace_back([&, p] {
          const int fd = ConnectLoopback(server.port());
          if (fd < 0) {
            net_ok = false;
            return;
          }
          std::string buf, line;
          char msg[64];
          lines[p].reserve(streams[p].size());
          lat[p].reserve(streams[p].size());
          for (const serve::TopKRequest& req : streams[p]) {
            const int len = std::snprintf(msg, sizeof(msg), "TOPK %u %u\n",
                                          req.user, req.k);
            const auto s = std::chrono::steady_clock::now();
            if (!SendAll(fd, msg, static_cast<size_t>(len)) ||
                !RecvLine(fd, buf, line)) {
              net_ok = false;
              break;
            }
            lat[p].push_back(
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - s)
                    .count() *
                1000.0);
            lines[p].push_back(line);
          }
          ::close(fd);
        });
      }
      for (std::thread& t : clients) t.join();
      const double total_secs =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        t0)
              .count();
      net_identical = net_identical && net_ok.load();
      // Probe: bytewise identity against the wire-formatted sync path
      // (no ID sent, so responses echo "-"; seq 1, no brownout).
      std::unordered_map<uint32_t, std::string> want;
      size_t total_requests = 0;
      std::vector<double> all;
      for (size_t p = 0; p < producers; ++p) {
        net_identical =
            net_identical && lines[p].size() == streams[p].size();
        for (size_t r = 0; r < lines[p].size(); ++r) {
          const serve::TopKRequest& req = streams[p][r];
          auto it = want.find(req.user);
          if (it == want.end()) {
            it = want.emplace(req.user,
                              serve::wire::FormatResponse(
                                  "-", serve::DegradeMode::kNone, 1,
                                  sync_baseline.Handle(req)))
                     .first;
          }
          net_identical = net_identical && lines[p][r] == it->second;
        }
        total_requests += streams[p].size();
        all.insert(all.end(), lat[p].begin(), lat[p].end());
      }
      std::sort(all.begin(), all.end());
      NetPoint np;
      np.producers = producers;
      np.p50_ms = Percentile(all, 0.50);
      np.p99_ms = Percentile(all, 0.99);
      np.requests_per_sec =
          total_secs > 0.0 ? static_cast<double>(total_requests) / total_secs
                           : 0.0;
      net_points.push_back(np);
      std::printf(
          "net producers=%zu  p50 %.3f ms  p99 %.3f ms  %.0f req/s\n",
          np.producers, np.p50_ms, np.p99_ms, np.requests_per_sec);
    }
    server.Stop();
  }
  if (!fe_points.empty() && !net_points.empty()) {
    const double fd_rps = fe_points.back().requests_per_sec;
    std::printf(
        "net transport vs in-process front door at %zu producers: %.2fx\n",
        net_points.back().producers,
        fd_rps > 0.0 ? net_points.back().requests_per_sec / fd_rps : 0.0);
  }
  std::printf("net responses bytewise-identical to wire-formatted sync "
              "path: %s\n",
              net_identical ? "yes" : "NO — BUG");

  // ---- sustained train-and-serve: snapshot hot-swap mid-traffic ----
  // A publisher thread pushes freshly frozen snapshots while producers
  // keep the front door under load. Every response must match the
  // synchronous ranking on exactly the snapshot that served it.
  const size_t ts_producers = fast ? 2 : 4;
  const size_t ts_generations = 3;  // initial + 2 hot-swaps
  bool trainserve_matched = true;
  double trainserve_rps = 0.0;
  size_t trainserve_requests = 0;
  {
    // Freeze each generation from a differently-seeded model — stands
    // in for "the trainer stepped, then froze" without paying training
    // time in a serving bench.
    runtime::ThreadPool freeze_pool(0);
    std::vector<std::shared_ptr<const serve::ModelSnapshot>> generations;
    for (size_t g = 0; g < ts_generations; ++g) {
      Rng gen_rng(900 + g);
      MfModel gen_model(data.num_users(), data.num_items(), dim, gen_rng);
      gen_model.Forward(gen_rng);
      generations.push_back(
          std::make_shared<const serve::ModelSnapshot>(gen_model,
                                                       freeze_pool));
    }
    serve::ServingFrontEnd frontend(data, generations[0], fe_cfg);
    std::unordered_map<uint64_t, size_t> seq_to_gen{{1, 0}};

    std::vector<std::vector<serve::TopKRequest>> streams(ts_producers);
    for (size_t p = 0; p < ts_producers; ++p) {
      streams[p] = MakeRequests(reqs_per_producer, data.num_users(), k,
                                5000 + 23 * p);
      trainserve_requests += streams[p].size();
    }
    // Publish the remaining generations spaced through the run, from a
    // separate thread, exactly like a live trainer would.
    std::thread publisher([&] {
      for (size_t g = 1; g < ts_generations; ++g) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        seq_to_gen.emplace(frontend.PublishSnapshot(generations[g]), g);
      }
    });
    const ClosedLoopResult run = RunClosedLoop(frontend, streams);
    publisher.join();
    trainserve_rps = run.requests_per_sec;

    // Verify attribution + bit-identity per generation: each response
    // names its publication, and its ranking equals the synchronous
    // ranking on that very snapshot.
    runtime::ThreadPool ref_pool(1);
    std::vector<std::unique_ptr<serve::RankingEngine>> refs(ts_generations);
    for (size_t p = 0; p < ts_producers; ++p) {
      for (size_t r = 0; r < streams[p].size(); ++r) {
        const serve::ServedResponse& got = run.responses[p][r];
        const auto gen_it = seq_to_gen.find(got.snapshot_seq);
        if (gen_it == seq_to_gen.end()) {
          trainserve_matched = false;  // served an unpublished snapshot?!
          continue;
        }
        const size_t g = gen_it->second;
        trainserve_matched =
            trainserve_matched && got.snapshot == generations[g];
        if (refs[g] == nullptr) {
          refs[g] = std::make_unique<serve::RankingEngine>(
              data, *generations[g], ref_pool, fe_cfg.serve);
        }
        trainserve_matched =
            trainserve_matched &&
            SameResponse(got.topk, refs[g]->Handle(streams[p][r]));
      }
    }
    const serve::FrontEndStats st = frontend.stats();
    std::printf(
        "train-and-serve: %zu producers, %zu requests, %llu snapshots "
        "published, %.0f req/s\n",
        ts_producers, trainserve_requests,
        static_cast<unsigned long long>(st.snapshots_published),
        trainserve_rps);
    std::printf("train-and-serve responses match their snapshot: %s\n",
                trainserve_matched ? "yes" : "NO — BUG");
  }
  // ---- overload tier: open-loop arrival above the service rate ----
  // A fault injector delays every batch, bounding the service rate
  // deterministically; producers then submit the whole request set at
  // once (open loop — nobody waits for a response before sending the
  // next), so arrival exceeds service by construction. The bounded
  // queue sheds, deadlines expire, and brownout kicks in. Reported:
  // goodput, shed rate, deadline-miss rate, degraded fraction, and
  // queue-wait p50/p99. Probes gate the exit code:
  //   - accounting: every submitted request is exactly one of served /
  //     shed / deadline-missed, on both the harvest and stats sides
  //   - depth bound: queue_depth_high_water never exceeds max_queue_depth
  //   - forced-expiry sub-run: a stalled dispatcher plus tiny deadlines
  //     must fulfill zero rankings — a deadline-missed request is never
  //     served
  //   - tier bit-identity: every fulfilled response equals the
  //     single-driver RankingEngine at the tier it reports (exact or
  //     the published brownout tier)
  const size_t ol_total = fast ? 160 : 400;
  size_t ol_served = 0, ol_shed = 0, ol_missed = 0, ol_degraded = 0;
  double ol_goodput = 0.0, ol_wait_p50 = 0.0, ol_wait_p99 = 0.0;
  bool ol_accounting = true;
  bool ol_depth_ok = true;
  bool ol_no_expired_fulfilled = true;
  bool ol_identical = true;
  serve::FrontEndConfig ol_cfg;
  ol_cfg.max_batch = 8;
  ol_cfg.flush_deadline_us = 100;
  ol_cfg.max_queue_depth = 16;
  ol_cfg.overflow = serve::OverflowPolicy::kShedNewest;
  ol_cfg.default_deadline_us = 12000;
  ol_cfg.brownout.enable = true;
  ol_cfg.brownout.high_watermark = 12;
  ol_cfg.brownout.low_watermark = 4;
  ol_cfg.brownout.nprobe = 2;
  ol_cfg.serve = MakeConfig(k, 0, "exact");
  {
    // 3 ms per batch caps service at ~2.7k req/s; the open-loop burst
    // arrives in well under a millisecond.
    ol_cfg.fault_injector = std::make_shared<serve::ScheduledFaultInjector>(
        std::vector<serve::FaultRule>{
            {serve::FaultAction::Kind::kDelay, 0, 1, 0, 3000}},
        /*seed=*/0);
    serve::ServingFrontEnd frontend(data, model, ol_cfg);
    const std::vector<serve::TopKRequest> reqs =
        MakeRequests(ol_total, data.num_users(), k, 31337);
    std::vector<std::future<serve::ServedResponse>> futures(reqs.size());
    const size_t ol_producers = 4;
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<std::thread> senders;
    for (size_t p = 0; p < ol_producers; ++p) {
      senders.emplace_back([&, p] {
        for (size_t i = p; i < reqs.size(); i += ol_producers) {
          futures[i] = frontend.Submit(reqs[i]);
          // Open loop: never wait for a response, but meter the stream
          // so arrival (~8k req/s across producers) sits a few x above
          // service rather than landing as one instantaneous burst.
          std::this_thread::sleep_for(std::chrono::microseconds(500));
        }
      });
    }
    for (std::thread& t : senders) t.join();
    frontend.Drain();
    const double ol_secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();

    const std::shared_ptr<const serve::ModelSnapshot> snap =
        frontend.current_snapshot();
    runtime::ThreadPool ref_pool(1);
    serve::RankingEngine exact_ref(data, *snap, ref_pool, ol_cfg.serve);
    serve::RankingEngine degraded_ref(
        data, *snap, ref_pool,
        serve::BrownoutServeConfigFor(ol_cfg.serve, serve::DegradeMode::kIvf,
                                      ol_cfg.brownout.nprobe));
    std::vector<double> waits_ms;
    for (size_t i = 0; i < futures.size(); ++i) {
      try {
        const serve::ServedResponse resp = futures[i].get();
        ++ol_served;
        waits_ms.push_back(static_cast<double>(resp.queue_us) / 1000.0);
        serve::RankingEngine& ref =
            resp.degraded ? degraded_ref : exact_ref;
        if (resp.degraded) ++ol_degraded;
        ol_identical = ol_identical && resp.snapshot_seq == 1 &&
                       SameResponse(resp.topk, ref.Handle(reqs[i]));
      } catch (const serve::OverloadError&) {
        ++ol_shed;
      } catch (const serve::DeadlineExceededError&) {
        ++ol_missed;
      }
    }
    const serve::FrontEndStats st = frontend.stats();
    ol_goodput = ol_secs > 0.0
                     ? static_cast<double>(ol_served) / ol_secs
                     : 0.0;
    std::sort(waits_ms.begin(), waits_ms.end());
    if (!waits_ms.empty()) {
      ol_wait_p50 = Percentile(waits_ms, 0.50);
      ol_wait_p99 = Percentile(waits_ms, 0.99);
    }
    // Harvest side: every future resolved exactly one way. Stats side:
    // the documented idle-state identity.
    ol_accounting =
        ol_served + ol_shed + ol_missed == reqs.size() &&
        st.submitted == st.requests + st.shed_newest + st.shed_oldest +
                            st.expired_admission;
    ol_depth_ok = st.queue_depth_high_water <= ol_cfg.max_queue_depth;
    std::printf(
        "overload: %zu submitted open-loop -> %zu served (%.0f req/s "
        "goodput), %zu shed (%.1f%%), %zu deadline-missed (%.1f%%), "
        "%zu degraded (%.1f%% of served)\n",
        reqs.size(), ol_served, ol_goodput,
        ol_shed, 100.0 * static_cast<double>(ol_shed) / reqs.size(),
        ol_missed, 100.0 * static_cast<double>(ol_missed) / reqs.size(),
        ol_degraded,
        ol_served > 0
            ? 100.0 * static_cast<double>(ol_degraded) / ol_served
            : 0.0);
    std::printf(
        "overload: queue wait p50 %.3f ms p99 %.3f ms, depth high-water "
        "%llu/%zu, brownout %llu entries\n",
        ol_wait_p50, ol_wait_p99,
        static_cast<unsigned long long>(st.queue_depth_high_water),
        ol_cfg.max_queue_depth,
        static_cast<unsigned long long>(st.brownout_entries));
  }
  {
    // Forced-expiry sub-run: dispatcher stalled past every deadline, so
    // all requests must fail fast at dequeue — zero rankings fulfilled.
    serve::FrontEndConfig ex_cfg = ol_cfg;
    ex_cfg.max_queue_depth = 0;  // nothing sheds; expiry is the only exit
    ex_cfg.default_deadline_us = 2000;
    ex_cfg.fault_injector = std::make_shared<serve::ScheduledFaultInjector>(
        std::vector<serve::FaultRule>{
            {serve::FaultAction::Kind::kStall, 0, 1, 1, 100000}},
        /*seed=*/0);
    serve::ServingFrontEnd frontend(data, model, ex_cfg);
    std::vector<std::future<serve::ServedResponse>> futures;
    for (uint32_t i = 0; i < 20; ++i) {
      serve::TopKRequest req;
      req.user = i % data.num_users();
      req.k = k;
      futures.push_back(frontend.Submit(req));
    }
    size_t fulfilled = 0;
    for (std::future<serve::ServedResponse>& fut : futures) {
      try {
        fut.get();
        ++fulfilled;
      } catch (const serve::DeadlineExceededError&) {
      }
    }
    ol_no_expired_fulfilled = fulfilled == 0;
    std::printf("overload: forced-expiry sub-run fulfilled %zu/20 "
                "(must be 0)\n",
                fulfilled);
  }
  std::printf("overload probes: accounting %s, depth bound %s, "
              "no expired fulfilled %s, tier bit-identical %s\n",
              ol_accounting ? "yes" : "NO — BUG",
              ol_depth_ok ? "yes" : "NO — BUG",
              ol_no_expired_fulfilled ? "yes" : "NO — BUG",
              ol_identical ? "yes" : "NO — BUG");

  identical = identical && ann_identical && frontdoor_identical &&
              net_identical && trainserve_matched && ol_accounting &&
              ol_depth_ok && ol_no_expired_fulfilled && ol_identical;

  // ---- machine-readable output ----
  FILE* out = bench::BeginBenchJson("BENCH_serve.json");
  if (out == nullptr) return 1;
  std::fprintf(out,
               "  \"dataset\": {\"users\": %u, \"items\": %u, "
               "\"dim\": %zu, \"k\": %u},\n",
               data.num_users(), data.num_items(), dim, k);
  std::fprintf(out, "  \"points\": [\n");
  for (size_t i = 0; i < points.size(); ++i) {
    const ServePoint& p = points[i];
    std::fprintf(out,
                 "    {\"mode\": \"%s\", \"threads\": %zu, \"batch\": %zu, "
                 "\"p50_ms\": %.4f, \"p99_ms\": %.4f, "
                 "\"requests_per_sec\": %.1f}%s\n",
                 p.mode, p.threads, p.batch, p.p50_ms, p.p99_ms,
                 p.requests_per_sec, i + 1 < points.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  std::fprintf(out,
               "  \"ann\": {\"k\": %u, \"exact_requests_per_sec\": %.1f, "
               "\"points\": [\n",
               k, ann_exact_rps);
  for (size_t i = 0; i < ann_points.size(); ++i) {
    const AnnPoint& p = ann_points[i];
    std::fprintf(out,
                 "    {\"nlist\": %u, \"nprobe\": %u, "
                 "\"recall_at_k\": %.4f, \"p50_ms\": %.4f, "
                 "\"p99_ms\": %.4f, \"requests_per_sec\": %.1f}%s\n",
                 p.nlist, p.nprobe, p.recall_at_k, p.p50_ms, p.p99_ms,
                 p.requests_per_sec, i + 1 < ann_points.size() ? "," : "");
  }
  std::fprintf(out,
               "  ], \"recall_at_k\": %.4f, \"speedup_vs_exact\": %.3f, "
               "\"headline_nlist\": %u, \"headline_nprobe\": %u,\n",
               ann_recall, ann_speedup, ann_headline_nlist,
               ann_headline_nprobe);
  std::fprintf(out,
               "  \"probe_scan\": {\"queries\": %llu, \"lists\": %llu, "
               "\"candidates\": %llu, \"rescored\": %llu},\n",
               static_cast<unsigned long long>(ivf_stats.ivf_queries),
               static_cast<unsigned long long>(ivf_stats.ivf_lists),
               static_cast<unsigned long long>(ivf_stats.ivf_candidates),
               static_cast<unsigned long long>(ivf_stats.ivf_rescored));
  std::fprintf(out, "  \"determinism\": {\"ivf_bit_identical\": %s}},\n",
               ann_identical ? "true" : "false");
  std::fprintf(out,
               "  \"frontend\": {\"max_batch\": %zu, "
               "\"flush_deadline_us\": %u, \"points\": [\n",
               fe_cfg.max_batch, fe_cfg.flush_deadline_us);
  for (size_t i = 0; i < fe_points.size(); ++i) {
    const FrontEndPoint& p = fe_points[i];
    std::fprintf(out,
                 "    {\"producers\": %zu, \"p50_ms\": %.4f, "
                 "\"p99_ms\": %.4f, \"requests_per_sec\": %.1f, "
                 "\"size_flushes\": %llu, \"deadline_flushes\": %llu}%s\n",
                 p.producers, p.p50_ms, p.p99_ms, p.requests_per_sec,
                 static_cast<unsigned long long>(p.size_flushes),
                 static_cast<unsigned long long>(p.deadline_flushes),
                 i + 1 < fe_points.size() ? "," : "");
  }
  std::fprintf(out, "  ]},\n");
  std::fprintf(out, "  \"net\": {\"io_threads\": %zu, \"points\": [\n",
               net_io_threads);
  for (size_t i = 0; i < net_points.size(); ++i) {
    const NetPoint& p = net_points[i];
    std::fprintf(out,
                 "    {\"producers\": %zu, \"p50_ms\": %.4f, "
                 "\"p99_ms\": %.4f, \"requests_per_sec\": %.1f}%s\n",
                 p.producers, p.p50_ms, p.p99_ms, p.requests_per_sec,
                 i + 1 < net_points.size() ? "," : "");
  }
  std::fprintf(out, "  ], \"transport_bit_identical\": %s},\n",
               net_identical ? "true" : "false");
  std::fprintf(out,
               "  \"train_and_serve\": {\"producers\": %zu, "
               "\"snapshots_published\": %zu, \"requests\": %zu, "
               "\"requests_per_sec\": %.1f, \"responses_matched\": %s},\n",
               ts_producers, ts_generations, trainserve_requests,
               trainserve_rps, trainserve_matched ? "true" : "false");
  std::fprintf(out,
               "  \"overload\": {\"max_queue_depth\": %zu, "
               "\"submitted\": %zu, \"served\": %zu, \"shed\": %zu, "
               "\"deadline_missed\": %zu, \"degraded\": %zu,\n",
               ol_cfg.max_queue_depth, ol_total, ol_served, ol_shed,
               ol_missed, ol_degraded);
  std::fprintf(out,
               "    \"goodput_requests_per_sec\": %.1f, "
               "\"shed_rate\": %.4f, \"deadline_miss_rate\": %.4f, "
               "\"degraded_fraction\": %.4f, \"queue_wait_p50_ms\": %.4f, "
               "\"queue_wait_p99_ms\": %.4f,\n",
               ol_goodput,
               static_cast<double>(ol_shed) / static_cast<double>(ol_total),
               static_cast<double>(ol_missed) /
                   static_cast<double>(ol_total),
               ol_served > 0 ? static_cast<double>(ol_degraded) /
                                   static_cast<double>(ol_served)
                             : 0.0,
               ol_wait_p50, ol_wait_p99);
  std::fprintf(out,
               "    \"probes\": {\"accounting\": %s, \"depth_bound\": %s, "
               "\"no_expired_fulfilled\": %s, \"tier_bit_identical\": %s}},\n",
               ol_accounting ? "true" : "false",
               ol_depth_ok ? "true" : "false",
               ol_no_expired_fulfilled ? "true" : "false",
               ol_identical ? "true" : "false");
  bench::FinishBenchJson(out, "BENCH_serve.json", identical);
  return identical ? 0 : 1;
}
