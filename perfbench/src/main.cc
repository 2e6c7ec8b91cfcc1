// Benchmark program: one workload per invocation.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-dir <dir>]
//
// Workloads: train-mf-sampled, train-lgn-inbatch, serve-socket-mixed.
// The last stdout line is the JSON result; the exit code is 0 only when
// every correctness gate passed. See ../README.md.
#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "common.h"
#include "math/vec.h"
#include "workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<train-mf-sampled|train-lgn-inbatch|serve-socket-mixed> "
               "--seed <n> --seconds <s> --trace <0|1> [--trace-dir <dir>]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // A fixed mmap threshold: every large table (snapshots, models) is
  // mapped on allocation and unmapped on free. glibc's default raises
  // the threshold after the first large free, after which such tables
  // land in per-thread heaps whose retention depends on thread timing,
  // and peak_rss_mb would drift from run to run.
  mallopt(M_MMAP_THRESHOLD, 1 << 20);
  perfbench::Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      opt.trace = value == "1";
    } else if (flag == "--trace-dir") {
      opt.trace_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 != 1) return Usage("flags take one value each");
  if (opt.seconds < 1.0) return Usage("--seconds must be at least 1");

  perfbench::Result result;
  result.diagnostics.push_back(
      "nproc=" + std::to_string(std::thread::hardware_concurrency()) +
      " simd=" + bslrec::vec::SimdTier() +
      " pool_threads=" + std::to_string(perfbench::kPoolThreads) +
      " (trainer, evaluator, front door, reference engines) io_threads=1");
  if (opt.trace) perfbench::Tracer::Get().Enable();
  try {
    if (opt.workload == "train-mf-sampled") {
      perfbench::RunTrainWorkload(opt, /*lightgcn=*/false, result);
    } else if (opt.workload == "train-lgn-inbatch") {
      perfbench::RunTrainWorkload(opt, /*lightgcn=*/true, result);
    } else if (opt.workload == "serve-socket-mixed") {
      perfbench::RunServeWorkload(opt, result);
    } else {
      return Usage(("unknown workload " + opt.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  if (opt.trace && !opt.trace_dir.empty()) {
    const std::string path = opt.trace_dir + "/" + opt.workload + "-seed" +
                             std::to_string(opt.seed) + ".jsonl";
    if (!perfbench::Tracer::Get().WriteJsonLines(path)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    } else {
      result.diagnostics.push_back("spans written to " + path);
    }
  }
  perfbench::PrintResult(opt, result);
  return result.correct() ? 0 : 1;
}
