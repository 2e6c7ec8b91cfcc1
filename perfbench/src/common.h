// Shared pieces of the benchmark program: command-line options, clocks,
// order statistics, process diagnostics, the span recorder used by the
// traced run, and the result printer.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

// Worker count of every pool the benchmark builds (trainer, evaluator,
// front door, reference engines). Fixed so runs are comparable on any
// host with at least this many cores.
inline constexpr size_t kPoolThreads = 2;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 30.0;
  bool trace = false;
  std::string trace_dir;  // where the traced run writes its spans
};

// ---- clocks ---------------------------------------------------------------

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}
inline double MsSince(int64_t start_ns) { return (NowNs() - start_ns) / 1e6; }

// ---- order statistics -----------------------------------------------------

double Median(std::vector<double> v);

// The tail the benchmark reports: the highest percentile that still
// has at least 10 samples beyond it, i.e. the (n-10)-th smallest of n
// values (nearest rank). `percentile` receives 100*(n-10)/n. Requires
// n >= 11; returns the maximum (and percentile 100) for fewer.
double TailValue(std::vector<double> v, double* percentile);

// Splits `v` (in arrival order) into as many equal consecutive windows
// of at least `window` samples as fit, takes the TailValue of each and
// returns the median over windows. Reports the first window's
// percentile and the number of windows.
double WindowedTail(const std::vector<double>& v, size_t window,
                    double* percentile, size_t* windows);

// ---- process diagnostics --------------------------------------------------

// User + system CPU seconds consumed by this process so far.
double ProcessCpuSeconds();
// Peak resident set size of this process, MiB.
double PeakRssMb();

// Reads the aggregate line of /proc/stat; StealShare gives the share
// of all CPU time between two reads that the hypervisor stole.
struct CpuTimes {
  uint64_t steal = 0;
  uint64_t total = 0;
};
CpuTimes ReadCpuTimes();
double StealShare(const CpuTimes& a, const CpuTimes& b);

// ---- span recorder --------------------------------------------------------

// One timed call from the benchmark into a library function.
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;  // index of the enclosing span, -1 at top level
  uint64_t id = 0;      // request or batch id (0 = none)
  double ms() const { return (end_ns - start_ns) / 1e6; }
};

// In-memory span store. Disabled (every call a no-op) unless the run is
// traced. Thread-safe; parents are tracked per thread, so a span opened
// while another is open on the same thread becomes its child.
class Tracer {
 public:
  static Tracer& Get();

  void Enable() { enabled_ = true; }

  int32_t Begin(const char* name, uint64_t id = 0);
  void End(int32_t index);
  // Records a span whose interval was measured elsewhere (a request
  // timed from submit to ready on another thread); no parent.
  void Record(const char* name, int64_t start_ns, int64_t end_ns,
              uint64_t id = 0);

  // Durations of the completed spans with this exact name.
  std::vector<double> DurationsMs(const std::string& name) const;

  // Writes every span as one JSON object per line.
  bool WriteJsonLines(const std::string& path) const;

 private:
  bool enabled_ = false;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// RAII span; ms() reads the elapsed time whether or not tracing is on,
// so timing code and tracing share one clock read.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, uint64_t id = 0)
      : index_(Tracer::Get().Begin(name, id)), start_ns_(NowNs()) {}
  ~ScopedSpan() { Tracer::Get().End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  double ms() const { return MsSince(start_ns_); }

 private:
  int32_t index_;
  int64_t start_ns_;
};

// ---- results --------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;  // printed on the human-readable line only
};

struct Result {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;  // failed correctness gates
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<std::string> diagnostics;  // printed, never gated on

  bool correct() const { return errors.empty(); }
  void Check(bool ok, const std::string& what) {
    if (!ok) errors.push_back(what);
  }
  void AddE2e(const std::string& name, double value, const std::string& unit,
              const std::string& note = "") {
    end_to_end.push_back({name, value, unit, note});
  }
  void AddLayer(const std::string& name, double value,
                const std::string& unit, const std::string& note = "") {
    per_layer.push_back({name, value, unit, note});
  }
};

// Prints the human-readable report, then the one-line JSON result
// (end-to-end metrics untraced, per-layer metrics traced) as the last
// line of stdout.
void PrintResult(const Options& opt, const Result& result);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
