#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double TailValue(std::vector<double> v, double* percentile) {
  if (v.empty()) {
    *percentile = 0.0;
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  if (n < 11) {
    *percentile = 100.0;
    return v.back();
  }
  *percentile = 100.0 * static_cast<double>(n - 10) / static_cast<double>(n);
  return v[n - 11];
}

double WindowedTail(const std::vector<double>& v, size_t window,
                    double* percentile, size_t* windows) {
  // As many windows of at least `window` samples as fit, of equal size
  // (the last also takes the remainder of the division).
  const size_t count = std::max<size_t>(1, v.size() / window);
  const size_t size = v.size() / count;
  std::vector<double> tails;
  for (size_t w = 0; w < count; ++w) {
    const size_t lo = w * size;
    const size_t hi = w + 1 == count ? v.size() : lo + size;
    double pct = 0.0;
    tails.push_back(TailValue({v.begin() + lo, v.begin() + hi}, &pct));
    if (w == 0) *percentile = pct;
  }
  *windows = count;
  return Median(tails);
}

double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& t) { return t.tv_sec + t.tv_usec / 1e6; };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

CpuTimes ReadCpuTimes() {
  CpuTimes t;
  std::ifstream in("/proc/stat");
  std::string label;
  if (!(in >> label) || label != "cpu") return t;
  // user nice system idle iowait irq softirq steal (guest fields are
  // already included in user/nice).
  for (int field = 0; field < 8; ++field) {
    uint64_t v = 0;
    if (!(in >> v)) break;
    t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

double StealShare(const CpuTimes& a, const CpuTimes& b) {
  if (b.total <= a.total) return 0.0;
  return static_cast<double>(b.steal - a.steal) /
         static_cast<double>(b.total - a.total);
}

// ---- Tracer ---------------------------------------------------------------

namespace {
thread_local std::vector<int32_t> open_spans;
}  // namespace

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

int32_t Tracer::Begin(const char* name, uint64_t id) {
  if (!enabled_) return -1;
  Span s;
  s.name = name;
  s.id = id;
  s.parent = open_spans.empty() ? -1 : open_spans.back();
  s.start_ns = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(s);
  const auto index = static_cast<int32_t>(spans_.size() - 1);
  open_spans.push_back(index);
  return index;
}

void Tracer::End(int32_t index) {
  if (index < 0) return;
  const int64_t now = NowNs();
  if (!open_spans.empty() && open_spans.back() == index) open_spans.pop_back();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(index)].end_ns = now;
}

void Tracer::Record(const char* name, int64_t start_ns, int64_t end_ns,
                    uint64_t id) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({name, start_ns, end_ns, -1, id});
}

std::vector<double> Tracer::DurationsMs(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.end_ns != 0 && name == s.name) out.push_back(s.ms());
  }
  return out;
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"span\":%zu,\"name\":\"%s\",\"start_ns\":%lld,"
                 "\"end_ns\":%lld,\"parent\":%d,\"id\":%llu}\n",
                 i, s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent,
                 static_cast<unsigned long long>(s.id));
  }
  return std::fclose(f) == 0;
}

// ---- result printer -------------------------------------------------------

namespace {

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void PrintMetricLines(const char* heading, const std::vector<Metric>& ms) {
  std::printf("%s\n", heading);
  for (const Metric& m : ms) {
    std::printf("  %-34s %16.6f %-6s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
}

}  // namespace

void PrintResult(const Options& opt, const Result& result) {
  std::printf("workload %s seed %llu seconds %.0f trace %d\n",
              opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed), opt.seconds,
              opt.trace ? 1 : 0);
  for (const std::string& d : result.diagnostics) {
    std::printf("  diag %s\n", d.c_str());
  }
  PrintMetricLines(opt.trace ? "end-to-end (traced run; compare with an "
                               "untraced run for the tracing overhead):"
                             : "end-to-end:",
                   result.end_to_end);
  if (opt.trace) PrintMetricLines("per-layer:", result.per_layer);
  for (const std::string& e : result.errors) {
    std::printf("  CORRECTNESS FAILURE: %s\n", e.c_str());
  }
  std::printf("attempted %llu failed %llu correct %s\n",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed),
              result.correct() ? "true" : "false");

  std::ostringstream json;
  json << "{\"correct\": " << (result.correct() ? "true" : "false")
       << ", \"attempted\": " << result.attempted
       << ", \"failed\": " << result.failed << ", \"metrics\": {";
  const std::vector<Metric>& ms =
      opt.trace ? result.per_layer : result.end_to_end;
  for (size_t i = 0; i < ms.size(); ++i) {
    json << (i == 0 ? "" : ", ") << "\"" << ms[i].name
         << "\": {\"value\": " << JsonNumber(ms[i].value)
         << ", \"unit\": \"" << ms[i].unit << "\"}";
  }
  json << "}}";
  std::printf("%s\n", json.str().c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
