// serve-socket-mixed: a NetServer in front of a ServingFrontEnd, driven
// over loopback by this process (one sender and one receiver thread,
// at most 4 connections), plus the serve-layer replays of the traced
// run.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <future>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_set>
#include <vector>

#include "gen.h"
#include "math/rng.h"
#include "models/mf.h"
#include "runtime/thread_pool.h"
#include "serve/model_snapshot.h"
#include "serve/net_server.h"
#include "serve/ranking_engine.h"
#include "serve/serving_frontend.h"
#include "serve/topk_scorer.h"
#include "serve/wire.h"
#include "workloads.h"

namespace perfbench {

namespace {

using bslrec::Dataset;
using bslrec::serve::ModelSnapshot;
using bslrec::serve::TopKRequest;
using bslrec::serve::TopKResponse;

constexpr uint32_t kInteractiveK = 20;
constexpr uint32_t kBulkK = 100;
constexpr int kSetupRepeats = 9;
constexpr size_t kClosedLoopConnections = 4;
// Closed-loop requests in flight per connection (4 x 8 = max_batch).
constexpr size_t kClosedLoopDepth = 8;
// Interactive open-loop rate: about a third of the closed-loop capacity on
// a quiet reference host (300-350/s) and two thirds of it when the host is
// heavily contended (150-190/s), so host noise does not push the open
// loop into saturation.
constexpr double kInteractiveRate = 100.0;

// Traffic shape of one serving run (times in seconds).
struct ServeShape {
  double warmup_s = 1.0;      // sent and checked, not measured
  double phase1_s = 20.0;     // measured open loop
  double phase2_s = 8.0;      // closed loop
  double burst_every_s = 2.0;
  uint32_t burst_size = 16;
  double publish_every_s = 4.0;
  size_t tail_window = 1000;  // interactive requests per tail window
  size_t check_sample = 200;  // responses re-derived by the reference
  size_t closed_block = 100;  // closed-loop replies per rate sample
  // Traced-run replays.
  double inprocess_s = 10.0;
  size_t engine_requests = 600;
  size_t scorer_queries = 200;
};

// The workload's shape at --seconds: the open loop gets 80% of the
// measured time (two tail windows at 30 s), the closed loop the rest.
ServeShape FullShape(double seconds) {
  ServeShape s;
  s.phase1_s = 0.8 * seconds;
  s.phase2_s = 0.2 * seconds;
  s.inprocess_s = 0.5 * s.phase1_s;
  return s;
}

// A short run on a small catalog (the training workloads' probe).
ServeShape ProbeShape() {
  ServeShape s;
  s.warmup_s = 0.5;
  s.phase1_s = 4.0;
  s.phase2_s = 1.0;
  s.burst_every_s = 1.0;
  s.burst_size = 4;
  s.publish_every_s = 1.5;
  s.tail_window = 200;
  s.check_sample = 50;
  s.inprocess_s = 3.0;
  s.engine_requests = 200;
  s.scorer_queries = 50;
  s.closed_block = 50;
  return s;
}

bslrec::serve::FrontEndConfig DaemonConfig() {
  bslrec::serve::FrontEndConfig c;  // exact tier, cache on, unbounded
  c.max_batch = 32;
  c.flush_deadline_us = 200;
  c.serve.max_k = 100;
  c.serve.runtime.num_threads = kPoolThreads;
  return c;
}

// ---- schedule -------------------------------------------------------------

struct Event {
  int64_t due_ns = 0;  // relative to the phase start
  bool bulk = false;
  bool measured = false;  // false during warm-up
  uint32_t user = 0;
  uint32_t k = 0;
  std::string id;
  std::string line;  // request line including '\n'
};

struct Schedule {
  std::vector<Event> events;         // by due time
  std::vector<int64_t> publish_ns;   // relative publication times
  double end_s = 0.0;
};

// Request ID token: a lane letter and a sequence number.
std::string Tag(char prefix, size_t n) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%c%zu", prefix, n);
  return buf;
}

std::string RequestLine(const Event& e) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "TOPK %u %u%s ID=%s\n", e.user, e.k,
                e.bulk ? " FILTER=none LANE=bulk" : "", e.id.c_str());
  return buf;
}

Schedule MakeSchedule(const ServeShape& s, uint32_t num_users,
                      uint64_t seed) {
  bslrec::Rng rng(seed ^ 0x5E2E5C4EDULL);
  Schedule out;
  out.end_s = s.warmup_s + s.phase1_s;
  const auto ns = [](double sec) { return static_cast<int64_t>(sec * 1e9); };
  std::vector<Event> inter, bulk;
  for (size_t i = 0;; ++i) {
    const double t = static_cast<double>(i) / kInteractiveRate;
    if (t >= out.end_s) break;
    Event e;
    e.due_ns = ns(t);
    e.measured = t >= s.warmup_s;
    e.user = static_cast<uint32_t>(rng.NextIndex(num_users));
    e.k = kInteractiveK;
    e.id = Tag('i', i);
    e.line = RequestLine(e);
    inter.push_back(std::move(e));
  }
  size_t b = 0;
  for (size_t j = 0;; ++j) {
    const double t = s.warmup_s + s.burst_every_s * (j + 0.5);
    if (t >= out.end_s) break;
    for (uint32_t r = 0; r < s.burst_size; ++r, ++b) {
      Event e;
      e.due_ns = ns(t);
      e.bulk = true;
      e.measured = true;
      e.user = static_cast<uint32_t>(rng.NextIndex(num_users));
      e.k = kBulkK;
      e.id = Tag('b', b);
      e.line = RequestLine(e);
      bulk.push_back(std::move(e));
    }
  }
  for (size_t j = 1;; ++j) {
    const double t = s.warmup_s + s.publish_every_s * j;
    if (t >= out.end_s) break;
    out.publish_ns.push_back(ns(t));
  }
  out.events.resize(inter.size() + bulk.size());
  std::merge(inter.begin(), inter.end(), bulk.begin(), bulk.end(),
             out.events.begin(), [](const Event& a, const Event& b) {
               return a.due_ns < b.due_ns;
             });
  return out;
}

TopKRequest RequestOf(const Event& e) {
  TopKRequest r;
  r.user = e.user;
  r.k = e.k;
  r.filter_seen = !e.bulk;
  r.lane = e.bulk ? bslrec::serve::RequestLane::kBulk
                  : bslrec::serve::RequestLane::kInteractive;
  return r;
}

// ---- loopback client ------------------------------------------------------

int Connect(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  // A stalled server fails the write instead of hanging the sender.
  timeval send_timeout{5, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &send_timeout,
               sizeof(send_timeout));
  return fd;
}

bool WriteAll(int fd, const std::string& s) {
  size_t off = 0;
  while (off < s.size()) {
    const ssize_t n = ::write(fd, s.data() + off, s.size() - off);
    if (n <= 0) return false;
    off += static_cast<size_t>(n);
  }
  return true;
}

// Reads what is available on `fd` and appends every complete line to
// `lines`; false on EOF or error.
bool ReadLines(int fd, std::string& buf, std::vector<std::string>& lines) {
  char chunk[65536];
  const ssize_t n = ::read(fd, chunk, sizeof(chunk));
  if (n <= 0) return false;
  buf.append(chunk, static_cast<size_t>(n));
  size_t start = 0;
  for (size_t nl; (nl = buf.find('\n', start)) != std::string::npos;
       start = nl + 1) {
    lines.emplace_back(buf, start, nl - start);
  }
  buf.erase(0, start);
  return true;
}

void SleepUntilNs(int64_t t_ns) {
  const int64_t now = NowNs();
  if (t_ns > now) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(t_ns - now));
  }
}

// ---- the serving stack ----------------------------------------------------

// Declared in dependency order, so the server is destroyed first.
struct ServeStack {
  std::shared_ptr<const ModelSnapshot> snapshot;
  std::unique_ptr<bslrec::serve::ServingFrontEnd> frontend;
  std::unique_ptr<bslrec::serve::NetServer> server;
};

// Freeze + front door + listening socket, replacing any earlier stack;
// returns set-up seconds.
double BuildServeStack(const Dataset& data,
                       const bslrec::EmbeddingModel& model,
                       bslrec::runtime::ThreadPool& pool, ServeStack& st,
                       Result& r) {
  st.server.reset();
  st.frontend.reset();
  ScopedSpan setup("setup");
  {
    ScopedSpan s("serve.ModelSnapshot");
    st.snapshot = std::make_shared<const ModelSnapshot>(model, pool);
  }
  {
    ScopedSpan s("serve.ServingFrontEnd");
    st.frontend = std::make_unique<bslrec::serve::ServingFrontEnd>(
        data, st.snapshot, DaemonConfig());
  }
  {
    ScopedSpan s("serve.NetServer::Start");
    bslrec::serve::NetServerConfig net;
    net.io_threads = 1;
    st.server = std::make_unique<bslrec::serve::NetServer>(*st.frontend, net);
    r.Check(st.server->Start(), "NetServer::Start failed: " +
                                    st.server->last_error());
  }
  return setup.ms() / 1e3;
}

// ---- phase 1: open loop ---------------------------------------------------

struct OpenLoopRun {
  std::vector<int64_t> send_ns;  // absolute
  std::vector<int64_t> recv_ns;  // absolute, 0 = never answered
  std::vector<std::string> reply;
  std::vector<double> publish_ms;
  int64_t start_ns = 0;
};

OpenLoopRun RunOpenLoop(const Schedule& sched, uint16_t port,
                        bslrec::serve::ServingFrontEnd& frontend,
                        const bslrec::EmbeddingModel& model,
                        bslrec::runtime::ThreadPool& pool, Result& r) {
  OpenLoopRun run;
  const size_t n = sched.events.size();
  run.send_ns.assign(n, 0);
  run.recv_ns.assign(n, 0);
  run.reply.assign(n, "");
  const int fds[2] = {Connect(port), Connect(port)};  // interactive, bulk
  if (fds[0] < 0 || fds[1] < 0) {
    r.Check(false, "cannot connect to the server");
    for (int fd : fds) {
      if (fd >= 0) ::close(fd);
    }
    return run;
  }
  // Responses come back in request order per connection.
  std::vector<size_t> order[2];
  for (size_t i = 0; i < n; ++i) order[sched.events[i].bulk].push_back(i);

  run.start_ns = NowNs() + 20'000'000;  // first due time, 20 ms ahead
  const int64_t give_up = run.start_ns +
                          static_cast<int64_t>(sched.end_s * 1e9) +
                          10'000'000'000LL;
  std::thread receiver([&] {
    std::string buf[2];
    size_t next[2] = {0, 0};
    std::vector<std::string> lines;
    while (next[0] < order[0].size() || next[1] < order[1].size()) {
      pollfd p[2] = {{fds[0], POLLIN, 0}, {fds[1], POLLIN, 0}};
      const int ready = ::poll(p, 2, 100);
      if (NowNs() > give_up) break;
      if (ready <= 0) continue;
      for (int c = 0; c < 2; ++c) {
        if ((p[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        lines.clear();
        const bool alive = ReadLines(fds[c], buf[c], lines);
        const int64_t now = NowNs();
        for (std::string& line : lines) {
          if (next[c] >= order[c].size()) break;
          const size_t i = order[c][next[c]++];
          run.recv_ns[i] = now;
          run.reply[i] = std::move(line);
        }
        if (!alive) next[c] = order[c].size();
      }
    }
  });
  std::thread publisher([&] {
    for (int64_t t : sched.publish_ns) {
      SleepUntilNs(run.start_ns + t);
      ScopedSpan pub("serve.publish");
      std::shared_ptr<const ModelSnapshot> snap;
      {
        ScopedSpan s("serve.ModelSnapshot");
        snap = std::make_shared<const ModelSnapshot>(model, pool);
      }
      ScopedSpan s("serve.ServingFrontEnd::PublishSnapshot");
      frontend.PublishSnapshot(std::move(snap));
      run.publish_ms.push_back(s.ms());
    }
  });
  for (size_t i = 0; i < n;) {
    // Requests due together (a burst) go out in one write.
    const Event& e = sched.events[i];
    SleepUntilNs(run.start_ns + e.due_ns);
    std::string batch;
    size_t j = i;
    for (; j < n && sched.events[j].due_ns == e.due_ns &&
           sched.events[j].bulk == e.bulk;
         ++j) {
      batch += sched.events[j].line;
    }
    const int64_t now = NowNs();
    for (size_t t = i; t < j; ++t) run.send_ns[t] = now;
    if (!WriteAll(fds[e.bulk], batch)) {
      r.Check(false, "write to the server failed");
      break;
    }
    i = j;
  }
  publisher.join();
  receiver.join();
  for (int fd : fds) ::close(fd);
  return run;
}

// ---- phase 2: closed loop -------------------------------------------------

struct ClosedLoopRun {
  std::vector<int64_t> ok_recv_ns;  // every OK response
  uint64_t sent = 0;
  uint64_t failed = 0;
  int64_t start_ns = 0;
  std::vector<std::string> replies;  // for the wire replay
  std::vector<Event> requests;       // parallel to replies
};

// Each connection keeps kClosedLoopDepth requests in flight (replies come
// back in request order per connection), so the front door sees full
// batches and the rate measures serving capacity, not wake-up latency.
ClosedLoopRun RunClosedLoop(const ServeShape& shape, uint16_t port,
                            uint32_t num_users, uint64_t seed, Result& r) {
  ClosedLoopRun run;
  bslrec::Rng rng(seed ^ 0xC105EDULL);
  int fds[kClosedLoopConnections];
  for (int& fd : fds) fd = Connect(port);
  for (int fd : fds) {
    if (fd < 0) {
      r.Check(false, "cannot connect to the server");
      for (int f : fds) {
        if (f >= 0) ::close(f);
      }
      return run;
    }
  }
  std::string buf[kClosedLoopConnections];
  std::deque<Event> in_flight[kClosedLoopConnections];
  bool open[kClosedLoopConnections];
  auto send = [&](size_t c, size_t count) {
    std::string lines;
    for (size_t n = 0; n < count; ++n) {
      Event e;
      e.user = static_cast<uint32_t>(rng.NextIndex(num_users));
      e.k = kInteractiveK;
      e.id = Tag('c', run.sent++);
      e.line = RequestLine(e);
      lines += e.line;
      in_flight[c].push_back(std::move(e));
    }
    if (!WriteAll(fds[c], lines)) open[c] = false;
  };
  run.start_ns = NowNs();
  const int64_t stop =
      run.start_ns + static_cast<int64_t>(shape.phase2_s * 1e9);
  const int64_t give_up = stop + 10'000'000'000LL;
  for (size_t c = 0; c < kClosedLoopConnections; ++c) {
    open[c] = true;
    send(c, kClosedLoopDepth);
  }
  std::vector<std::string> lines;
  while (NowNs() <= give_up) {
    pollfd p[kClosedLoopConnections];
    bool waiting = false;
    for (size_t c = 0; c < kClosedLoopConnections; ++c) {
      const bool wait = open[c] && !in_flight[c].empty();
      p[c] = {wait ? fds[c] : -1, POLLIN, 0};
      waiting = waiting || wait;
    }
    if (!waiting) break;
    if (::poll(p, kClosedLoopConnections, 100) <= 0) continue;
    for (size_t c = 0; c < kClosedLoopConnections; ++c) {
      if (p[c].fd < 0 || (p[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) {
        continue;
      }
      lines.clear();
      if (!ReadLines(fds[c], buf[c], lines)) open[c] = false;
      const int64_t now = NowNs();
      size_t answered = 0;
      for (std::string& line : lines) {
        if (in_flight[c].empty()) break;
        bslrec::serve::wire::ParsedResponse resp;
        const bool ok = bslrec::serve::wire::ParseResponse(line, &resp) &&
                        resp.ok && resp.id == in_flight[c].front().id &&
                        resp.topk.items.size() == kInteractiveK;
        if (ok) {
          run.ok_recv_ns.push_back(now);
        } else {
          ++run.failed;
        }
        run.replies.push_back(std::move(line));
        run.requests.push_back(std::move(in_flight[c].front()));
        in_flight[c].pop_front();
        ++answered;
      }
      if (open[c] && now < stop && answered > 0) send(c, answered);
    }
  }
  for (size_t c = 0; c < kClosedLoopConnections; ++c) {
    run.failed += in_flight[c].size();  // still missing at the deadline
    ::close(fds[c]);
  }
  return run;
}

// ---- traced-run replays ---------------------------------------------------

struct InProcessRun {
  std::vector<double> latency_ms;  // interactive, due -> ready, measured
  std::vector<double> queue_ms;    // both lanes, measured
};

// The phase-1 schedule replayed against a fresh front end in process:
// Submit at the due time, the same thread waits for interactive futures
// (which complete in submission order) between sends.
InProcessRun ReplayInProcess(const Dataset& data,
                             std::shared_ptr<const ModelSnapshot> snapshot,
                             const Schedule& sched, Result& r) {
  InProcessRun out;
  bslrec::serve::ServingFrontEnd fe(data, std::move(snapshot),
                                    DaemonConfig());
  using Future = std::future<bslrec::serve::ServedResponse>;
  struct Pending {
    size_t index;
    Future future;
  };
  std::deque<Pending> interactive;
  std::vector<Pending> bulk;
  std::vector<int64_t> ready_ns(sched.events.size(), 0);
  std::vector<double> queue_us;
  const int64_t start = NowNs() + 20'000'000;
  auto settle = [&](Pending& p) {
    try {
      const bslrec::serve::ServedResponse resp = p.future.get();
      r.Check(resp.topk.items.size() == sched.events[p.index].k,
              "in-process replay returned a short ranking");
      if (sched.events[p.index].measured) {
        out.queue_ms.push_back(static_cast<double>(resp.queue_us) / 1e3);
      }
    } catch (const std::exception& e) {
      r.Check(false, std::string("in-process replay request failed: ") +
                         e.what());
    }
  };
  for (size_t i = 0; i < sched.events.size(); ++i) {
    const Event& e = sched.events[i];
    const auto due =
        Clock::time_point(std::chrono::nanoseconds(start + e.due_ns));
    while (!interactive.empty() &&
           interactive.front().future.wait_until(due) ==
               std::future_status::ready) {
      Pending& p = interactive.front();
      ready_ns[p.index] = NowNs();
      settle(p);
      interactive.pop_front();
    }
    SleepUntilNs(start + e.due_ns);
    const int64_t t0 = NowNs();
    Future f = fe.Submit(RequestOf(e));
    Tracer::Get().Record("serve.ServingFrontEnd::Submit", t0, NowNs(), i);
    (e.bulk ? bulk.emplace_back(Pending{i, std::move(f)})
            : interactive.emplace_back(Pending{i, std::move(f)}));
  }
  for (Pending& p : interactive) {
    p.future.wait();
    ready_ns[p.index] = NowNs();
    settle(p);
  }
  for (Pending& p : bulk) settle(p);
  for (size_t i = 0; i < sched.events.size(); ++i) {
    const Event& e = sched.events[i];
    if (e.bulk || !e.measured || ready_ns[i] == 0) continue;
    Tracer::Get().Record("serve.frontend.request", start + e.due_ns,
                         ready_ns[i], i);
    out.latency_ms.push_back((ready_ns[i] - start - e.due_ns) / 1e6);
  }
  return out;
}

// Share of measured interactive requests whose user already got a
// default-filtered answer since the last publication.
double RepeatUserShare(const Schedule& sched) {
  std::unordered_set<uint32_t> seen;
  size_t pub = 0, repeats = 0, measured = 0;
  for (const Event& e : sched.events) {
    while (pub < sched.publish_ns.size() &&
           sched.publish_ns[pub] <= e.due_ns) {
      seen.clear();
      ++pub;
    }
    if (e.bulk) continue;
    const bool repeat = !seen.insert(e.user).second;
    if (!e.measured) continue;
    ++measured;
    repeats += repeat ? 1 : 0;
  }
  return measured == 0 ? 0.0
                       : static_cast<double>(repeats) /
                             static_cast<double>(measured);
}

// ---- one serving run ------------------------------------------------------

struct ServeOutcome {
  double setup_s = 0.0;
  double latency_p50_ms = 0.0;
  double latency_tail_ms = 0.0;
  double tail_pct = 0.0;
  size_t tail_windows = 0;
  size_t tail_samples = 0;
  double raw_tail_ms = 0.0;
  double raw_tail_pct = 0.0;
  double bulk_p50_ms = 0.0;
  double requests_per_s = 0.0;
  double cpu_us_per_op = 0.0;
  double steal_share = 0.0;
  double lateness_tail_ms = 0.0;
};

// Runs setup, both phases and the correctness gates; with `layers` also
// every serve-layer replay (per-layer metrics into `r`).
ServeOutcome RunServing(const Dataset& data,
                          const bslrec::EmbeddingModel& model,
                          const ServeShape& shape, uint64_t seed,
                          bool layers, Result& r) {
  namespace wire = bslrec::serve::wire;
  ServeOutcome o;
  bslrec::runtime::ThreadPool pool(kPoolThreads);
  const Schedule sched = MakeSchedule(shape, data.num_users(), seed);

  ServeStack st;
  std::vector<double> setups;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    setups.push_back(BuildServeStack(data, model, pool, st, r));
  }
  o.setup_s = Median(setups);
  if (!r.correct()) return o;

  const CpuTimes host0 = ReadCpuTimes();
  const double cpu0 = ProcessCpuSeconds();
  const bslrec::serve::FrontEndStats fe0 = st.frontend->stats();
  const OpenLoopRun open =
      RunOpenLoop(sched, st.server->port(), *st.frontend, model, pool, r);
  const ClosedLoopRun closed = RunClosedLoop(shape, st.server->port(),
                                             data.num_users(), seed, r);
  const bslrec::serve::FrontEndStats fe1 = st.frontend->stats();
  const double cpu1 = ProcessCpuSeconds();
  const CpuTimes host1 = ReadCpuTimes();
  st.server->Stop();

  // Correctness: every reply parses and echoes its request; a seeded
  // sample of interactive replies and every bulk reply match a
  // reference engine on the same snapshot bits (publications
  // re-freeze the same model, so every generation is identical).
  bslrec::serve::ServeConfig ref_cfg = DaemonConfig().serve;
  ref_cfg.cache_rankings = false;
  bslrec::serve::RankingEngine reference(data, *st.snapshot, pool, ref_cfg);
  std::vector<size_t> interactive;
  for (size_t i = 0; i < sched.events.size(); ++i) {
    if (!sched.events[i].bulk) interactive.push_back(i);
  }
  bslrec::Rng pick(seed ^ 0xC4EC4ULL);
  pick.Shuffle(interactive);
  interactive.resize(std::min(interactive.size(), shape.check_sample));
  std::vector<bool> checked(sched.events.size(), false);
  for (size_t i : interactive) checked[i] = true;
  std::vector<double> latency, bulk_latency, lateness;
  std::vector<wire::ParsedResponse> parsed_ok;
  uint64_t attempted = 0, failed = 0, mismatches = 0;
  for (size_t i = 0; i < sched.events.size(); ++i) {
    const Event& e = sched.events[i];
    ++attempted;
    wire::ParsedResponse resp;
    const bool ok = open.recv_ns[i] != 0 &&
                    wire::ParseResponse(open.reply[i], &resp) && resp.ok &&
                    resp.id == e.id && resp.topk.items.size() == e.k;
    if (!ok) {
      ++failed;
      continue;
    }
    if (e.bulk || checked[i]) {
      const TopKResponse ref = reference.Handle(RequestOf(e));
      bool same = ref.items == resp.topk.items;
      for (size_t t = 0; same && t < ref.scores.size(); ++t) {
        same = std::fabs(ref.scores[t] - resp.topk.scores[t]) <= 1e-6f;
      }
      if (!same) {
        ++mismatches;
        ++failed;
        continue;
      }
    }
    parsed_ok.push_back(std::move(resp));
    if (!e.measured) continue;
    const int64_t due = open.start_ns + e.due_ns;
    const double ms = (open.recv_ns[i] - due) / 1e6;
    lateness.push_back((open.send_ns[i] - due) / 1e6);
    if (e.bulk) {
      bulk_latency.push_back(ms);
      continue;
    }
    latency.push_back(ms);
  }
  attempted += closed.sent;
  failed += closed.failed;
  r.attempted += attempted;
  r.failed += failed;
  r.Check(failed == 0, std::to_string(failed) + " of " +
                           std::to_string(attempted) +
                           " requests failed (" + std::to_string(mismatches) +
                           " mismatched the reference engine)");
  r.Check(latency.size() > shape.tail_window,
          "too few measured interactive replies");
  if (latency.empty() || closed.ok_recv_ns.empty()) return o;

  o.latency_p50_ms = Median(latency);
  o.latency_tail_ms = WindowedTail(latency, shape.tail_window, &o.tail_pct,
                                   &o.tail_windows);
  o.tail_samples = latency.size();
  o.raw_tail_ms = TailValue(latency, &o.raw_tail_pct);
  o.bulk_p50_ms = Median(bulk_latency);
  // Closed loop: the rate over each block of consecutive OK replies.
  std::vector<int64_t> done = closed.ok_recv_ns;
  std::sort(done.begin(), done.end());
  std::vector<double> per_window;
  for (size_t lo = 0; lo + shape.closed_block < done.size();
       lo += shape.closed_block) {
    const double span_s = (done[lo + shape.closed_block] - done[lo]) / 1e9;
    if (span_s > 0) per_window.push_back(shape.closed_block / span_s);
  }
  o.requests_per_s = Median(per_window);
  o.cpu_us_per_op = (cpu1 - cpu0) * 1e6 / static_cast<double>(attempted);
  o.steal_share = StealShare(host0, host1);
  double late_pct = 0.0;
  o.lateness_tail_ms = TailValue(lateness, &late_pct);

  const bslrec::serve::NetServer::Stats net = st.server->stats();
  r.diagnostics.push_back(
      "net accepted=" + std::to_string(net.connections_accepted) +
      " requests=" + std::to_string(net.requests) +
      " ok=" + std::to_string(net.responses_ok) +
      " err=" + std::to_string(net.responses_err));
  if (!layers) return o;

  // ---- per-layer replays ----
  Tracer& tracer = Tracer::Get();
  r.AddLayer("serve.snapshot.freeze_ms",
             Median(tracer.DurationsMs("serve.ModelSnapshot")), "ms",
             "median over set-ups and publications");
  r.AddLayer("serve.frontend.publish_ms", Median(open.publish_ms), "ms",
             "PublishSnapshot, median");

  ServeShape replay_shape = shape;
  replay_shape.phase1_s = shape.inprocess_s;
  const Schedule replay_sched =
      MakeSchedule(replay_shape, data.num_users(), seed);
  const InProcessRun inproc =
      ReplayInProcess(data, st.snapshot, replay_sched, r);
  double pct = 0.0;
  size_t nwin = 0;
  const double inproc_p50 = Median(inproc.latency_ms);
  r.AddLayer("serve.frontend.latency_p50_ms", inproc_p50, "ms",
             "in process, due -> future ready");
  const double inproc_tail =
      WindowedTail(inproc.latency_ms, shape.tail_window, &pct, &nwin);
  char note[96];
  std::snprintf(note, sizeof(note), "p%.2f, %zu windows", pct, nwin);
  r.AddLayer("serve.frontend.latency_tail_ms", inproc_tail, "ms", note);
  r.AddLayer("serve.frontend.queue_wait_p50_ms", Median(inproc.queue_ms), "ms",
             "ServedResponse::queue_us, both lanes");
  r.AddLayer("serve.frontend.queue_wait_tail_ms",
             WindowedTail(inproc.queue_ms, shape.tail_window, &pct, &nwin),
             "ms");

  const double batches = static_cast<double>(fe1.batches - fe0.batches);
  const double mean_batch =
      batches > 0 ? static_cast<double>(fe1.requests - fe0.requests) / batches
                  : 0.0;
  r.AddLayer("serve.frontend.batches", batches, "count",
             "both phases of the socket run");
  r.AddLayer("serve.frontend.mean_batch", mean_batch, "count");
  r.AddLayer("serve.frontend.size_flushes",
             static_cast<double>(fe1.size_flushes - fe0.size_flushes), "count");
  r.AddLayer("serve.frontend.deadline_flushes",
             static_cast<double>(fe1.deadline_flushes - fe0.deadline_flushes),
             "count");
  r.AddLayer("serve.net.overhead_p50_ms", o.latency_p50_ms - inproc_p50, "ms",
             "socket p50 minus in-process p50");

  // RankingEngine::HandleBatch at the observed batch size.
  {
    bslrec::serve::RankingEngine engine(data, *st.snapshot, pool,
                                        DaemonConfig().serve);
    const size_t per =
        std::max<size_t>(1, static_cast<size_t>(std::lround(mean_batch)));
    const size_t count = std::min(shape.engine_requests, sched.events.size());
    std::vector<double> ms;
    std::vector<TopKRequest> reqs;
    for (size_t lo = 0; lo < count; lo += per) {
      reqs.clear();
      for (size_t i = lo; i < std::min(count, lo + per); ++i) {
        reqs.push_back(RequestOf(sched.events[i]));
      }
      ScopedSpan s("serve.RankingEngine::HandleBatch", lo / per);
      engine.HandleBatch(reqs);
      ms.push_back(s.ms());
    }
    r.AddLayer("serve.engine.batch_ms", Median(ms), "ms",
               "median HandleBatch of " + std::to_string(per));
    r.AddLayer("serve.engine.repeat_user_share", RepeatUserShare(sched),
               "ratio");
  }
  // CatalogScorer::BatchTopK, one query per call at the served tier.
  {
    const bslrec::serve::CatalogScorer scorer(
        *st.snapshot, pool,
        bslrec::serve::ScorerOptionsFor(DaemonConfig().serve));
    scorer.ResetStats();
    std::vector<double> ms;
    size_t queries = 0;
    for (const Event& e : sched.events) {
      if (e.bulk) continue;
      if (queries++ == shape.scorer_queries) break;
      const bslrec::serve::ScoreQuery q{st.snapshot->UserVec(e.user),
                                        kInteractiveK, data.TrainItems(e.user)};
      ScopedSpan s("serve.CatalogScorer::BatchTopK", queries);
      scorer.BatchTopK({&q, 1});
      ms.push_back(s.ms());
    }
    r.AddLayer("serve.scorer.query_ms", Median(ms), "ms", "median per query");
    r.AddLayer("serve.scorer.shard_tasks",
               static_cast<double>(scorer.stats().exact_shards) /
                   static_cast<double>(ms.size()),
               "count", "exact shard tasks per query");
  }
  // Wire parse over the phase's request lines, format over its replies.
  {
    wire::ParseOptions popt;
    popt.num_users = data.num_users();
    std::vector<std::string_view> lines;
    for (const Event& e : sched.events) {
      lines.emplace_back(e.line.data(), e.line.size() - 1);
    }
    for (const Event& e : closed.requests) {
      lines.emplace_back(e.line.data(), e.line.size() - 1);
    }
    wire::ParsedRequest req;
    double parse_ms = 0.0;
    {
      ScopedSpan s("serve.wire::ParseRequest");
      for (std::string_view line : lines) {
        r.Check(wire::ParseRequest(line, popt, &req).ok(),
                "a request line failed to parse");
      }
      parse_ms = s.ms();
    }
    size_t bytes = 0;
    double format_ms = 0.0;
    {
      ScopedSpan s("serve.wire::FormatResponse");
      for (const wire::ParsedResponse& p : parsed_ok) {
        bytes += wire::FormatResponse(p.id, p.degrade_mode, p.snapshot_seq,
                                      p.topk)
                     .size();
      }
      format_ms = s.ms();
    }
    r.AddLayer("serve.wire.parse_us",
               parse_ms * 1e3 / static_cast<double>(lines.size()), "us",
               "mean per request line");
    r.AddLayer("serve.wire.format_us",
               format_ms * 1e3 / static_cast<double>(parsed_ok.size()), "us",
               "mean per response (" + std::to_string(bytes) + " bytes total)");
  }
  r.AddLayer("serve.client.lateness_tail_ms", o.lateness_tail_ms, "ms");
  r.AddLayer("serve.latency_raw_tail_ms", o.raw_tail_ms, "ms");
  return o;
}

// The served model: MF tables set from the generator's latent factors,
// with one extra coordinate carrying log item popularity so the served
// rankings reflect both preference and popularity.
std::unique_ptr<bslrec::MfModel> ServingModel(const GeneratedData& in,
                                              const Dataset& data,
                                              size_t dim, uint64_t seed) {
  bslrec::Rng rng(seed);
  auto model = std::make_unique<bslrec::MfModel>(in.num_users, in.num_items,
                                                 dim, rng);
  const std::vector<bslrec::ParamGrad> params = model->Params();
  bslrec::Matrix& users = *params[0].value;
  bslrec::Matrix& items = *params[1].value;
  const size_t latent = dim - 1;
  double max_log_pop = 1.0;
  for (uint32_t p : data.item_popularity()) {
    max_log_pop = std::max(max_log_pop, std::log1p(static_cast<double>(p)));
  }
  for (uint32_t u = 0; u < in.num_users; ++u) {
    std::copy_n(in.user_latent.Row(u), latent, users.Row(u));
    users.Row(u)[latent] = 0.5f;
  }
  for (uint32_t i = 0; i < in.num_items; ++i) {
    std::copy_n(in.item_latent.Row(i), latent, items.Row(i));
    items.Row(i)[latent] = static_cast<float>(
        std::log1p(static_cast<double>(data.item_popularity()[i])) /
        max_log_pop);
  }
  model->Forward(rng);
  return model;
}

}  // namespace

void RunServeWorkload(const Options& opt, Result& r) {
  constexpr size_t kDim = 64;
  GenConfig g;
  g.num_users = 20000;
  g.num_items = 100000;
  g.num_clusters = 100;
  g.latent_dim = kDim - 1;
  g.test_fraction = 0.4;
  g.seed = opt.seed;
  const GeneratedData in = GenerateClustered(g);
  const Dataset data(in.num_users, in.num_items, in.train, in.test);
  const std::unique_ptr<bslrec::MfModel> model =
      ServingModel(in, data, kDim, opt.seed);
  r.diagnostics.push_back("inputs users=" + std::to_string(in.num_users) +
                          " items=" + std::to_string(in.num_items) +
                          " dim=" + std::to_string(kDim) +
                          " train_edges=" + std::to_string(in.train.size()));

  const ServeShape shape = FullShape(opt.seconds);
  const ServeOutcome o =
      RunServing(data, *model, shape, opt.seed, opt.trace, r);

  char tail_note[160];
  std::snprintf(tail_note, sizeof(tail_note),
                "p%.2f per window of %zu, median of %zu windows, %zu samples",
                o.tail_pct, shape.tail_window, o.tail_windows,
                o.tail_samples);
  char raw_note[96];
  std::snprintf(raw_note, sizeof(raw_note), "p%.2f over %zu samples",
                o.raw_tail_pct, o.tail_samples);
  r.AddE2e("latency_p50_ms", o.latency_p50_ms, "ms",
           "phase-1 interactive, due -> reply");
  r.AddE2e("latency_tail_ms", o.latency_tail_ms, "ms", tail_note);
  r.AddE2e("bulk_latency_p50_ms", o.bulk_p50_ms, "ms");
  r.AddE2e("requests_per_s", o.requests_per_s, "1/s",
           "phase 2, 4 connections x " + std::to_string(kClosedLoopDepth) +
               " in flight, median over blocks of " +
               std::to_string(shape.closed_block) + " replies");
  r.AddE2e("setup_s", o.setup_s, "s",
           "median of " + std::to_string(kSetupRepeats) + " set-ups");
  r.AddE2e("peak_rss_mb", PeakRssMb(), "MiB");
  r.AddE2e("cpu_us_per_op", o.cpu_us_per_op, "us",
           "process CPU (server + client) per request");
  r.diagnostics.push_back("latency_raw_tail_ms=" +
                          std::to_string(o.raw_tail_ms) + " (" + raw_note +
                          ")");
  r.diagnostics.push_back("client_lateness_tail_ms=" +
                          std::to_string(o.lateness_tail_ms));
  r.diagnostics.push_back("host.steal_share=" + std::to_string(o.steal_share));
  if (!opt.trace) return;
  r.AddLayer("host.steal_share", o.steal_share, "ratio", "measured phases");
}

void AddServeLayerProbe(const Dataset& data,
                        const bslrec::EmbeddingModel& model, uint64_t seed,
                        Result& r) {
  Result probe;  // the probe's requests are not the workload's
  RunServing(data, model, ProbeShape(), seed, /*layers=*/true, probe);
  for (const Metric& m : probe.per_layer) r.per_layer.push_back(m);
  for (const std::string& e : probe.errors) {
    r.errors.push_back("serve probe: " + e);
  }
}

}  // namespace perfbench
