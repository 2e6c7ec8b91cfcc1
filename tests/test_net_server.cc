// Loopback tests for the epoll transport (net_server.h): bytewise
// response identity against the synchronous path across concurrent
// clients, pipelined per-connection ordering, malformed-line handling,
// overload shedding reconciled against FrontEndStats, bounded input
// memory, and drain-on-Stop.
#include "serve/net_server.h"

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "data/synthetic.h"
#include "gtest/gtest.h"
#include "math/rng.h"
#include "models/mf.h"
#include "serve/fault_injector.h"
#include "serve/inference_service.h"
#include "serve/wire.h"
#include "test_util.h"

namespace bslrec {
namespace {

using serve::DegradeMode;
using serve::ErrorCode;
using serve::FaultAction;
using serve::FaultRule;
using serve::FrontEndConfig;
using serve::InferenceService;
using serve::NetServer;
using serve::NetServerConfig;
using serve::OverflowPolicy;
using serve::ScheduledFaultInjector;
using serve::ServingFrontEnd;
using serve::TopKRequest;

Dataset MediumDataset(uint64_t seed = 11) {
  SyntheticConfig cfg;
  cfg.num_users = 60;
  cfg.num_items = 90;
  cfg.num_clusters = 5;
  cfg.avg_items_per_user = 10.0;
  cfg.seed = seed;
  return GenerateSynthetic(cfg).dataset;
}

std::unique_ptr<MfModel> MakeModel(const Dataset& d, uint64_t seed,
                                   size_t dim = 8) {
  Rng rng(seed);
  auto model = std::make_unique<MfModel>(d.num_users(), d.num_items(), dim,
                                         rng);
  model->Forward(rng);
  return model;
}

FrontEndConfig Config(size_t max_batch = 8, uint32_t flush_us = 200,
                      size_t threads = 2) {
  FrontEndConfig cfg;
  cfg.max_batch = max_batch;
  cfg.flush_deadline_us = flush_us;
  cfg.serve.max_k = 20;
  cfg.serve.runtime.num_threads = threads;
  return cfg;
}

// A blocking loopback client. Reads are line-buffered with a poll()
// timeout so a wedged server fails the test instead of hanging it.
class Client {
 public:
  explicit Client(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  bool connected() const { return fd_ >= 0; }

  bool Send(const std::string& text) {
    size_t off = 0;
    while (off < text.size()) {
      const ssize_t n =
          ::send(fd_, text.data() + off, text.size() - off, MSG_NOSIGNAL);
      if (n <= 0) return false;
      off += static_cast<size_t>(n);
    }
    return true;
  }

  // Reads one '\n'-terminated line (newline stripped). False on EOF,
  // error, or timeout.
  bool ReadLine(std::string* line, int timeout_ms = 10000) {
    for (;;) {
      const size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        line->assign(buf_, 0, nl);
        buf_.erase(0, nl + 1);
        return true;
      }
      pollfd pfd{fd_, POLLIN, 0};
      const int pr = ::poll(&pfd, 1, timeout_ms);
      if (pr <= 0) return false;
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return false;
      buf_.append(chunk, static_cast<size_t>(n));
    }
  }

  // True when the server has closed the connection (EOF with no
  // further bytes beyond what ReadLine already consumed).
  bool ReadEof(int timeout_ms = 10000) {
    if (!buf_.empty()) return false;
    pollfd pfd{fd_, POLLIN, 0};
    if (::poll(&pfd, 1, timeout_ms) <= 0) return false;
    char chunk[64];
    return ::recv(fd_, chunk, sizeof(chunk), 0) == 0;
  }

 private:
  int fd_ = -1;
  std::string buf_;
};

std::string WireLine(uint32_t user, uint32_t k, const std::string& id) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "TOPK %u %u ID=%s\n", user, k, id.c_str());
  return buf;
}

TopKRequest Req(uint32_t user, uint32_t k, bool filter_seen = true) {
  TopKRequest req;
  req.user = user;
  req.k = k;
  req.filter_seen = filter_seen;
  return req;
}

// The sync reference for a request served off the initial snapshot:
// seq=1, no brownout.
std::string ExpectedOk(InferenceService& sync, const TopKRequest& req,
                       const std::string& id) {
  return serve::wire::FormatResponse(id, DegradeMode::kNone, /*seq=*/1,
                                     sync.Handle(req));
}

// N clients, each pipelining a deterministic request stream; every
// response must be bytewise identical to the synchronous service and
// arrive in request order (the per-connection ordering contract).
TEST(NetServer, ResponsesBitIdenticalToSyncAcrossClients) {
  const Dataset d = MediumDataset();
  const std::unique_ptr<MfModel> model = MakeModel(d, 3);
  const FrontEndConfig cfg = Config(/*max_batch=*/4, /*flush_us=*/100);
  InferenceService sync(d, *model, cfg.serve);
  ServingFrontEnd frontend(d, *model, cfg);

  NetServerConfig net;
  net.io_threads = 2;
  NetServer server(frontend, net);
  ASSERT_TRUE(server.Start()) << server.last_error();

  constexpr size_t kClients = 4;
  constexpr size_t kRequests = 25;
  // The sync reference is computed up front on this thread — the
  // client threads only do socket I/O and string compares.
  std::vector<std::string> batches(kClients);
  std::vector<std::vector<std::string>> expected(kClients);
  for (size_t c = 0; c < kClients; ++c) {
    Rng rng(100 + c);
    for (size_t i = 0; i < kRequests; ++i) {
      const auto user = static_cast<uint32_t>(rng.NextIndex(d.num_users()));
      const auto k = 1 + static_cast<uint32_t>(rng.NextIndex(20));
      char id[32];
      std::snprintf(id, sizeof(id), "c%zur%zu", c, i);
      batches[c] += WireLine(user, k, id);
      expected[c].push_back(ExpectedOk(sync, Req(user, k), id));
    }
  }
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      Client client(server.port());
      ASSERT_TRUE(client.connected());
      ASSERT_TRUE(client.Send(batches[c]));
      std::string line;
      for (size_t i = 0; i < kRequests; ++i) {
        ASSERT_TRUE(client.ReadLine(&line)) << "client " << c << " line " << i;
        EXPECT_EQ(line, expected[c][i]) << "client " << c << " line " << i;
      }
    });
  }
  for (auto& t : threads) t.join();

  server.Stop();
  const NetServer::Stats st = server.stats();
  EXPECT_EQ(st.requests, kClients * kRequests);
  EXPECT_EQ(st.responses_ok, kClients * kRequests);
  EXPECT_EQ(st.responses_err, 0u);
  EXPECT_EQ(st.bad_requests, 0u);
}

// The socket accepts the legacy CLI grammar too — one grammar, two
// transports. Legacy lines carry no ID, so responses echo "-", and a
// missing k falls back to NetServerConfig::default_k.
TEST(NetServer, LegacyCliFormSpeaksTheSameGrammar) {
  const Dataset d = MediumDataset();
  const std::unique_ptr<MfModel> model = MakeModel(d, 5);
  const FrontEndConfig cfg = Config();
  InferenceService sync(d, *model, cfg.serve);
  ServingFrontEnd frontend(d, *model, cfg);

  NetServerConfig net;
  net.default_k = 7;
  NetServer server(frontend, net);
  ASSERT_TRUE(server.Start()) << server.last_error();

  Client client(server.port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.Send("3\n12 5\n9 4 all\n# comment\n\n8 2\n"));

  const std::vector<std::string> expected = {
      ExpectedOk(sync, Req(3, 7), "-"),
      ExpectedOk(sync, Req(12, 5), "-"),
      ExpectedOk(sync, Req(9, 4, /*filter_seen=*/false), "-"),
      ExpectedOk(sync, Req(8, 2), "-"),
  };
  std::string line;
  for (size_t i = 0; i < expected.size(); ++i) {
    ASSERT_TRUE(client.ReadLine(&line)) << "line " << i;
    EXPECT_EQ(line, expected[i]) << "line " << i;
  }
  server.Stop();
  // Comments and blank lines produce no response and are not counted
  // as request lines.
  EXPECT_EQ(server.stats().lines, 4u);
}

// A complete malformed line gets its ERR BAD_REQUEST response in
// order and the connection stays usable.
TEST(NetServer, MalformedLinesAnswerBadRequestAndConnectionSurvives) {
  const Dataset d = MediumDataset();
  const std::unique_ptr<MfModel> model = MakeModel(d, 7);
  const FrontEndConfig cfg = Config();
  InferenceService sync(d, *model, cfg.serve);
  ServingFrontEnd frontend(d, *model, cfg);
  NetServer server(frontend);
  ASSERT_TRUE(server.Start()) << server.last_error();

  Client client(server.port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.Send("banana\nTOPK 9999 5 ID=z\nTOPK 2 3 ID=good\n"));

  std::string line;
  ASSERT_TRUE(client.ReadLine(&line));
  EXPECT_TRUE(line.starts_with("ERR - BAD_REQUEST ")) << line;
  ASSERT_TRUE(client.ReadLine(&line));
  EXPECT_TRUE(line.starts_with("ERR z BAD_REQUEST ")) << line;
  serve::wire::ParsedResponse parsed;
  ASSERT_TRUE(serve::wire::ParseResponse(line, &parsed));
  EXPECT_FALSE(parsed.ok);
  EXPECT_EQ(parsed.status.code, ErrorCode::kBadRequest);
  ASSERT_TRUE(client.ReadLine(&line));
  EXPECT_EQ(line, ExpectedOk(sync, Req(2, 3), "good"));

  server.Stop();
  const NetServer::Stats st = server.stats();
  EXPECT_EQ(st.bad_requests, 2u);
  EXPECT_EQ(st.requests, 1u);
}

// A connection that exceeds max_line_bytes without a newline gets one
// BAD_REQUEST line and is hung up (bounded input memory).
TEST(NetServer, OversizedUnterminatedLineIsAnsweredAndHungUp) {
  const Dataset d = MediumDataset();
  const std::unique_ptr<MfModel> model = MakeModel(d, 9);
  ServingFrontEnd frontend(d, *model, Config());
  NetServerConfig net;
  net.max_line_bytes = 64;
  NetServer server(frontend, net);
  ASSERT_TRUE(server.Start()) << server.last_error();

  Client client(server.port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.Send(std::string(200, 'a')));  // no newline

  std::string line;
  ASSERT_TRUE(client.ReadLine(&line));
  EXPECT_TRUE(line.starts_with("ERR - BAD_REQUEST ")) << line;
  EXPECT_TRUE(client.ReadEof());
  server.Stop();
}

// Overload: a stalled dispatcher in front of a tiny bounded queue
// forces kShedNewest sheds. Every shed arrives as a well-formed
// `ERR _ OVERLOAD retry_after_us=<n>` with the configured backoff, and
// the wire-level OK/OVERLOAD counts reconcile exactly with the front
// door's admission accounting identity.
TEST(NetServer, OverloadShedsReconcileWithFrontEndStats) {
  const Dataset d = MediumDataset();
  const std::unique_ptr<MfModel> model = MakeModel(d, 13);
  FrontEndConfig cfg = Config(/*max_batch=*/2, /*flush_us=*/100);
  cfg.max_queue_depth = 2;
  cfg.overflow = OverflowPolicy::kShedNewest;
  cfg.shed_retry_us = 750;
  // Wedge the dispatcher on its first wakeup: the queue fills to
  // max_queue_depth while every further submit sheds.
  cfg.fault_injector = std::make_shared<ScheduledFaultInjector>(
      std::vector<FaultRule>{{FaultAction::Kind::kStall, /*first=*/0,
                              /*period=*/1, /*count=*/1,
                              /*micros=*/150000}});
  ServingFrontEnd frontend(d, *model, cfg);
  NetServer server(frontend);
  ASSERT_TRUE(server.Start()) << server.last_error();

  constexpr size_t kClients = 3;
  constexpr size_t kRequests = 40;
  std::atomic<uint64_t> ok_seen{0};
  std::atomic<uint64_t> overload_seen{0};
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      Client client(server.port());
      ASSERT_TRUE(client.connected());
      std::string batch;
      for (size_t i = 0; i < kRequests; ++i) {
        char id[32];
        std::snprintf(id, sizeof(id), "s%zu", i);
        batch += WireLine(static_cast<uint32_t>((c * 17 + i) % d.num_users()),
                          5, id);
      }
      ASSERT_TRUE(client.Send(batch));
      std::string line;
      for (size_t i = 0; i < kRequests; ++i) {
        ASSERT_TRUE(client.ReadLine(&line)) << "client " << c << " line " << i;
        serve::wire::ParsedResponse parsed;
        ASSERT_TRUE(serve::wire::ParseResponse(line, &parsed)) << line;
        if (parsed.ok) {
          ok_seen.fetch_add(1);
        } else {
          ASSERT_EQ(parsed.status.code, ErrorCode::kOverload) << line;
          EXPECT_EQ(parsed.status.retry_after_us, 750u) << line;
          overload_seen.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  server.Stop();

  const serve::FrontEndStats st = frontend.stats();
  EXPECT_EQ(ok_seen + overload_seen, kClients * kRequests);
  EXPECT_GT(overload_seen.load(), 0u) << "no sheds — queue never filled";
  EXPECT_EQ(st.submitted, kClients * kRequests);
  EXPECT_EQ(overload_seen.load(), st.shed_newest + st.shed_oldest);
  // The admission accounting identity (serving_frontend.h).
  EXPECT_EQ(st.submitted, st.requests + st.shed_newest + st.shed_oldest +
                              st.expired_admission);
  EXPECT_EQ(server.stats().responses_err, overload_seen.load());
}

// Stop() drains: every request already submitted is answered and
// flushed before the connection closes.
TEST(NetServer, StopDrainsSubmittedRequests) {
  const Dataset d = MediumDataset();
  const std::unique_ptr<MfModel> model = MakeModel(d, 21);
  // A wide batch and a lazy flush deadline keep requests queued so
  // Stop() has something real to drain.
  const FrontEndConfig cfg = Config(/*max_batch=*/64, /*flush_us=*/100000);
  InferenceService sync(d, *model, cfg.serve);
  ServingFrontEnd frontend(d, *model, cfg);
  NetServer server(frontend);
  ASSERT_TRUE(server.Start()) << server.last_error();

  Client client(server.port());
  ASSERT_TRUE(client.connected());
  constexpr size_t kRequests = 12;
  std::string batch;
  std::vector<std::string> expected;
  for (size_t i = 0; i < kRequests; ++i) {
    const auto user = static_cast<uint32_t>(i % d.num_users());
    char buf[32];
    std::snprintf(buf, sizeof(buf), "d%zu", i);
    const std::string id = buf;
    batch += WireLine(user, 6, id);
    expected.push_back(ExpectedOk(sync, Req(user, 6), id));
  }
  ASSERT_TRUE(client.Send(batch));
  // Wait until the io loop has submitted everything, then stop.
  while (frontend.stats().submitted < kRequests) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  server.Stop();

  std::string line;
  for (size_t i = 0; i < kRequests; ++i) {
    ASSERT_TRUE(client.ReadLine(&line)) << "line " << i;
    EXPECT_EQ(line, expected[i]) << "line " << i;
  }
  EXPECT_TRUE(client.ReadEof());
  EXPECT_EQ(server.stats().responses_ok, kRequests);
}

// Start() reports socket failures by value: binding a port that is
// already taken fails with last_error() set, and the failed server
// tears down cleanly.
TEST(NetServer, StartReportsBindFailureByValue) {
  const Dataset d = MediumDataset();
  const std::unique_ptr<MfModel> model = MakeModel(d, 23);
  ServingFrontEnd frontend(d, *model, Config());

  NetServer first(frontend);
  ASSERT_TRUE(first.Start()) << first.last_error();

  NetServerConfig taken;
  taken.port = first.port();
  NetServer second(frontend, taken);
  EXPECT_FALSE(second.Start());
  EXPECT_FALSE(second.last_error().empty());
  first.Stop();
}

}  // namespace
}  // namespace bslrec
