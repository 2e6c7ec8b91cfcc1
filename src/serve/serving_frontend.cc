#include "serve/serving_frontend.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <stdexcept>
#include <string>
#include <utility>

#include "math/check.h"

namespace bslrec::serve {
namespace {

using Clock = std::chrono::steady_clock;

uint64_t ElapsedUs(Clock::time_point from, Clock::time_point to) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(to - from)
          .count());
}

// Lane index that is safe even for an out-of-range enum value smuggled
// in via a cast: anything that is not kBulk is interactive.
size_t LaneIndex(RequestLane lane) {
  return lane == RequestLane::kBulk ? 1 : 0;
}

std::exception_ptr MakeOverloadError(const std::string& what,
                                     uint32_t retry_after_us) {
  return std::make_exception_ptr(OverloadError(
      "ServingFrontEnd: " + what + "; retry after " +
          std::to_string(retry_after_us) + "us",
      retry_after_us));
}

std::exception_ptr MakeDeadlineError(const std::string& what,
                                     DeadlineStage stage) {
  return std::make_exception_ptr(DeadlineExceededError(
      "ServingFrontEnd: deadline exceeded " + what + " (" +
          std::string(DeadlineStageName(stage)) + " stage)",
      stage));
}

// set_exception on a promise that might already hold a value (e.g. a
// bad_alloc thrown mid-delivery loop lands in the catch-all after some
// promises were fulfilled). Losing the redundant error beats dying.
void FailPromise(std::promise<ServedResponse>& promise,
                 const std::exception_ptr& error) {
  try {
    promise.set_exception(error);
  } catch (const std::future_error&) {
  }
}

}  // namespace

DegradeMode BrownoutModeFor(const ModelSnapshot& snapshot) {
  return snapshot.ivf() != nullptr ? DegradeMode::kIvf : DegradeMode::kNone;
}

ServeConfig BrownoutServeConfigFor(const ServeConfig& serve, DegradeMode mode,
                                   uint32_t brownout_nprobe) {
  ServeConfig out = serve;
  switch (mode) {
    case DegradeMode::kNone:
      break;
    case DegradeMode::kIvf:
      // The IVF probe and list scan: the degraded tier's cost is
      // governed by nprobe alone.
      out.exact = false;
      out.nprobe = brownout_nprobe;
      break;
  }
  return out;
}

ServingFrontEnd::State::State(const Dataset& data,
                              std::shared_ptr<const ModelSnapshot> snap,
                              runtime::ThreadPool& pool,
                              const FrontEndConfig& config, uint64_t sequence)
    : snapshot(std::move(snap)),
      seq(sequence),
      engine(data, *snapshot, pool, config.serve) {
  if (config.brownout.enable) {
    brownout_mode = BrownoutModeFor(*snapshot);
    if (brownout_mode != DegradeMode::kNone) {
      brownout_engine = std::make_unique<RankingEngine>(
          data, *snapshot, pool,
          BrownoutServeConfigFor(config.serve, brownout_mode,
                                 config.brownout.nprobe));
    }
  }
}

ServingFrontEnd::ServingFrontEnd(const Dataset& data,
                                 std::shared_ptr<const ModelSnapshot> snapshot,
                                 FrontEndConfig config)
    : data_(data),
      config_(config),
      pool_(config.serve.runtime.num_threads) {
  Init(std::move(snapshot));
}

ServingFrontEnd::ServingFrontEnd(const Dataset& data,
                                 const EmbeddingModel& model,
                                 FrontEndConfig config)
    : data_(data),
      config_(config),
      pool_(config.serve.runtime.num_threads) {
  // The dispatcher has not started, so the constructing thread is the
  // pool's sole driver here — the one place besides the dispatcher
  // allowed to use it.
  SnapshotOptions options = SnapshotOptionsFor(config_.serve);
  // With brownout enabled, build the IVF index too so the degraded
  // tier exists on the initial snapshot.
  if (config_.brownout.enable) options.ivf.build = true;
  Init(std::make_shared<const ModelSnapshot>(model, pool_, options));
}

void ServingFrontEnd::Init(std::shared_ptr<const ModelSnapshot> snapshot) {
  BSLREC_CHECK(config_.max_batch > 0);
  BSLREC_CHECK(config_.serve.max_k > 0);
  BSLREC_CHECK_MSG(config_.interactive_weight >= 1 && config_.bulk_weight >= 1,
                   "lane weights must be >= 1 (a zero weight starves a lane)");
  if (config_.brownout.enable) {
    BSLREC_CHECK_MSG(
        config_.brownout.low_watermark < config_.brownout.high_watermark,
        "BrownoutConfig::low_watermark must be < high_watermark");
  }
  PublishSnapshot(std::move(snapshot));
  dispatcher_ = std::thread(&ServingFrontEnd::DispatchLoop, this);
}

ServingFrontEnd::~ServingFrontEnd() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  queue_cv_.notify_all();
  space_cv_.notify_all();
  dispatcher_.join();  // the dispatcher flushes the queue before exiting
  // A producer that was blocked for queue space when shutdown began can
  // slip its request in after the dispatcher's final drain check. Fail
  // any such straggler with the typed retriable error instead of
  // letting its promise die unfulfilled (std::future_errc::broken_promise).
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& lane : lanes_) {
    for (Pending& p : lane) {
      ++stats_.shed_newest;
      FailPromise(p.promise,
                  MakeOverloadError("front end shut down before the request "
                                    "could be scheduled; request shed",
                                    config_.shed_retry_us));
    }
    lane.clear();
  }
}

ServingFrontEnd::Pending ServingFrontEnd::MakePending(
    const TopKRequest& request) {
  Pending p;
  p.req = request;
  p.extra.assign(request.extra_seen.begin(), request.extra_seen.end());
  p.req.extra_seen = p.extra;
  p.enqueued = Clock::now();
  const uint32_t deadline_us =
      request.deadline_us != 0 ? request.deadline_us
                               : config_.default_deadline_us;
  p.deadline = deadline_us != 0
                   ? p.enqueued + std::chrono::microseconds(deadline_us)
                   : Clock::time_point::max();
  return p;
}

bool ServingFrontEnd::AdmitLocked(std::unique_lock<std::mutex>& lock,
                                  Pending& p) {
  if (config_.max_queue_depth == 0) return true;
  bool counted_block = false;
  while (DepthLocked() >= config_.max_queue_depth) {
    if (shutdown_) {
      // Shutdown raced the wait for space: shed instead of enqueueing
      // into a server that may already have drained.
      ++stats_.shed_newest;
      FailPromise(p.promise,
                  MakeOverloadError("front end shutting down while the queue "
                                    "was full; request shed",
                                    config_.shed_retry_us));
      return false;
    }
    switch (config_.overflow) {
      case OverflowPolicy::kShedNewest: {
        ++stats_.shed_newest;
        FailPromise(p.promise,
                    MakeOverloadError(
                        "queue full (depth " + std::to_string(DepthLocked()) +
                            " >= max " +
                            std::to_string(config_.max_queue_depth) +
                            "), request shed",
                        config_.shed_retry_us));
        return false;
      }
      case OverflowPolicy::kShedOldest: {
        // Victim: the oldest bulk request if any, else the oldest
        // interactive one — bulk work is always the first casualty.
        const size_t victim_lane = lanes_[1].empty() ? 0 : 1;
        Pending victim = std::move(lanes_[victim_lane].front());
        lanes_[victim_lane].pop_front();
        ++stats_.shed_oldest;
        FailPromise(victim.promise,
                    MakeOverloadError(
                        "evicted from the " +
                            std::string(victim_lane == 1 ? "bulk"
                                                         : "interactive") +
                            " lane by a newer request (kShedOldest)",
                        config_.shed_retry_us));
        break;  // depth dropped below max; the loop re-checks
      }
      case OverflowPolicy::kBlock: {
        if (!counted_block) {
          ++stats_.blocked_submits;
          counted_block = true;
        }
        const auto space = [&] {
          return shutdown_ || DepthLocked() < config_.max_queue_depth;
        };
        if (p.deadline == Clock::time_point::max()) {
          space_cv_.wait(lock, space);
        } else if (!space_cv_.wait_until(lock, p.deadline, space)) {
          ++stats_.expired_admission;
          FailPromise(p.promise,
                      MakeDeadlineError("while waiting for queue space",
                                        DeadlineStage::kAdmission));
          return false;
        }
        break;
      }
    }
  }
  return true;
}

void ServingFrontEnd::Enqueue(Pending&& p) {
  const size_t lane = LaneIndex(p.req.lane);
  bool enqueued = false;
  {
    std::unique_lock<std::mutex> lock(mu_);
    BSLREC_CHECK_MSG(!shutdown_,
                     "Submit on a ServingFrontEnd being destroyed");
    ++stats_.submitted;
    ++stats_.lane_submitted[lane];
    if (AdmitLocked(lock, p)) {
      lanes_[lane].push_back(std::move(p));
      stats_.queue_depth_high_water =
          std::max<uint64_t>(stats_.queue_depth_high_water, DepthLocked());
      enqueued = true;
    }
  }
  if (enqueued) queue_cv_.notify_one();
}

std::future<ServedResponse> ServingFrontEnd::Submit(
    const TopKRequest& request) {
  Pending p = MakePending(request);
  std::future<ServedResponse> fut = p.promise.get_future();
  Enqueue(std::move(p));
  return fut;
}

std::vector<std::future<ServedResponse>> ServingFrontEnd::SubmitBatch(
    std::span<const TopKRequest> requests) {
  std::vector<std::future<ServedResponse>> futures;
  futures.reserve(requests.size());
  // Admission applies per request (a kBlock wait can interleave other
  // producers), so the batch enqueues one at a time, in order.
  for (const TopKRequest& request : requests) {
    futures.push_back(Submit(request));
  }
  return futures;
}

ServedResponse ServingFrontEnd::HandleSync(const TopKRequest& request) {
  return Submit(request).get();
}

std::vector<ServedResponse> ServingFrontEnd::HandleBatchSync(
    std::span<const TopKRequest> requests) {
  std::vector<std::future<ServedResponse>> futures = SubmitBatch(requests);
  std::vector<ServedResponse> out;
  out.reserve(futures.size());
  for (std::future<ServedResponse>& fut : futures) {
    out.push_back(fut.get());
  }
  return out;
}

uint64_t ServingFrontEnd::PublishSnapshot(
    std::shared_ptr<const ModelSnapshot> snapshot) {
  BSLREC_CHECK(snapshot != nullptr);
  BSLREC_CHECK(snapshot->num_users() == data_.num_users());
  BSLREC_CHECK(snapshot->num_items() == data_.num_items());
  std::lock_guard<std::mutex> publish_lock(publish_mu_);
  const uint64_t seq = next_seq_++;
  // Engine construction never drives the pool (ranking_engine.h), so
  // building the new state races nothing the dispatcher is doing.
  auto next = std::make_shared<State>(data_, std::move(snapshot), pool_,
                                      config_, seq);
  const bool can_degrade = next->brownout_engine != nullptr;
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    state_.swap(next);
  }
  // `next` now holds the previous state: it is released here, outside
  // the lock (or later, by the last batch still serving on it).
  next.reset();
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.snapshots_published;
    // A snapshot without a brownout tier ends a brownout in progress.
    if (brownout_active_ && !can_degrade) EndBrownoutLocked();
  }
  return seq;
}

std::shared_ptr<ServingFrontEnd::State> ServingFrontEnd::CurrentState()
    const {
  std::lock_guard<std::mutex> lock(state_mu_);
  return state_;
}

std::shared_ptr<const ModelSnapshot> ServingFrontEnd::current_snapshot()
    const {
  return CurrentState()->snapshot;
}

uint64_t ServingFrontEnd::current_seq() const { return CurrentState()->seq; }

DegradeMode ServingFrontEnd::current_brownout_mode() const {
  return CurrentState()->brownout_mode;
}

void ServingFrontEnd::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [&] { return DepthLocked() == 0 && in_flight_ == 0; });
}

FrontEndStats ServingFrontEnd::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void ServingFrontEnd::FormBatchLocked(std::vector<Pending>& batch) {
  const Clock::time_point now = Clock::now();
  const uint32_t weights[kNumLanes] = {config_.interactive_weight,
                                       config_.bulk_weight};
  while (batch.size() < config_.max_batch && DepthLocked() > 0) {
    for (size_t lane = 0; lane < kNumLanes; ++lane) {
      uint32_t credit = weights[lane];
      while (credit > 0 && !lanes_[lane].empty() &&
             batch.size() < config_.max_batch) {
        Pending p = std::move(lanes_[lane].front());
        lanes_[lane].pop_front();
        if (now >= p.deadline) {
          // Expired in the queue: fail fast, never score. Finalized by
          // the dispatcher, so it counts toward `requests` (but costs
          // no lane credit — a lane of corpses still gets its turn).
          ++stats_.expired_queue;
          ++stats_.requests;
          FailPromise(p.promise,
                      MakeDeadlineError(
                          "after " + std::to_string(ElapsedUs(p.enqueued,
                                                              now)) +
                              "us in the queue",
                          DeadlineStage::kQueue));
          continue;
        }
        p.queue_us = ElapsedUs(p.enqueued, now);
        batch.push_back(std::move(p));
        --credit;
      }
    }
  }
}

void ServingFrontEnd::UpdateBrownoutLocked() {
  const BrownoutConfig& b = config_.brownout;
  if (!b.enable) return;
  // A snapshot without an IVF index has no cheaper tier, so nothing
  // could degrade: no brownout while it is the current one.
  const bool can_degrade = CurrentState()->brownout_engine != nullptr;
  const bool latency_hot =
      b.latency_high_us != 0 && last_batch_us_ >= b.latency_high_us;
  if (!brownout_active_) {
    if (can_degrade && (DepthLocked() >= b.high_watermark || latency_hot)) {
      brownout_active_ = true;
      brownout_entered_ = Clock::now();
      ++stats_.brownout_entries;
    }
  } else if (!can_degrade ||
             (DepthLocked() <= b.low_watermark && !latency_hot)) {
    EndBrownoutLocked();
  }
}

void ServingFrontEnd::EndBrownoutLocked() {
  brownout_active_ = false;
  stats_.brownout_us += ElapsedUs(brownout_entered_, Clock::now());
  ++stats_.brownout_exits;
}

void ServingFrontEnd::DispatchLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    queue_cv_.wait(lock, [&] { return shutdown_ || DepthLocked() > 0; });
    if (DepthLocked() == 0) {
      if (shutdown_) break;
      continue;
    }

    // One fault-injection decision point per wakeup with work pending.
    FaultAction fault;
    if (config_.fault_injector != nullptr) {
      fault = config_.fault_injector->OnTick(injector_tick_++);
      if (fault.kind == FaultAction::Kind::kStall) {
        // Wedged dispatcher: sleep with the lock released so producers
        // keep enqueueing against a stalled server (this is how tests
        // drive queue growth into the admission machinery).
        lock.unlock();
        std::this_thread::sleep_for(std::chrono::microseconds(fault.micros));
        lock.lock();
        continue;  // re-evaluate the queue after the stall
      }
    }

    // The batch opened when the oldest pending request arrived (either
    // lane); wait for it to fill, but never past that request's flush
    // deadline. A full queue (or shutdown) skips the wait entirely.
    Clock::time_point oldest = Clock::time_point::max();
    for (const auto& lane : lanes_) {
      if (!lane.empty()) oldest = std::min(oldest, lane.front().enqueued);
    }
    queue_cv_.wait_until(
        lock, oldest + std::chrono::microseconds(config_.flush_deadline_us),
        [&] { return shutdown_ || DepthLocked() >= config_.max_batch; });

    // Brownout decision at maximal observed depth, just before the
    // batch forms; the whole batch serves at one tier.
    UpdateBrownoutLocked();
    const bool degraded = brownout_active_;

    std::vector<Pending> batch;
    batch.reserve(std::min(DepthLocked(), config_.max_batch));
    FormBatchLocked(batch);
    // FormBatchLocked always pops at least one request (into the batch
    // or finalized as expired), so space just freed under kBlock.
    if (config_.max_queue_depth != 0) space_cv_.notify_all();
    if (batch.empty()) {
      // Everything dequeued had already expired; nothing to score.
      if (DepthLocked() == 0 && in_flight_ == 0) idle_cv_.notify_all();
      continue;
    }

    in_flight_ = batch.size();
    // Counted before ServeBatch fulfils any promise, so a caller holding
    // every response already sees its requests here (the accounting
    // identity in serving_frontend.h).
    stats_.requests += batch.size();
    ++stats_.batches;
    if (batch.size() == config_.max_batch) {
      ++stats_.size_flushes;
    } else if (shutdown_) {
      ++stats_.drain_flushes;
    } else {
      ++stats_.deadline_flushes;
    }
    stats_.max_batch_served =
        std::max<uint64_t>(stats_.max_batch_served, batch.size());

    lock.unlock();
    const Clock::time_point start = Clock::now();
    ServeBatch(batch, degraded, fault);
    const uint64_t batch_us = ElapsedUs(start, Clock::now());
    lock.lock();

    last_batch_us_ = batch_us;
    in_flight_ = 0;
    idle_cv_.notify_all();
  }
  // Close an active brownout span so brownout_us is complete at exit.
  if (brownout_active_) EndBrownoutLocked();
}

void ServingFrontEnd::ServeBatch(std::vector<Pending>& batch, bool degraded,
                                 const FaultAction& fault) {
  const std::shared_ptr<State> state = CurrentState();
  const ModelSnapshot& snapshot = *state->snapshot;

  // Validate up front so malformed requests fail their own future with
  // a diagnostic instead of tripping the engine's process-wide checks.
  std::vector<TopKRequest> valid;
  std::vector<size_t> valid_idx;
  valid.reserve(batch.size());
  valid_idx.reserve(batch.size());
  uint64_t rejected = 0;
  for (size_t i = 0; i < batch.size(); ++i) {
    const TopKRequest& req = batch[i].req;
    std::string error;
    if (req.user >= snapshot.num_users()) {
      error = "user " + std::to_string(req.user) + " out of range [0, " +
              std::to_string(snapshot.num_users()) + ")";
    } else if (req.k == 0) {
      error = "k must be > 0";
    } else if (!std::is_sorted(req.extra_seen.begin(),
                               req.extra_seen.end())) {
      error = "extra_seen must be sorted ascending";
    }
    if (error.empty()) {
      valid.push_back(req);
      valid_idx.push_back(i);
    } else {
      FailPromise(batch[i].promise,
                  std::make_exception_ptr(
                      std::invalid_argument("ServingFrontEnd: " + error)));
      ++rejected;
    }
  }

  // Tier selection was made by the dispatcher (UpdateBrownoutLocked);
  // here it only picks which engine scores the batch.
  RankingEngine* engine = &state->engine;
  DegradeMode mode = DegradeMode::kNone;
  if (degraded && state->brownout_engine != nullptr) {
    engine = state->brownout_engine.get();
    mode = state->brownout_mode;
  }

  uint64_t lane_served[kNumLanes] = {};
  uint64_t degraded_served = 0;
  uint64_t expired_batch = 0;
  if (!valid.empty()) {
    if (fault.kind == FaultAction::Kind::kDelay) {
      // Injected slow scorer: the batch is already formed, so this
      // drives mid-batch deadline expiry and latency brownout.
      std::this_thread::sleep_for(std::chrono::microseconds(fault.micros));
    }
    try {
      if (fault.kind == FaultAction::Kind::kFail) {
        throw std::runtime_error("injected batch fault (FaultInjector)");
      }
      std::vector<TopKResponse> responses = engine->HandleBatch(valid);
      const Clock::time_point now = Clock::now();
      for (size_t v = 0; v < valid_idx.size(); ++v) {
        Pending& p = batch[valid_idx[v]];
        if (now >= p.deadline) {
          // Expired while the batch was being scored: discard the
          // ranking for this request only — a deadline-missed request
          // is never fulfilled with a ranking.
          ++expired_batch;
          FailPromise(p.promise, MakeDeadlineError("during batch scoring",
                                                   DeadlineStage::kBatch));
          continue;
        }
        ServedResponse served;
        served.topk = std::move(responses[v]);
        served.snapshot_seq = state->seq;
        served.snapshot = state->snapshot;
        served.degraded = mode != DegradeMode::kNone;
        served.degrade_mode = mode;
        served.queue_us = p.queue_us;
        ++lane_served[LaneIndex(p.req.lane)];
        if (served.degraded) ++degraded_served;
        p.promise.set_value(std::move(served));
      }
    } catch (const std::exception& e) {
      // Scoring failed: fail every future of this batch with the
      // generation + lane context a caller needs to diagnose which
      // publication broke; later batches proceed.
      for (size_t v = 0; v < valid_idx.size(); ++v) {
        Pending& p = batch[valid_idx[v]];
        FailPromise(p.promise,
                    std::make_exception_ptr(std::runtime_error(
                        "ServingFrontEnd: scoring failed on snapshot seq " +
                        std::to_string(state->seq) + " (lane " +
                        std::string(LaneName(p.req.lane)) + "): " +
                        e.what())));
      }
    } catch (...) {
      const std::exception_ptr error = std::current_exception();
      for (size_t v = 0; v < valid_idx.size(); ++v) {
        FailPromise(batch[valid_idx[v]].promise, error);
      }
    }
  }

  std::lock_guard<std::mutex> stats_lock(mu_);
  stats_.rejected += rejected;
  stats_.expired_batch += expired_batch;
  stats_.degraded_served += degraded_served;
  for (size_t lane = 0; lane < kNumLanes; ++lane) {
    stats_.lane_served[lane] += lane_served[lane];
  }
}

}  // namespace bslrec::serve
