#include "serve/ranking_engine.h"

#include <algorithm>

#include "math/check.h"

namespace bslrec::serve {

namespace {

// Marks a user whose cached ranking is being computed by the current
// batch (so duplicate users in one batch score only once).
constexpr uint8_t kCacheAbsent = 0;
constexpr uint8_t kCacheValid = 1;
constexpr uint8_t kCachePending = 2;

TopKResponse ToResponse(std::span<const ScoredItem> ranking, uint32_t k) {
  const size_t kk = std::min<size_t>(k, ranking.size());
  TopKResponse resp;
  resp.items.reserve(kk);
  resp.scores.reserve(kk);
  for (size_t i = 0; i < kk; ++i) {
    resp.items.push_back(ranking[i].item);
    resp.scores.push_back(ranking[i].score);
  }
  return resp;
}

}  // namespace

SnapshotOptions SnapshotOptionsFor(const ServeConfig& config) {
  return SnapshotOptionsFor(ScorerOptionsFor(config), config.ivf);
}

ScorerOptions ScorerOptionsFor(const ServeConfig& config) {
  return ScorerOptions{.exact = config.exact, .nprobe = config.nprobe};
}

RankingEngine::RankingEngine(const Dataset& data,
                             const ModelSnapshot& snapshot,
                             runtime::ThreadPool& pool,
                             const ServeConfig& config)
    : data_(data),
      config_(config),
      snapshot_(snapshot),
      scorer_(snapshot, pool, ScorerOptionsFor(config)),
      cache_valid_(config.cache_rankings ? data.num_users() : 0,
                   kCacheAbsent),
      cache_(config.cache_rankings ? data.num_users() : 0) {
  BSLREC_CHECK(config.max_k > 0);
  BSLREC_CHECK(data.num_users() == snapshot.num_users());
  BSLREC_CHECK(data.num_items() == snapshot.num_items());
}

TopKResponse RankingEngine::Handle(const TopKRequest& request) {
  std::vector<TopKResponse> responses = HandleBatch({&request, 1});
  return std::move(responses[0]);
}

std::vector<TopKResponse> RankingEngine::HandleBatch(
    std::span<const TopKRequest> requests) {
  std::vector<TopKResponse> out(requests.size());
  if (requests.empty()) return out;

  // Split the batch: cache-eligible requests (default filtering,
  // k <= max_k) share one top-max_k scoring per user; everything else
  // is scored directly at its own cutoff with its own exclusion list.
  std::vector<uint32_t> miss_users;  // unique, first-appearance order
  std::vector<size_t> direct_reqs;
  std::vector<bool> from_cache(requests.size(), false);
  for (size_t r = 0; r < requests.size(); ++r) {
    const TopKRequest& req = requests[r];
    BSLREC_CHECK(req.user < snapshot_.num_users());
    BSLREC_CHECK(req.k > 0);
    BSLREC_CHECK(
        std::is_sorted(req.extra_seen.begin(), req.extra_seen.end()));
    const bool cacheable = config_.cache_rankings && req.filter_seen &&
                           req.extra_seen.empty() && req.k <= config_.max_k;
    if (cacheable) {
      from_cache[r] = true;
      if (cache_valid_[req.user] == kCacheAbsent) {
        cache_valid_[req.user] = kCachePending;
        miss_users.push_back(req.user);
      }
    } else {
      direct_reqs.push_back(r);
    }
  }

  // One flat scoring batch: cache misses first, then direct requests.
  // Merged per-request exclusion lists live in `merged_seen` so the
  // query spans stay valid until BatchTopK returns.
  std::vector<ScoreQuery> queries;
  queries.reserve(miss_users.size() + direct_reqs.size());
  std::vector<std::vector<uint32_t>> merged_seen;
  merged_seen.reserve(direct_reqs.size());
  for (uint32_t u : miss_users) {
    queries.push_back(
        {snapshot_.UserVec(u), config_.max_k, data_.TrainItems(u)});
  }
  for (size_t r : direct_reqs) {
    const TopKRequest& req = requests[r];
    std::span<const uint32_t> exclude;
    if (req.filter_seen && req.extra_seen.empty()) {
      exclude = data_.TrainItems(req.user);
    } else if (!req.filter_seen) {
      exclude = req.extra_seen;
    } else {
      const auto train = data_.TrainItems(req.user);
      std::vector<uint32_t>& merged = merged_seen.emplace_back();
      merged.reserve(train.size() + req.extra_seen.size());
      std::set_union(train.begin(), train.end(), req.extra_seen.begin(),
                     req.extra_seen.end(), std::back_inserter(merged));
      exclude = merged;
    }
    queries.push_back({snapshot_.UserVec(req.user), req.k, exclude});
  }

  std::vector<std::vector<ScoredItem>> results = scorer_.BatchTopK(queries);
  for (size_t m = 0; m < miss_users.size(); ++m) {
    cache_[miss_users[m]] = std::move(results[m]);
    cache_valid_[miss_users[m]] = kCacheValid;
  }
  for (size_t d = 0; d < direct_reqs.size(); ++d) {
    const size_t r = direct_reqs[d];
    out[r] = ToResponse(results[miss_users.size() + d], requests[r].k);
  }
  for (size_t r = 0; r < requests.size(); ++r) {
    if (from_cache[r]) {
      out[r] = ToResponse(cache_[requests[r].user], requests[r].k);
    }
  }
  return out;
}

}  // namespace bslrec::serve
