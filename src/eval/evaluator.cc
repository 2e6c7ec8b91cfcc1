#include "eval/evaluator.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <span>

#include "math/check.h"
#include "serve/topk_scorer.h"

namespace bslrec {
namespace {

// Users per shard in the parallel ranking loop; each shard is ranked as
// one block of serve::BlockTopK. Fixed (independent of the worker
// count) so per-shard outputs reduce deterministically; small enough
// that ranking-heavy shards still load-balance. No ranking depends on
// it: every block ranks each user's items by vec::Dot's bits.
constexpr size_t kEvalGrain = serve::kQueryBlock;

}  // namespace

Evaluator::Evaluator(const Dataset& data, uint32_t k,
                     runtime::RuntimeConfig runtime,
                     serve::ScorerOptions scoring)
    : data_(data),
      k_(k),
      scoring_(scoring),
      test_users_(data.TestUsers()),
      owned_pool_(
          std::make_unique<runtime::ThreadPool>(runtime.num_threads)),
      pool_(owned_pool_.get()) {
  BSLREC_CHECK(k > 0);
}

Evaluator::Evaluator(const Dataset& data, uint32_t k,
                     runtime::ThreadPool* pool, serve::ScorerOptions scoring)
    : data_(data),
      k_(k),
      scoring_(scoring),
      test_users_(data.TestUsers()),
      pool_(pool) {
  BSLREC_CHECK(k > 0);
  BSLREC_CHECK(pool != nullptr);
}

Evaluator::Pass::Pass(const Evaluator& eval, const EmbeddingModel& model)
    : Pass(eval, std::make_shared<const serve::ModelSnapshot>(
                     model, *eval.pool_,
                     serve::SnapshotOptionsFor(eval.scoring_))) {}

Evaluator::Pass::Pass(const Evaluator& eval,
                      std::shared_ptr<const serve::ModelSnapshot> snapshot)
    : eval_(eval),
      snapshot_(std::move(snapshot)),
      scratch_(eval.pool_->num_workers()) {
  BSLREC_CHECK(snapshot_ != nullptr);
  BSLREC_CHECK_MSG(snapshot_->num_users() == eval_.data_.num_users() &&
                       snapshot_->num_items() == eval_.data_.num_items(),
                   "snapshot shape does not match the evaluator's dataset");
  serve::CheckScorerOptions(*snapshot_, eval_.scoring_);
}

void Evaluator::Pass::RankUsers(std::span<const uint32_t> users, uint32_t k,
                                WorkerScratch& ws,
                                std::vector<uint32_t>* rankings) {
  // The serving stack's block kernel, run serially per block (the
  // surrounding user loop is the parallel axis). Candidates exclude each
  // user's train positives entirely: a recommendation list must never
  // contain already-consumed items.
  ws.queries.clear();
  for (const uint32_t user : users) {
    ws.queries.push_back(
        {snapshot_->UserVec(user), k, eval_.data_.TrainItems(user)});
  }
  ws.tops.resize(users.size());
  serve::BlockTopK(*snapshot_, ws.queries, eval_.scoring_, ws.scan,
                   {ws.tops.data(), users.size()});
  for (size_t j = 0; j < users.size(); ++j) {
    rankings[j].resize(ws.tops[j].size());
    for (size_t i = 0; i < ws.tops[j].size(); ++i) {
      rankings[j][i] = ws.tops[j][i].item;
    }
  }
}

std::vector<std::vector<uint32_t>> Evaluator::Pass::ComputeRankings(
    uint32_t k) {
  const std::span<const uint32_t> users = eval_.test_users_;
  std::vector<std::vector<uint32_t>> rankings(users.size());
  runtime::ParallelFor(
      *eval_.pool_, 0, users.size(), kEvalGrain,
      [&](size_t lo, size_t hi, size_t /*shard*/, size_t worker) {
        RankUsers(users.subspan(lo, hi - lo), k, scratch_[worker],
                  &rankings[lo]);
      });
  return rankings;
}

const std::vector<std::vector<uint32_t>>&
Evaluator::Pass::RankingsAtDefaultK() {
  if (!rankings_cached_) {
    rankings_k_ = ComputeRankings(eval_.k_);
    rankings_cached_ = true;
  }
  return rankings_k_;
}

TopKMetrics Evaluator::Pass::MetricsOverRankings(
    const std::vector<std::vector<uint32_t>>& rankings, uint32_t k) {
  // Serial aggregation in test-user order: bit-identical for any worker
  // count (the parallelism lives in the ranking computation). Rankings
  // longer than k are truncated — the sorted lists have the prefix
  // property, so the first k entries of a top-k' list (k <= k') are
  // exactly the top-k ranking.
  TopKMetrics agg;
  for (size_t t = 0; t < rankings.size(); ++t) {
    const auto test_items = eval_.data_.TestItems(eval_.test_users_[t]);
    const std::span<const uint32_t> ranking(
        rankings[t].data(),
        std::min<size_t>(k, rankings[t].size()));
    agg.recall += RecallAtK(ranking, test_items);
    agg.ndcg += NdcgAtK(ranking, test_items, k);
    agg.precision += PrecisionAtK(ranking, test_items, k);
    agg.hit_rate += HitAtK(ranking, test_items);
    ++agg.num_users;
  }
  if (agg.num_users > 0) {
    const double n = static_cast<double>(agg.num_users);
    agg.recall /= n;
    agg.ndcg /= n;
    agg.precision /= n;
    agg.hit_rate /= n;
  }
  return agg;
}

TopKMetrics Evaluator::Pass::Evaluate() { return EvaluateAtK(eval_.k_); }

TopKMetrics Evaluator::Pass::EvaluateAtK(uint32_t k) {
  // Cutoffs <= k() are served from the cached top-k() rankings (prefix
  // property); only larger cutoffs need a fresh scoring pass.
  if (k <= eval_.k_) return MetricsOverRankings(RankingsAtDefaultK(), k);
  return MetricsOverRankings(ComputeRankings(k), k);
}

std::vector<double> Evaluator::Pass::GroupNdcg(uint32_t num_groups) {
  const std::vector<uint32_t> item_group =
      eval_.data_.PopularityGroups(num_groups);
  const std::vector<std::vector<uint32_t>>& rankings = RankingsAtDefaultK();
  std::vector<double> acc(num_groups, 0.0);
  for (size_t t = 0; t < rankings.size(); ++t) {
    const auto test_items = eval_.data_.TestItems(eval_.test_users_[t]);
    AccumulateGroupNdcg(rankings[t], test_items, eval_.k_, item_group, acc);
  }
  if (!rankings.empty()) {
    for (double& x : acc) x /= static_cast<double>(rankings.size());
  }
  return acc;
}

std::vector<uint32_t> Evaluator::Pass::TopKForUser(uint32_t user) {
  std::vector<uint32_t> items;
  RankUsers({&user, 1}, eval_.k_, scratch_[0], &items);
  return items;
}

std::vector<double> Evaluator::Pass::ItemExposure() {
  const std::vector<std::vector<uint32_t>>& rankings = RankingsAtDefaultK();
  std::vector<double> exposure(eval_.data_.num_items(), 0.0);
  for (const std::vector<uint32_t>& ranking : rankings) {
    for (uint32_t item : ranking) exposure[item] += 1.0;
  }
  return exposure;
}

Evaluator::Pass Evaluator::BeginPass(const EmbeddingModel& model) const {
  return Pass(*this, model);
}

Evaluator::Pass Evaluator::BeginPassOn(
    std::shared_ptr<const serve::ModelSnapshot> snapshot) const {
  return Pass(*this, std::move(snapshot));
}

TopKMetrics Evaluator::Evaluate(const EmbeddingModel& model) const {
  return BeginPass(model).Evaluate();
}

TopKMetrics Evaluator::EvaluateAtK(const EmbeddingModel& model,
                                   uint32_t k) const {
  return BeginPass(model).EvaluateAtK(k);
}

std::vector<double> Evaluator::GroupNdcg(const EmbeddingModel& model,
                                         uint32_t num_groups) const {
  return BeginPass(model).GroupNdcg(num_groups);
}

std::vector<uint32_t> Evaluator::TopKForUser(const EmbeddingModel& model,
                                             uint32_t user) const {
  return BeginPass(model).TopKForUser(user);
}

std::vector<double> Evaluator::ItemExposure(const EmbeddingModel& model) const {
  return BeginPass(model).ItemExposure();
}

}  // namespace bslrec
