#include "data/dataset.h"

#include <algorithm>
#include <numeric>

#include "math/check.h"

namespace bslrec {

namespace {

// Builds CSR (offsets, items) from an edge list; sorts and de-duplicates
// per-user item lists and rewrites `edges` to the de-duplicated set.
void BuildCsr(uint32_t num_users, uint32_t num_items, std::vector<Edge>& edges,
              std::vector<size_t>& offsets, std::vector<uint32_t>& items) {
  std::vector<std::vector<uint32_t>> per_user(num_users);
  for (const Edge& e : edges) {
    BSLREC_CHECK_MSG(e.user < num_users, "user id %u out of range", e.user);
    BSLREC_CHECK_MSG(e.item < num_items, "item id %u out of range", e.item);
    per_user[e.user].push_back(e.item);
  }
  edges.clear();
  offsets.assign(num_users + 1, 0);
  items.clear();
  for (uint32_t u = 0; u < num_users; ++u) {
    auto& v = per_user[u];
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
    offsets[u + 1] = offsets[u] + v.size();
    for (uint32_t i : v) {
      items.push_back(i);
      edges.push_back(Edge{u, i});
    }
  }
}

}  // namespace

Dataset::Dataset(uint32_t num_users, uint32_t num_items,
                 std::vector<Edge> train, std::vector<Edge> test)
    : num_users_(num_users),
      num_items_(num_items),
      train_edges_(std::move(train)),
      test_edges_(std::move(test)) {
  BSLREC_CHECK(num_users > 0 && num_items > 0);
  BuildCsr(num_users, num_items, train_edges_, train_offsets_, train_items_);
  BuildCsr(num_users, num_items, test_edges_, test_offsets_, test_items_);
  item_popularity_.assign(num_items, 0);
  for (uint32_t i : train_items_) ++item_popularity_[i];
}

double Dataset::TrainDensity() const {
  return static_cast<double>(num_train()) /
         (static_cast<double>(num_users_) * num_items_);
}

std::span<const uint32_t> Dataset::TestItems(uint32_t u) const {
  BSLREC_CHECK(u < num_users_);
  return {test_items_.data() + test_offsets_[u],
          test_offsets_[u + 1] - test_offsets_[u]};
}

std::vector<uint32_t> Dataset::PopularityGroups(uint32_t num_groups) const {
  BSLREC_CHECK(num_groups > 0);
  std::vector<uint32_t> order(num_items_);
  std::iota(order.begin(), order.end(), 0);
  // Ascending popularity; ties broken by item id for determinism.
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    if (item_popularity_[a] != item_popularity_[b]) {
      return item_popularity_[a] < item_popularity_[b];
    }
    return a < b;
  });
  std::vector<uint32_t> group(num_items_, 0);
  for (uint32_t rank = 0; rank < num_items_; ++rank) {
    group[order[rank]] = static_cast<uint32_t>(
        (static_cast<uint64_t>(rank) * num_groups) / num_items_);
  }
  return group;
}

std::vector<uint32_t> Dataset::TestUsers() const {
  std::vector<uint32_t> users;
  for (uint32_t u = 0; u < num_users_; ++u) {
    if (!TestItems(u).empty()) users.push_back(u);
  }
  return users;
}

}  // namespace bslrec
