#include "data/dataset.h"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "gtest/gtest.h"
#include "math/rng.h"
#include "test_util.h"

namespace bslrec {
namespace {

TEST(Dataset, BasicShape) {
  const Dataset d = testing::TinyDataset();
  EXPECT_EQ(d.num_users(), 4u);
  EXPECT_EQ(d.num_items(), 6u);
  EXPECT_EQ(d.num_train(), 8u);
  EXPECT_EQ(d.num_test(), 4u);
  EXPECT_NEAR(d.TrainDensity(), 8.0 / 24.0, 1e-12);
}

TEST(Dataset, TrainItemsSortedPerUser) {
  const Dataset d = testing::TinyDataset();
  const auto items = d.TrainItems(3);
  ASSERT_EQ(items.size(), 2u);
  EXPECT_EQ(items[0], 0u);
  EXPECT_EQ(items[1], 5u);
  EXPECT_TRUE(std::is_sorted(items.begin(), items.end()));
}

TEST(Dataset, TestItemsPerUser) {
  const Dataset d = testing::TinyDataset();
  ASSERT_EQ(d.TestItems(1).size(), 1u);
  EXPECT_EQ(d.TestItems(1)[0], 4u);
}

TEST(Dataset, IsTrainPositive) {
  const Dataset d = testing::TinyDataset();
  EXPECT_TRUE(d.IsTrainPositive(0, 0));
  EXPECT_TRUE(d.IsTrainPositive(0, 1));
  EXPECT_FALSE(d.IsTrainPositive(0, 2));  // test item, not train
  EXPECT_FALSE(d.IsTrainPositive(1, 0));
}

TEST(Dataset, MembershipTestAgreesWithBinarySearch) {
  // Random sorted, de-duplicated lists of every length from 0 (a user
  // without train positives) to 70, probed at every id of the catalog:
  // below the list's first id, its first and last ids, the ids between
  // and above its last id.
  constexpr uint32_t kItems = 150;
  constexpr uint32_t kUsers = 71;
  Rng rng(5);
  std::vector<Edge> train;
  for (uint32_t u = 0; u < kUsers; ++u) {
    for (uint32_t i : rng.SampleWithoutReplacement(kItems - 2, u)) {
      train.push_back({u, i + 1});  // ids 0 and kItems - 1 stay absent
    }
  }
  // One more user with the catalog's first and last ids.
  train.push_back({kUsers, 0});
  train.push_back({kUsers, kItems - 1});
  const Dataset d(kUsers + 1, kItems, train, {});
  for (uint32_t u = 0; u <= kUsers; ++u) {
    const auto items = d.TrainItems(u);
    for (uint32_t i = 0; i < kItems; ++i) {
      const bool want = std::binary_search(items.begin(), items.end(), i);
      EXPECT_EQ(d.IsTrainPositive(u, i), want) << "user " << u << " id " << i;
      EXPECT_EQ(Dataset::Contains(items, i), want)
          << "user " << u << " id " << i;
    }
    // Ids past the catalog are above every list's range.
    EXPECT_FALSE(Dataset::Contains(items, kItems));
    EXPECT_FALSE(Dataset::Contains(items, UINT32_MAX));
  }
  // Literal edge cases.
  const std::vector<uint32_t> empty, one = {7}, two = {1, 5};
  EXPECT_FALSE(Dataset::Contains(empty, 0));
  EXPECT_TRUE(Dataset::Contains(one, 7));
  EXPECT_FALSE(Dataset::Contains(one, 6));
  EXPECT_FALSE(Dataset::Contains(one, 8));
  EXPECT_TRUE(Dataset::Contains(two, 1));
  EXPECT_TRUE(Dataset::Contains(two, 5));
  EXPECT_FALSE(Dataset::Contains(two, 0));
  EXPECT_FALSE(Dataset::Contains(two, 3));
  EXPECT_FALSE(Dataset::Contains(two, 6));
}

TEST(Dataset, DeduplicatesEdges) {
  std::vector<Edge> train = {{0, 1}, {0, 1}, {0, 1}, {1, 0}};
  const Dataset d(2, 2, std::move(train), {});
  EXPECT_EQ(d.num_train(), 2u);
  EXPECT_EQ(d.TrainItems(0).size(), 1u);
}

TEST(Dataset, ItemPopularityCountsTrainOnly) {
  const Dataset d = testing::TinyDataset();
  const auto& pop = d.item_popularity();
  ASSERT_EQ(pop.size(), 6u);
  EXPECT_EQ(pop[0], 2u);  // u0 and u3
  EXPECT_EQ(pop[5], 2u);  // u2 and u3
  EXPECT_EQ(pop[1], 1u);
  uint32_t total = 0;
  for (uint32_t p : pop) total += p;
  EXPECT_EQ(total, d.num_train());
}

TEST(Dataset, PopularityGroupsOrderedByPopularity) {
  // Items with popularity 0 must land in lower group ids than popular ones.
  std::vector<Edge> train;
  for (uint32_t u = 0; u < 10; ++u) train.push_back({u, 9});  // item 9 hot
  for (uint32_t u = 0; u < 5; ++u) train.push_back({u, 8});
  train.push_back({0, 7});
  const Dataset d(10, 10, std::move(train), {});
  const auto groups = d.PopularityGroups(5);
  ASSERT_EQ(groups.size(), 10u);
  EXPECT_EQ(groups[9], 4u);                 // most popular -> top group
  EXPECT_GT(groups[8], groups[7]);          // 5 interactions > 1
  EXPECT_LT(groups[0], groups[7]);          // zero-interaction items lowest
  for (uint32_t g : groups) EXPECT_LT(g, 5u);
}

TEST(Dataset, PopularityGroupsBalancedSizes) {
  std::vector<Edge> train;
  for (uint32_t i = 0; i < 100; ++i) {
    for (uint32_t u = 0; u <= i % 7; ++u) train.push_back({u, i});
  }
  const Dataset d(7, 100, std::move(train), {});
  const auto groups = d.PopularityGroups(10);
  std::vector<int> sizes(10, 0);
  for (uint32_t g : groups) ++sizes[g];
  for (int s : sizes) EXPECT_EQ(s, 10);
}

TEST(Dataset, TestUsersOnlyThoseWithTestItems) {
  std::vector<Edge> train = {{0, 0}, {1, 0}, {2, 0}};
  std::vector<Edge> test = {{0, 1}, {2, 1}};
  const Dataset d(3, 2, std::move(train), std::move(test));
  const auto users = d.TestUsers();
  ASSERT_EQ(users.size(), 2u);
  EXPECT_EQ(users[0], 0u);
  EXPECT_EQ(users[1], 2u);
}

TEST(Dataset, TrainEdgesMatchCsr) {
  const Dataset d = testing::TinyDataset();
  size_t csr_total = 0;
  for (uint32_t u = 0; u < d.num_users(); ++u) {
    csr_total += d.TrainItems(u).size();
  }
  EXPECT_EQ(csr_total, d.train_edges().size());
  for (const Edge& e : d.train_edges()) {
    EXPECT_TRUE(d.IsTrainPositive(e.user, e.item));
  }
}

TEST(Dataset, EmptyTestSplitAllowed) {
  const Dataset d(2, 2, {{0, 0}}, {});
  EXPECT_EQ(d.num_test(), 0u);
  EXPECT_TRUE(d.TestUsers().empty());
  EXPECT_TRUE(d.TestItems(0).empty());
}

}  // namespace
}  // namespace bslrec
