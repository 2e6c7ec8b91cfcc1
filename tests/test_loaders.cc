#include "data/loaders.h"

#include <cstdio>
#include <fstream>
#include <string>

#include "gtest/gtest.h"
#include "test_util.h"

namespace bslrec {
namespace {

class LoadersTest : public ::testing::Test {
 protected:
  void SetUp() override {
    train_path_ = ::testing::TempDir() + "/bslrec_train.txt";
    test_path_ = ::testing::TempDir() + "/bslrec_test.txt";
  }
  void TearDown() override {
    std::remove(train_path_.c_str());
    std::remove(test_path_.c_str());
  }
  std::string train_path_;
  std::string test_path_;
};

TEST_F(LoadersTest, RoundTripPreservesDataset) {
  const Dataset original = testing::TinyDataset();
  ASSERT_TRUE(SaveInteractions(original, train_path_, test_path_));
  const auto loaded = LoadInteractions(train_path_, test_path_);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->num_users(), original.num_users());
  EXPECT_EQ(loaded->num_items(), original.num_items());
  EXPECT_EQ(loaded->num_train(), original.num_train());
  EXPECT_EQ(loaded->num_test(), original.num_test());
  for (const Edge& e : original.train_edges()) {
    EXPECT_TRUE(loaded->IsTrainPositive(e.user, e.item));
  }
}

// /dev/full takes every open and fails every write with ENOSPC. A tiny
// dataset fits in the stream's buffer, so its lines only reach the
// device when the file is closed: the save must report that failed
// flush.
TEST_F(LoadersTest, SaveReportsAFailedFinalWrite) {
  std::FILE* probe = std::fopen("/dev/full", "w");
  if (probe == nullptr) GTEST_SKIP() << "/dev/full cannot be opened here";
  std::fclose(probe);
  const Dataset data(3, 3, {{0, 0}, {1, 1}, {2, 2}}, {{0, 1}});
  EXPECT_FALSE(SaveInteractions(data, "/dev/full", test_path_));
  EXPECT_FALSE(SaveInteractions(data, train_path_, "/dev/full"));
}

TEST_F(LoadersTest, SkipsCommentsAndBlankLines) {
  {
    std::ofstream out(train_path_);
    out << "# header comment\n\n0 1\n# another\n1 0\n\n";
    std::ofstream t(test_path_);
    t << "0 0\n";
  }
  const auto loaded = LoadInteractions(train_path_, test_path_);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->num_train(), 2u);
  EXPECT_EQ(loaded->num_test(), 1u);
}

TEST_F(LoadersTest, MissingFileReturnsNullopt) {
  EXPECT_FALSE(
      LoadInteractions("/nonexistent/train.txt", "/nonexistent/test.txt")
          .has_value());
}

TEST_F(LoadersTest, MalformedLineReturnsNullopt) {
  {
    std::ofstream out(train_path_);
    out << "0 1\nnot numbers\n";
    std::ofstream t(test_path_);
    t << "0 0\n";
  }
  EXPECT_FALSE(LoadInteractions(train_path_, test_path_).has_value());
}

TEST_F(LoadersTest, NegativeIdsRejected) {
  {
    std::ofstream out(train_path_);
    out << "0 -1\n";
    std::ofstream t(test_path_);
    t << "0 0\n";
  }
  EXPECT_FALSE(LoadInteractions(train_path_, test_path_).has_value());
}

// An id must leave room for its dimension, max(id) + 1, in uint32_t:
// 2^32 - 1 would wrap the dimension to 0, and 2^32 would truncate to
// id 0. Both are parse errors, in either column and either split.
TEST_F(LoadersTest, IdsBeyondThirtyTwoBitDimensionsRejected) {
  for (const char* line :
       {"4294967295 1", "4294967296 1", "1 4294967295", "1 4294967296"}) {
    for (const bool in_train : {true, false}) {
      {
        std::ofstream out(train_path_);
        out << "0 0\n" << (in_train ? std::string(line) + "\n" : "");
        std::ofstream t(test_path_);
        t << "0 0\n" << (in_train ? "" : std::string(line) + "\n");
      }
      EXPECT_FALSE(LoadInteractions(train_path_, test_path_).has_value())
          << "'" << line << "' in " << (in_train ? "train" : "test");
    }
  }
}

TEST_F(LoadersTest, EmptyTrainReturnsNullopt) {
  {
    std::ofstream out(train_path_);
    out << "# only comments\n";
    std::ofstream t(test_path_);
    t << "0 0\n";
  }
  EXPECT_FALSE(LoadInteractions(train_path_, test_path_).has_value());
}

TEST_F(LoadersTest, DimensionsSpanBothSplits) {
  {
    std::ofstream out(train_path_);
    out << "0 0\n";
    std::ofstream t(test_path_);
    t << "5 9\n";  // larger ids only in test
  }
  const auto loaded = LoadInteractions(train_path_, test_path_);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->num_users(), 6u);
  EXPECT_EQ(loaded->num_items(), 10u);
}

}  // namespace
}  // namespace bslrec
