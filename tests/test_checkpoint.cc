#include "models/checkpoint.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "data/synthetic.h"
#include "graph/bipartite_graph.h"
#include "gtest/gtest.h"
#include "models/lightgcn.h"
#include "models/mf.h"
#include "test_util.h"

namespace bslrec {
namespace {

class CheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "/bslrec_ckpt.bin";
  }
  void TearDown() override { std::remove(path_.c_str()); }
  std::string path_;
};

TEST_F(CheckpointTest, RoundTripRestoresMfParameters) {
  Rng rng(1);
  MfModel original(5, 7, 4, rng);
  ASSERT_TRUE(SaveModelParams(original, path_));

  Rng rng2(999);  // different init
  MfModel restored(5, 7, 4, rng2);
  ASSERT_TRUE(LoadModelParams(restored, path_));
  const auto a = original.Params();
  const auto b = restored.Params();
  ASSERT_EQ(a.size(), b.size());
  for (size_t p = 0; p < a.size(); ++p) {
    for (size_t k = 0; k < a[p].value->size(); ++k) {
      EXPECT_FLOAT_EQ(a[p].value->data()[k], b[p].value->data()[k]);
    }
  }
}

TEST_F(CheckpointTest, RoundTripRestoresScores) {
  const Dataset d = testing::TinyDataset();
  const BipartiteGraph g(d);
  Rng rng(2);
  LightGcnModel original(g, 6, 2, rng);
  original.Forward(rng);
  ASSERT_TRUE(SaveModelParams(original, path_));

  Rng rng2(3);
  LightGcnModel restored(g, 6, 2, rng2);
  ASSERT_TRUE(LoadModelParams(restored, path_));
  restored.Forward(rng2);
  for (uint32_t u = 0; u < d.num_users(); ++u) {
    for (size_t k = 0; k < 6; ++k) {
      EXPECT_FLOAT_EQ(original.UserEmb(u)[k], restored.UserEmb(u)[k]);
    }
  }
}

TEST_F(CheckpointTest, ShapeMismatchRejected) {
  Rng rng(4);
  MfModel small(3, 3, 4, rng);
  ASSERT_TRUE(SaveModelParams(small, path_));
  MfModel bigger(3, 3, 8, rng);
  EXPECT_FALSE(LoadModelParams(bigger, path_));
}

TEST_F(CheckpointTest, ParamCountMismatchRejected) {
  const Dataset d = testing::TinyDataset();
  const BipartiteGraph g(d);
  Rng rng(5);
  MfModel mf(d.num_users(), d.num_items(), 4, rng);  // 2 tensors
  ASSERT_TRUE(SaveModelParams(mf, path_));
  LightGcnModel lgn(g, 4, 2, rng);  // 1 tensor
  EXPECT_FALSE(LoadModelParams(lgn, path_));
}

// /dev/full takes every open and fails every write with ENOSPC. A small
// model fits in the stream's buffer, so its bytes only reach the device
// when the file is closed: the save must report that failed flush.
TEST_F(CheckpointTest, SaveReportsAFailedFinalWrite) {
  std::FILE* probe = std::fopen("/dev/full", "wb");
  if (probe == nullptr) GTEST_SKIP() << "/dev/full cannot be opened here";
  std::fclose(probe);
  Rng rng(11);
  MfModel mf(6, 7, 4, rng);
  EXPECT_FALSE(SaveModelParams(mf, "/dev/full"));
}

TEST_F(CheckpointTest, MissingFileRejected) {
  Rng rng(6);
  MfModel mf(2, 2, 2, rng);
  EXPECT_FALSE(LoadModelParams(mf, "/nonexistent/ckpt.bin"));
}

TEST_F(CheckpointTest, CorruptMagicRejected) {
  {
    std::ofstream out(path_, std::ios::binary);
    out << "NOTACKPT garbage";
  }
  Rng rng(7);
  MfModel mf(2, 2, 2, rng);
  EXPECT_FALSE(LoadModelParams(mf, path_));
}

TEST_F(CheckpointTest, TruncatedFileRejected) {
  Rng rng(8);
  MfModel mf(20, 20, 8, rng);
  ASSERT_TRUE(SaveModelParams(mf, path_));
  // Truncate to half.
  std::ifstream in(path_, std::ios::binary);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  in.close();
  std::ofstream out(path_, std::ios::binary | std::ios::trunc);
  out.write(content.data(),
            static_cast<std::streamsize>(content.size() / 2));
  out.close();
  EXPECT_FALSE(LoadModelParams(mf, path_));
}

// A load that fails must not touch the model: every truncation of a
// valid two-tensor file, and the file with one byte appended, is
// rejected with both tables bitwise as they were before the call.
TEST_F(CheckpointTest, RejectedFileLeavesModelUntouched) {
  Rng rng(9);
  MfModel saved(6, 7, 4, rng);
  ASSERT_TRUE(SaveModelParams(saved, path_));
  std::ifstream in(path_, std::ios::binary);
  const std::string content((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
  in.close();

  Rng rng2(10);
  MfModel target(6, 7, 4, rng2);
  const auto snapshot = [&target] {
    std::vector<float> bits;
    for (const ParamGrad& pg : target.Params()) {
      bits.insert(bits.end(), pg.value->data(),
                  pg.value->data() + pg.value->size());
    }
    return bits;
  };
  const std::vector<float> before = snapshot();
  const auto expect_rejected = [&](const std::string& bytes) {
    {
      std::ofstream out(path_, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    EXPECT_FALSE(LoadModelParams(target, path_)) << bytes.size() << " bytes";
    const std::vector<float> after = snapshot();
    ASSERT_EQ(after.size(), before.size());
    const bool untouched = std::memcmp(after.data(), before.data(),
                                       before.size() * sizeof(float)) == 0;
    EXPECT_TRUE(untouched) << bytes.size() << " bytes";
  };
  for (size_t len = 0; len < content.size(); ++len) {
    expect_rejected(content.substr(0, len));
  }
  expect_rejected(content + '\0');
}

}  // namespace
}  // namespace bslrec
