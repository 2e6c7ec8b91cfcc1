// Implicit-feedback interaction dataset.
//
// A `Dataset` holds the user-item interaction matrix R in CSR form, split
// into train and test positives per user (the conventional collaborative
// filtering protocol from LightGCN et al. that the paper follows). Items a
// user interacted with in train are S+_u; everything else is S-_u for
// sampling purposes. Test positives are used only by the evaluator.
#ifndef BSLREC_DATA_DATASET_H_
#define BSLREC_DATA_DATASET_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "math/check.h"

namespace bslrec {

// One observed (user, item) interaction.
struct Edge {
  uint32_t user;
  uint32_t item;
};

class Dataset {
 public:
  Dataset() = default;

  // Builds the CSR structures from raw edge lists. Duplicate edges are
  // de-duplicated; user/item ids must be < num_users / num_items.
  Dataset(uint32_t num_users, uint32_t num_items, std::vector<Edge> train,
          std::vector<Edge> test);

  uint32_t num_users() const { return num_users_; }
  uint32_t num_items() const { return num_items_; }
  size_t num_train() const { return train_edges_.size(); }
  size_t num_test() const { return test_edges_.size(); }

  // Density of the training matrix, |train| / (|U|*|I|).
  double TrainDensity() const;

  // Sorted, de-duplicated train positives of user u (S+_u).
  std::span<const uint32_t> TrainItems(uint32_t u) const {
    BSLREC_CHECK(u < num_users_);
    return {train_items_.data() + train_offsets_[u],
            train_offsets_[u + 1] - train_offsets_[u]};
  }

  // Sorted test positives of user u.
  std::span<const uint32_t> TestItems(uint32_t u) const;

  // True iff (u, i) is a train positive: Contains(TrainItems(u), i).
  bool IsTrainPositive(uint32_t u, uint32_t i) const {
    return Contains(TrainItems(u), i);
  }

  // True iff i is in `sorted` (ascending, no duplicates), the same answer
  // std::binary_search gives. It halves a window ceil(log2 n) times, each
  // step one load, one compare and one conditional move, and takes no
  // branch that depends on the data: a rejection-sampled negative draw
  // tests a random id, so the branches of a classic binary search
  // mispredict about once per step. Negative samplers call it once per
  // draw on a list they fetched once per sample.
  static bool Contains(std::span<const uint32_t> sorted, uint32_t i) {
    size_t n = sorted.size();
    if (n == 0) return false;
    // base stays at the last element <= i, if there is one (else at the
    // first element), so i is present iff *base == i.
    const uint32_t* base = sorted.data();
    while (n > 1) {
      const size_t half = n / 2;
      base = base[half] <= i ? base + half : base;
      n -= half;
    }
    return *base == i;
  }

  // Flat edge list for mini-batch iteration (one sample per train edge).
  const std::vector<Edge>& train_edges() const { return train_edges_; }
  const std::vector<Edge>& test_edges() const { return test_edges_; }

  // Number of train interactions per item ("popularity").
  const std::vector<uint32_t>& item_popularity() const {
    return item_popularity_;
  }

  // Partitions items into `num_groups` popularity groups of (nearly) equal
  // item count; returns item -> group id, where larger group id means more
  // popular (matching the paper's Figure 4a/5 convention).
  std::vector<uint32_t> PopularityGroups(uint32_t num_groups) const;

  // Users that have at least one test item (the evaluation population).
  std::vector<uint32_t> TestUsers() const;

 private:
  uint32_t num_users_ = 0;
  uint32_t num_items_ = 0;
  std::vector<Edge> train_edges_;
  std::vector<Edge> test_edges_;
  // CSR: items of user u are train_items_[train_offsets_[u] ..
  // train_offsets_[u+1]), sorted ascending.
  std::vector<size_t> train_offsets_;
  std::vector<uint32_t> train_items_;
  std::vector<size_t> test_offsets_;
  std::vector<uint32_t> test_items_;
  std::vector<uint32_t> item_popularity_;
};

}  // namespace bslrec

#endif  // BSLREC_DATA_DATASET_H_
