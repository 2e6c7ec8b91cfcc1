#include "gen.h"

#include <algorithm>
#include <cmath>

#include "math/alias_table.h"
#include "math/rng.h"
#include "math/vec.h"

namespace perfbench {

namespace {

constexpr double kClusterSpread = 0.35;  // item scatter around its center
constexpr double kAvgItemsPerUser = 25.0;
constexpr uint32_t kMinItemsPerUser = 5;
constexpr double kZipfAlpha = 0.9;
constexpr double kPrimaryShare = 0.7;
constexpr double kNoiseRate = 0.05;

void GaussianUnitRow(bslrec::Rng& rng, float* row, size_t d) {
  for (size_t j = 0; j < d; ++j) {
    row[j] = static_cast<float>(rng.NextGaussian());
  }
  bslrec::vec::Normalize(row, row, d);
}

}  // namespace

GeneratedData GenerateClustered(const GenConfig& c) {
  bslrec::Rng rng(c.seed);
  const size_t d = c.latent_dim;
  GeneratedData out;
  out.num_users = c.num_users;
  out.num_items = c.num_items;

  bslrec::Matrix centers(c.num_clusters, d);
  for (uint32_t k = 0; k < c.num_clusters; ++k) {
    GaussianUnitRow(rng, centers.Row(k), d);
  }

  // Items: a uniform cluster each, scattered around its center, with a
  // Zipf popularity weight assigned through a random permutation.
  out.item_latent = bslrec::Matrix(c.num_items, d);
  std::vector<std::vector<uint32_t>> members(c.num_clusters);
  for (uint32_t i = 0; i < c.num_items; ++i) {
    const auto k = static_cast<uint32_t>(rng.NextIndex(c.num_clusters));
    members[k].push_back(i);
    float* row = out.item_latent.Row(i);
    for (size_t j = 0; j < d; ++j) {
      row[j] = centers.Row(k)[j] +
               static_cast<float>(kClusterSpread * rng.NextGaussian());
    }
    bslrec::vec::Normalize(row, row, d);
  }
  std::vector<uint32_t> rank(c.num_items);
  for (uint32_t i = 0; i < c.num_items; ++i) rank[i] = i;
  rng.Shuffle(rank);
  std::vector<double> weight(c.num_items);
  for (uint32_t i = 0; i < c.num_items; ++i) {
    weight[i] = 1.0 / std::pow(static_cast<double>(rank[i]) + 1.0,
                               kZipfAlpha);
  }
  std::vector<bslrec::AliasTable> cluster_table(c.num_clusters);
  for (uint32_t k = 0; k < c.num_clusters; ++k) {
    if (members[k].empty()) continue;
    std::vector<double> w;
    w.reserve(members[k].size());
    for (uint32_t i : members[k]) w.push_back(weight[i]);
    cluster_table[k] = bslrec::AliasTable(w);
  }
  const bslrec::AliasTable global_table(weight);

  // Users: a main and a secondary cluster; interactions drawn per
  // user until distinct, then split into train/test.
  out.user_latent = bslrec::Matrix(c.num_users, d);
  const double extra_mean =
      std::max(0.0, kAvgItemsPerUser - kMinItemsPerUser);
  const auto max_per_user = static_cast<uint32_t>(
      std::min<double>(c.num_items / 4.0, 10.0 * kAvgItemsPerUser));
  std::vector<uint32_t> items;
  for (uint32_t u = 0; u < c.num_users; ++u) {
    const auto k1 = static_cast<uint32_t>(rng.NextIndex(c.num_clusters));
    const auto k2 = static_cast<uint32_t>(rng.NextIndex(c.num_clusters));
    float* urow = out.user_latent.Row(u);
    for (size_t j = 0; j < d; ++j) {
      urow[j] = static_cast<float>(kPrimaryShare * centers.Row(k1)[j] +
                                   (1.0 - kPrimaryShare) *
                                       centers.Row(k2)[j]);
    }
    bslrec::vec::Normalize(urow, urow, d);

    const double extra = -std::log(1.0 - rng.NextDouble()) * extra_mean;
    const uint32_t n = std::min<uint32_t>(
        max_per_user, kMinItemsPerUser + static_cast<uint32_t>(extra));
    items.clear();
    for (uint32_t attempt = 0; items.size() < n && attempt < 20 * n;
         ++attempt) {
      uint32_t item;
      if (rng.NextBernoulli(kNoiseRate)) {
        item = global_table.Sample(rng);
      } else {
        const uint32_t k = rng.NextBernoulli(kPrimaryShare) ? k1 : k2;
        if (members[k].empty()) continue;
        item = members[k][cluster_table[k].Sample(rng)];
      }
      if (std::find(items.begin(), items.end(), item) == items.end()) {
        items.push_back(item);
      }
    }
    rng.Shuffle(items);
    const auto n_test = static_cast<size_t>(
        std::max(1.0, std::round(c.test_fraction * items.size())));
    for (size_t t = 0; t < items.size(); ++t) {
      (t < n_test ? out.test : out.train).push_back({u, items[t]});
    }
  }
  return out;
}

}  // namespace perfbench
