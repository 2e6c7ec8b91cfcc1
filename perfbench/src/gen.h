// Seeded input generators whose cost is linear in the number of edges.
//
// The library's GenerateSynthetic draws every user's items with a
// Gumbel-top-k pass over the whole catalog, O(users x items), which is
// too slow at the serving catalog's size. This generator keeps the same
// kind of structure (items in clusters on the unit sphere, users
// preferring a mixture of two clusters, Zipf popularity inside each
// cluster, a share of popularity-only "noisy" positives) but draws each
// interaction from per-cluster alias tables, so it costs
// O(items x latent_dim + edges). The workload seed is its only source
// of randomness: the same seed gives the same edges and latents.
#ifndef PERFBENCH_GEN_H_
#define PERFBENCH_GEN_H_

#include <cstdint>
#include <vector>

#include "data/dataset.h"
#include "math/matrix.h"

namespace perfbench {

// Every user has at least 5 and on average 25 interactions; 70% of the
// draws come from the user's main cluster, 5% ignore preference; item
// popularity inside a cluster is Zipf with exponent 0.9.
struct GenConfig {
  uint32_t num_users = 1000;
  uint32_t num_items = 2000;
  uint32_t num_clusters = 20;
  uint32_t latent_dim = 16;
  double test_fraction = 0.2;  // held out per user
  uint64_t seed = 1;
};

struct GeneratedData {
  uint32_t num_users = 0;
  uint32_t num_items = 0;
  std::vector<bslrec::Edge> train;
  std::vector<bslrec::Edge> test;
  bslrec::Matrix user_latent;  // num_users x latent_dim, unit rows
  bslrec::Matrix item_latent;  // num_items x latent_dim, unit rows
};

GeneratedData GenerateClustered(const GenConfig& config);

}  // namespace perfbench

#endif  // PERFBENCH_GEN_H_
