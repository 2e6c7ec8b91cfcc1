#include "sampling/negative_sampler.h"

#include <cmath>

#include "math/check.h"

namespace bslrec {

namespace {

// Draws one uniform true negative for user u, whose train positives are
// `pos`, by rejection. The retry bound only trips when a user interacted
// with nearly the whole catalog, which the dataset builders prevent.
// Templated over the generator so the sequential (Rng) and
// counter-based (StreamRng) paths share one core.
template <typename G>
uint32_t DrawUniformNegative(const Dataset& data, uint32_t u,
                             std::span<const uint32_t> pos, G& rng) {
  constexpr int kMaxTries = 1000;
  for (int t = 0; t < kMaxTries; ++t) {
    const uint32_t i = static_cast<uint32_t>(rng.NextIndex(data.num_items()));
    if (!Dataset::Contains(pos, i)) return i;
  }
  BSLREC_CHECK_MSG(false, "user %u has (almost) no negatives", u);
  return 0;  // unreachable
}

// Builds the devirtualized handle for a concrete sampler type: the thunk
// recovers the concrete type and calls its (non-virtual) stream core, so
// the per-sample call in hot loops never goes through the vtable.
template <typename S>
SamplerDispatch MakeDispatch(const S* self) {
  return {self, [](const NegativeSampler* base, uint32_t u, StreamRng& stream,
                   uint32_t* out, size_t n) {
            static_cast<const S*>(base)->SampleInto(u, stream, out, n);
          }};
}

}  // namespace

// ---- uniform ----

template <typename G>
void UniformNegativeSampler::SampleInto(uint32_t u, G& rng, uint32_t* out,
                                        size_t n) const {
  const auto pos = data_.TrainItems(u);
  for (size_t k = 0; k < n; ++k) {
    out[k] = DrawUniformNegative(data_, u, pos, rng);
  }
}

void UniformNegativeSampler::Sample(uint32_t u, size_t n, Rng& rng,
                                    std::vector<uint32_t>& out) const {
  out.resize(n);
  SampleInto(u, rng, out.data(), n);
}

SamplerDispatch UniformNegativeSampler::Dispatch() const {
  return MakeDispatch(this);
}

// ---- popularity ----

PopularityNegativeSampler::PopularityNegativeSampler(const Dataset& data,
                                                     double beta)
    : data_(data),
      table_([&] {
        std::vector<double> w(data.num_items());
        for (uint32_t i = 0; i < data.num_items(); ++i) {
          w[i] = std::pow(static_cast<double>(data.item_popularity()[i]) + 1.0,
                          beta);
        }
        return AliasTable(w);
      }()) {}

template <typename G>
void PopularityNegativeSampler::SampleInto(uint32_t u, G& rng, uint32_t* out,
                                           size_t n) const {
  constexpr int kMaxTries = 1000;
  const auto pos = data_.TrainItems(u);
  for (size_t k = 0; k < n; ++k) {
    uint32_t i = 0;
    bool found = false;
    for (int t = 0; t < kMaxTries; ++t) {
      i = table_.Sample(rng);
      if (!Dataset::Contains(pos, i)) {
        found = true;
        break;
      }
    }
    BSLREC_CHECK_MSG(found, "popularity sampler starved for user %u", u);
    out[k] = i;
  }
}

void PopularityNegativeSampler::Sample(uint32_t u, size_t n, Rng& rng,
                                       std::vector<uint32_t>& out) const {
  out.resize(n);
  SampleInto(u, rng, out.data(), n);
}

SamplerDispatch PopularityNegativeSampler::Dispatch() const {
  return MakeDispatch(this);
}

// ---- noisy ----

NoisyNegativeSampler::NoisyNegativeSampler(const Dataset& data, double r_noise)
    : data_(data), r_noise_(r_noise) {
  BSLREC_CHECK(r_noise >= 0.0);
}

template <typename G>
void NoisyNegativeSampler::SampleInto(uint32_t u, G& rng, uint32_t* out,
                                      size_t n) const {
  const auto pos = data_.TrainItems(u);
  const double n_pos = static_cast<double>(pos.size());
  const double n_neg = static_cast<double>(data_.num_items()) - n_pos;
  const double pos_mass = r_noise_ * n_pos;
  const double p_pos = pos_mass > 0.0 ? pos_mass / (pos_mass + n_neg) : 0.0;
  for (size_t k = 0; k < n; ++k) {
    if (!pos.empty() && rng.NextBernoulli(p_pos)) {
      out[k] = pos[rng.NextIndex(pos.size())];
    } else {
      out[k] = DrawUniformNegative(data_, u, pos, rng);
    }
  }
}

void NoisyNegativeSampler::Sample(uint32_t u, size_t n, Rng& rng,
                                  std::vector<uint32_t>& out) const {
  out.resize(n);
  SampleInto(u, rng, out.data(), n);
}

SamplerDispatch NoisyNegativeSampler::Dispatch() const {
  return MakeDispatch(this);
}

}  // namespace bslrec
