#include "math/rng.h"

#include <cmath>

#include "math/check.h"

namespace bslrec {

namespace {

inline uint64_t Rotl(uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

uint64_t SplitMix64::Next() { return Mix(state_ += 0x9e3779b97f4a7c15ULL); }

Rng::Rng(uint64_t seed) {
  SplitMix64 sm(seed);
  for (auto& s : s_) s = sm.Next();
}

uint64_t Rng::NextU64() {
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

double Rng::NextDouble() {
  // 53 high bits -> uniform double in [0, 1).
  return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
}

uint64_t Rng::NextIndex(uint64_t n) {
  BSLREC_CHECK(n > 0);
  return rng_internal::LemireIndex(*this, n);
}

int64_t Rng::NextInt(int64_t lo, int64_t hi) {
  BSLREC_CHECK(lo <= hi);
  const uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  return lo + static_cast<int64_t>(NextIndex(span));
}

double Rng::NextGaussian() {
  if (has_spare_gaussian_) {
    has_spare_gaussian_ = false;
    return spare_gaussian_;
  }
  double u, v, s;
  do {
    u = 2.0 * NextDouble() - 1.0;
    v = 2.0 * NextDouble() - 1.0;
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double factor = std::sqrt(-2.0 * std::log(s) / s);
  spare_gaussian_ = v * factor;
  has_spare_gaussian_ = true;
  return u * factor;
}

bool Rng::NextBernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return NextDouble() < p;
}

namespace {

// Absorbs one word into a running key, SplitMix64-style: offset by the
// golden gamma so absorbing zeros still moves the key, then avalanche.
inline uint64_t AbsorbWord(uint64_t key, uint64_t word) {
  return SplitMix64::Mix((key + 0x9e3779b97f4a7c15ULL) ^ word);
}

}  // namespace

StreamRng::StreamRng(uint64_t seed, uint64_t epoch, uint64_t sample_index)
    : ctr_(AbsorbWord(AbsorbWord(seed, epoch), sample_index)) {}

double StreamRng::NextDouble() {
  return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
}

bool StreamRng::NextBernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return NextDouble() < p;
}

std::vector<uint32_t> Rng::SampleWithoutReplacement(uint32_t n, uint32_t k) {
  BSLREC_CHECK(k <= n);
  // Floyd's algorithm: O(k) expected, exact uniform without-replacement.
  std::vector<uint32_t> result;
  result.reserve(k);
  for (uint32_t j = n - k; j < n; ++j) {
    const uint32_t t = static_cast<uint32_t>(NextIndex(j + 1));
    bool seen = false;
    for (uint32_t x : result) {
      if (x == t) {
        seen = true;
        break;
      }
    }
    result.push_back(seen ? j : t);
  }
  return result;
}

}  // namespace bslrec
