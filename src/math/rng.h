// Deterministic pseudo-random number generation.
//
// The library has two generator families with different determinism
// disciplines:
//
//  * `Rng` — a sequential stream (xoshiro256**, seeded through SplitMix64
//    as recommended by its authors). Draw order matters: two consumers
//    sharing an `Rng` must interleave their draws identically for a run
//    to reproduce. Used where a single logical thread owns the stream
//    (dataset synthesis, initialization, epoch shuffling, noise
//    injection, model augmentations).
//
//  * `StreamRng` — a *counter-based* stream for parallel consumers.
//    Every stream is keyed by (seed, epoch, sample_index) and draw t is
//    a pure hash of (key, t): there is no shared mutable state, so any
//    worker can draw from any sample's stream in any order — or
//    re-derive an individual draw — and always observe the same values.
//    This is what lets negative sampling run *inside* the trainer's
//    parallel shards while staying bit-identical for every worker count
//    (see train/trainer.h): the drawn items are a function of the sample
//    index, never of which thread processed it or when.
//
// Bounded sampling (`NextIndex`) uses Lemire's multiply-shift reduction
// (Lemire 2019, "Fast Random Integer Generation in an Interval") with
// the exact rejection threshold, so draws stay unbiased for every bound
// while doing one 128-bit multiply instead of a divide per accepted
// draw.
//
// Both families are bit-reproducible across platforms and build modes;
// experiments seed them explicitly.
#ifndef BSLREC_MATH_RNG_H_
#define BSLREC_MATH_RNG_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "math/check.h"

namespace bslrec {

// SplitMix64: used to expand a single 64-bit seed into generator state.
// Also usable standalone as a tiny stateless hash/stream generator.
class SplitMix64 {
 public:
  explicit SplitMix64(uint64_t seed) : state_(seed) {}

  // Returns the next 64-bit value in the stream.
  uint64_t Next();

  // The stateless finalizer at the heart of the stream: a bijective
  // avalanche mix of a single 64-bit word. `Next()` is
  // `Mix(state += golden)`; `StreamRng` uses it to hash (key, counter)
  // pairs.
  static uint64_t Mix(uint64_t z) {
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  uint64_t state_;
};

namespace rng_internal {

// Lemire multiply-shift bounded reduction shared by Rng and StreamRng:
// maps 64-bit draws from `g` to a uniform integer in [0, n) without
// modulo bias. Rejects only draws whose 128-bit product lands in the
// short fractional window (probability < n / 2^64), and needs a divide
// only on the first rejection.
template <typename G>
inline uint64_t LemireIndex(G& g, uint64_t n) {
  using U128 = unsigned __int128;
  uint64_t x = g.NextU64();
  U128 m = static_cast<U128>(x) * n;
  uint64_t low = static_cast<uint64_t>(m);
  if (low < n) {
    const uint64_t threshold = (~n + 1) % n;  // == 2^64 mod n
    while (low < threshold) {
      x = g.NextU64();
      m = static_cast<U128>(x) * n;
      low = static_cast<uint64_t>(m);
    }
  }
  return static_cast<uint64_t>(m >> 64);
}

}  // namespace rng_internal

// xoshiro256** generator with convenience sampling helpers.
//
// Copyable: copying an Rng forks the stream (both copies produce the same
// subsequent values), which tests use to replay a sampling decision.
class Rng {
 public:
  // Seeds the generator; two Rng instances with equal seeds produce equal
  // streams. Seed 0 is valid (state is expanded via SplitMix64).
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL);

  // Core stream: uniformly distributed 64-bit values.
  uint64_t NextU64();

  // Uniform double in [0, 1).
  double NextDouble();

  // Uniform integer in [0, n). Requires n > 0. Lemire multiply-shift
  // reduction; unbiased for every n.
  uint64_t NextIndex(uint64_t n);

  // Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t NextInt(int64_t lo, int64_t hi);

  // Standard normal via Marsaglia polar method (cached spare value).
  double NextGaussian();

  // Bernoulli draw with success probability p (clamped to [0,1]).
  bool NextBernoulli(double p);

  // Fisher–Yates shuffle of `v`.
  template <typename T>
  void Shuffle(std::vector<T>& v) {
    for (size_t i = v.size(); i > 1; --i) {
      size_t j = static_cast<size_t>(NextIndex(i));
      std::swap(v[i - 1], v[j]);
    }
  }

  // Samples k distinct indices from [0, n) without replacement
  // (Floyd's algorithm; requires k <= n).
  std::vector<uint32_t> SampleWithoutReplacement(uint32_t n, uint32_t k);

 private:
  uint64_t s_[4];
  double spare_gaussian_ = 0.0;
  bool has_spare_gaussian_ = false;
};

// Counter-based per-sample random stream (stateless under the hood).
//
// A StreamRng is an index-addressable stream: the (seed, epoch,
// sample_index) triple is absorbed into a 64-bit key at construction and
// draw t is `SplitMix64::Mix(key + (t+1) * golden)` — i.e. the SplitMix64
// sequence seeded at the key (draw t maintained as a running counter, so
// a draw costs one add + one Mix). Consequences:
//
//  * Construction is two Mix calls; no warm-up, no stored tables.
//  * Streams for different sample indices (or epochs, or seeds) are
//    statistically independent — SplitMix64's avalanche decorrelates
//    adjacent keys.
//  * The stream consumed for one sample is a pure function of the triple,
//    so parallel shards drawing "their" samples' negatives reproduce the
//    serial draw sequence exactly, for any worker count and any
//    scheduling. No cross-thread RNG handoff exists to get wrong.
//
// The helper set mirrors what the negative samplers need (NextIndex /
// NextDouble / NextBernoulli); use `Rng` when you want a long-lived
// general-purpose stream.
class StreamRng {
 public:
  StreamRng(uint64_t seed, uint64_t epoch, uint64_t sample_index);

  // Next value of this stream: Mix(key + (draw index) * golden). The
  // SplitMix64 sequence seeded at the key, so draw t is a pure function
  // of (key, t). Inline, as is NextIndex: a negative draw is one or two
  // of these, paid N- times per training sample.
  uint64_t NextU64() { return SplitMix64::Mix(ctr_ += 0x9e3779b97f4a7c15ULL); }

  // Uniform double in [0, 1).
  double NextDouble();

  // Uniform integer in [0, n). Requires n > 0. Lemire multiply-shift
  // reduction; unbiased for every n.
  uint64_t NextIndex(uint64_t n) {
    BSLREC_CHECK(n > 0);
    return rng_internal::LemireIndex(*this, n);
  }

  // Bernoulli draw with success probability p (clamped to [0,1]).
  bool NextBernoulli(double p);

 private:
  uint64_t ctr_;  // key + draw_index * golden, advanced per draw
};

}  // namespace bslrec

#endif  // BSLREC_MATH_RNG_H_
