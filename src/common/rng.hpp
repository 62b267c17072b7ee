// Deterministic pseudo-random number generation.
//
// All stochastic components of the simulator (traffic generators, static
// random sharding, tie-breaking) draw from an Rng seeded explicitly, so
// every experiment in the paper reproduction is exactly repeatable.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <utility>

#include "common/types.hpp"

namespace mp5 {

/// xoshiro256** PRNG with a SplitMix64 seeding sequence.
///
/// Chosen over std::mt19937_64 for speed (the cycle simulator may draw a
/// value per packet) and for a guaranteed-stable stream across standard
/// library implementations. The per-draw path is inline: trace sources
/// construct an Rng and draw several values for every packet.
class Rng {
public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) { reseed(seed); }

  /// Re-initialize the full state from a 64-bit seed.
  void reseed(std::uint64_t seed) {
    std::uint64_t sm = seed;
    for (auto& word : s_) word = splitmix64(sm);
    // Guard against the (astronomically unlikely) all-zero state, which
    // is the one fixed point of xoshiro.
    if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
  }

  /// Next raw 64-bit output.
  std::uint64_t next_u64() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound). bound must be > 0.
  std::uint64_t next_below(std::uint64_t bound) {
    // Lemire's nearly-divisionless bounded sampling with rejection;
    // unbiased.
    std::uint64_t x = next_u64();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < bound) {
      const std::uint64_t threshold = (0 - bound) % bound;
      while (lo < threshold) {
        x = next_u64();
        m = static_cast<__uint128_t>(x) * bound;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t next_in(std::int64_t lo, std::int64_t hi);

  /// Uniform double in [0, 1).
  double next_double();

  /// Bernoulli trial with probability p of returning true.
  bool chance(double p) { return next_double() < p; }

  /// Exponentially distributed double with the given mean.
  double next_exponential(double mean);

  /// Fisher-Yates shuffle of a random-access container.
  template <typename Container>
  void shuffle(Container& c) {
    for (std::size_t i = c.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(next_below(i));
      using std::swap;
      swap(c[i - 1], c[j]);
    }
  }

  /// Derive an independent child stream (for per-component determinism).
  Rng fork();

  /// Raw generator state, for checkpoint/restore. A restored stream
  /// continues exactly where the saved one left off.
  std::array<std::uint64_t, 4> state() const {
    return {s_[0], s_[1], s_[2], s_[3]};
  }
  void set_state(const std::array<std::uint64_t, 4>& s) {
    for (std::size_t i = 0; i < 4; ++i) s_[i] = s[i];
  }

private:
  static std::uint64_t splitmix64(std::uint64_t& x) {
    x += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t s_[4] = {};
};

} // namespace mp5
