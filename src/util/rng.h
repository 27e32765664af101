// Deterministic, platform-independent pseudo-random number generation.
//
// All stochastic components of the library (channel models, packet
// schedulers, LDGM graph construction) draw from this generator so that a
// single 64-bit master seed reproduces an entire experiment bit-for-bit on
// any platform.  The standard <random> distributions are deliberately not
// used: their output is implementation-defined.
//
// The generator is xoshiro256** (Blackman & Vigna, public domain) seeded
// through SplitMix64, the combination recommended by its authors.

#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

namespace fecsched {

/// Stateless SplitMix64 step: maps any 64-bit value to a well-mixed one.
/// Used both to seed Rng and to derive independent per-trial substreams.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// One index of derive_seed's path: derive_seed(m, {a, b}) ==
/// extend_seed(derive_seed(m, {a}), b), so seeds that share a path prefix
/// can derive the prefix once.
[[nodiscard]] constexpr std::uint64_t extend_seed(std::uint64_t seed,
                                                  std::uint64_t idx) noexcept {
  return splitmix64(seed ^ (idx + 0x9e3779b97f4a7c15ULL));
}

/// Derive an independent stream seed from a master seed and a sequence of
/// indices (e.g. {cell_index, trial_index, component_tag}).  Any change in
/// any index yields a statistically unrelated stream.
[[nodiscard]] constexpr std::uint64_t
derive_seed(std::uint64_t master, std::initializer_list<std::uint64_t> path) noexcept {
  std::uint64_t s = splitmix64(master);
  for (std::uint64_t idx : path) s = extend_seed(s, idx);
  return s;
}

namespace detail {

/// 64x64 -> 128 bit multiply, portable.
struct U128 {
  std::uint64_t hi;
  std::uint64_t lo;
};

[[nodiscard]] inline U128 mul_64x64(std::uint64_t a, std::uint64_t b) noexcept {
#ifdef __SIZEOF_INT128__
  const unsigned __int128 r = static_cast<unsigned __int128>(a) * b;
  return {static_cast<std::uint64_t>(r >> 64), static_cast<std::uint64_t>(r)};
#else
  const std::uint64_t a_lo = a & 0xffffffffULL, a_hi = a >> 32;
  const std::uint64_t b_lo = b & 0xffffffffULL, b_hi = b >> 32;
  const std::uint64_t p0 = a_lo * b_lo;
  const std::uint64_t p1 = a_lo * b_hi;
  const std::uint64_t p2 = a_hi * b_lo;
  const std::uint64_t p3 = a_hi * b_hi;
  const std::uint64_t mid = p1 + (p0 >> 32) + (p2 & 0xffffffffULL);
  return {p3 + (p1 >> 32) + (p2 >> 32) + (mid >> 32),
          (mid << 32) | (p0 & 0xffffffffULL)};
#endif
}

}  // namespace detail

/// xoshiro256** PRNG.  Satisfies std::uniform_random_bit_generator.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0) noexcept { reseed(seed); }

  /// Re-initialise the state from a 64-bit seed via SplitMix64.
  void reseed(std::uint64_t seed) noexcept {
    std::uint64_t s = seed;
    for (auto& w : state_) {
      s = splitmix64(s);
      w = s;
    }
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~std::uint64_t{0}; }

  result_type operator()() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound).  bound must be > 0.
  /// Lemire's nearly-divisionless rejection method: unbiased.  Inline:
  /// the schedule shuffles call it once per packet.
  std::uint64_t below(std::uint64_t bound) noexcept {
    // Lemire, "Fast Random Integer Generation in an Interval" (2019).
    detail::U128 m = detail::mul_64x64((*this)(), bound);
    if (m.lo < bound) {
      const std::uint64_t threshold = (0 - bound) % bound;
      while (m.lo < threshold) m = detail::mul_64x64((*this)(), bound);
    }
    return m.hi;
  }

  /// Uniform integer in [lo, hi] inclusive.  Requires lo <= hi.
  std::uint64_t between(std::uint64_t lo, std::uint64_t hi) noexcept {
    return lo + below(hi - lo + 1);
  }

  /// Uniform double in [0, 1) with 53 bits of precision.
  double uniform01() noexcept {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli trial with success probability prob (clamped to [0,1]).
  bool bernoulli(double prob) noexcept { return uniform01() < prob; }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }
  std::array<std::uint64_t, 4> state_{};
};

/// Fisher–Yates shuffle with the library Rng (deterministic across
/// platforms, unlike std::shuffle whose distribution use is unspecified).
template <typename T>
void shuffle(std::span<T> v, Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    const std::size_t j = static_cast<std::size_t>(rng.below(i));
    using std::swap;
    swap(v[i - 1], v[j]);
  }
}

template <typename T>
void shuffle(std::vector<T>& v, Rng& rng) {
  shuffle(std::span<T>(v), rng);
}

/// Sample `count` distinct values from [0, population) without replacement
/// (partial Fisher–Yates).  Order of the returned sample is random.
[[nodiscard]] std::vector<std::uint32_t>
sample_without_replacement(std::uint32_t population, std::uint32_t count, Rng& rng);

}  // namespace fecsched
