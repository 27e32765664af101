// Unit tests for the deterministic PRNG, the statistics helpers,
// sort_doubles against std::sort, and CRC-32 against its standard check
// values and its byte-at-a-time table loop.

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <limits>
#include <set>
#include <span>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "util/crc32.h"
#include "util/rng.h"
#include "util/stats.h"

namespace fecsched {
namespace {

TEST(SplitMix64, IsDeterministicAndMixing) {
  EXPECT_EQ(splitmix64(0), splitmix64(0));
  EXPECT_NE(splitmix64(0), splitmix64(1));
  // Consecutive inputs should differ in roughly half the bits.
  int diff_bits = __builtin_popcountll(splitmix64(42) ^ splitmix64(43));
  EXPECT_GT(diff_bits, 10);
  EXPECT_LT(diff_bits, 54);
}

TEST(DeriveSeed, PathSensitivity) {
  const std::uint64_t master = 0xabcdef;
  EXPECT_EQ(derive_seed(master, {1, 2}), derive_seed(master, {1, 2}));
  EXPECT_NE(derive_seed(master, {1, 2}), derive_seed(master, {2, 1}));
  EXPECT_NE(derive_seed(master, {1}), derive_seed(master, {1, 0}));
  EXPECT_NE(derive_seed(master, {7}), derive_seed(master + 1, {7}));
}

TEST(Rng, SameSeedSameStream) {
  Rng a(123), b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(123), b(124);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a() == b()) ? 1 : 0;
  EXPECT_EQ(same, 0);
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(7);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 255ull, 1ull << 20}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.below(bound), bound);
  }
}

TEST(Rng, BelowOneIsAlwaysZero) {
  Rng rng(9);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.below(1), 0u);
}

// Pinned outputs of Lemire's method, so an edit to Rng::below cannot
// move any schedule.  The raw draw counts pin the rejection loop: bound
// 2^63 + 1 rejects about half its draws.
TEST(Rng, BelowIsPinned) {
  struct Case {
    std::uint64_t bound;
    std::vector<std::uint64_t> values;
    int raw_draws;
  };
  const std::vector<Case> cases = {
      {1, {0, 0, 0, 0, 0, 0, 0, 0}, 8},
      {3, {1, 1, 1, 0, 1, 1, 2, 0}, 8},
      {(std::uint64_t{1} << 32) + 1,
       {2120386697u, 2400932257u, 1974580911u, 1189018142u, 2030009566u,
        1672368052u, 3341595024u, 688035750u},
       8},
      {(std::uint64_t{1} << 63) + 1,
       {2553397018404165453u, 3591383046360603410u, 7176020672553876711u,
        8821875977989938862u, 7398403140117048163u, 7771027365940258791u,
        7676369599593514730u, 4136477816266808017u},
       23},
  };
  for (const Case& c : cases) {
    Rng rng(0x5eed);
    for (const std::uint64_t want : c.values) EXPECT_EQ(rng.below(c.bound), want);
    // Count the raw outputs below() consumed: step a fresh generator
    // until it reaches the one the draws left behind.
    Rng probe(0x5eed);
    const std::uint64_t next = rng();
    int used = 0;
    while (probe() != next && used < 1000) ++used;
    EXPECT_EQ(used, c.raw_draws) << "bound " << c.bound;
  }
}

TEST(Rng, BelowIsRoughlyUniform) {
  Rng rng(11);
  constexpr int kBuckets = 10;
  constexpr int kDraws = 100000;
  std::vector<int> counts(kBuckets, 0);
  for (int i = 0; i < kDraws; ++i) ++counts[rng.below(kBuckets)];
  for (int c : counts) {
    EXPECT_GT(c, kDraws / kBuckets * 0.9);
    EXPECT_LT(c, kDraws / kBuckets * 1.1);
  }
}

TEST(Rng, BetweenInclusiveBounds) {
  Rng rng(13);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    const auto v = rng.between(3, 7);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 7u);
    saw_lo |= v == 3;
    saw_hi |= v == 7;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, Uniform01Range) {
  Rng rng(17);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform01();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, BernoulliMatchesProbability) {
  Rng rng(19);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(Rng, BernoulliDegenerate) {
  Rng rng(21);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Shuffle, IsPermutation) {
  Rng rng(23);
  std::vector<int> v(100);
  for (int i = 0; i < 100; ++i) v[i] = i;
  auto w = v;
  shuffle(w, rng);
  EXPECT_FALSE(std::equal(v.begin(), v.end(), w.begin()));  // astronomically unlikely
  std::sort(w.begin(), w.end());
  EXPECT_EQ(v, w);
}

TEST(Shuffle, SingleAndEmpty) {
  Rng rng(29);
  std::vector<int> empty;
  shuffle(empty, rng);
  EXPECT_TRUE(empty.empty());
  std::vector<int> one{42};
  shuffle(one, rng);
  EXPECT_EQ(one, std::vector<int>{42});
}

TEST(Shuffle, UniformFirstPosition) {
  // Each element should land in position 0 about n^-1 of the time.
  constexpr int kN = 8;
  constexpr int kRounds = 40000;
  std::vector<int> counts(kN, 0);
  Rng rng(31);
  for (int r = 0; r < kRounds; ++r) {
    std::vector<int> v(kN);
    for (int i = 0; i < kN; ++i) v[i] = i;
    shuffle(v, rng);
    ++counts[v[0]];
  }
  for (int c : counts) EXPECT_NEAR(c, kRounds / kN, kRounds / kN * 0.15);
}

TEST(SampleWithoutReplacement, DistinctAndInRange) {
  Rng rng(37);
  const auto s = sample_without_replacement(100, 30, rng);
  EXPECT_EQ(s.size(), 30u);
  std::set<std::uint32_t> uniq(s.begin(), s.end());
  EXPECT_EQ(uniq.size(), 30u);
  for (auto v : s) EXPECT_LT(v, 100u);
}

TEST(SampleWithoutReplacement, FullPopulationIsPermutation) {
  Rng rng(41);
  auto s = sample_without_replacement(50, 50, rng);
  std::sort(s.begin(), s.end());
  for (std::uint32_t i = 0; i < 50; ++i) EXPECT_EQ(s[i], i);
}

TEST(SampleWithoutReplacement, CountTooLargeThrows) {
  Rng rng(43);
  EXPECT_THROW(sample_without_replacement(5, 6, rng), std::invalid_argument);
}

TEST(SampleWithoutReplacement, ZeroCount) {
  Rng rng(47);
  EXPECT_TRUE(sample_without_replacement(5, 0, rng).empty());
}

TEST(RunningStats, Empty) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStats, KnownMoments) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // unbiased
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, SingleObservation) {
  RunningStats s;
  s.add(3.5);
  EXPECT_DOUBLE_EQ(s.mean(), 3.5);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStats, MergeMatchesSequential) {
  RunningStats a, b, all;
  Rng rng(53);
  for (int i = 0; i < 500; ++i) {
    const double x = rng.uniform01() * 10;
    (i % 2 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a, empty;
  a.add(1.0);
  a.add(2.0);
  const double mean = a.mean();
  a.merge(empty);
  EXPECT_DOUBLE_EQ(a.mean(), mean);
  empty.merge(a);
  EXPECT_DOUBLE_EQ(empty.mean(), mean);
}

// ------------------------------------------------------------ sort_doubles

// Delay-like and adversarial inputs for the sort oracle.  None holds -0.0:
// std::sort may leave it on either side of +0.0.
enum class Shape {
  kAllEqual,
  kMostlyZero,
  kIntegers,
  kFractional,
  kNearSorted,
  kWideRange,
  kNegatives,
};

std::vector<double> sort_input(Shape shape, std::size_t n, Rng& rng) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kTiny = std::numeric_limits<double>::denorm_min();
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    double& x = v[i];
    switch (shape) {
      case Shape::kAllEqual:
        x = 37.5;
        break;
      case Shape::kMostlyZero:  // most sliding-window delays are 0 slots
        x = rng.below(10) < 9 ? 0.0 : static_cast<double>(rng.below(8));
        break;
      case Shape::kIntegers:
        x = static_cast<double>(rng.below(12001));
        break;
      case Shape::kFractional:
        x = rng.uniform01() * 400.0;
        break;
      case Shape::kNearSorted:
        x = static_cast<double>(i) * 0.25;
        break;
      case Shape::kWideRange:  // 1e-300..1e300, subnormals, +inf
        switch (rng.below(8)) {
          case 0: x = kTiny * static_cast<double>(rng.below(1000)); break;
          case 1: x = kInf; break;
          case 2: x = std::numeric_limits<double>::max(); break;
          default:
            x = rng.uniform01() * std::pow(10.0, static_cast<double>(
                                                     rng.below(601)) - 300.0);
        }
        break;
      case Shape::kNegatives:  // both signs, -inf and negative subnormals
        switch (rng.below(8)) {
          case 0: x = -kTiny * static_cast<double>(1 + rng.below(1000)); break;
          case 1: x = rng.below(2) ? -kInf : kInf; break;
          default: x = (rng.uniform01() - 0.5) * 2e6;
        }
        break;
    }
  }
  if (shape == Shape::kNearSorted)
    for (std::size_t swaps = n / 50; swaps-- > 0;)
      std::swap(v[rng.below(n)], v[rng.below(n)]);
  return v;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

TEST(SortDoublesOracle, MatchesStdSortBitForBit) {
  std::vector<std::size_t> sizes;
  for (std::size_t n = 0; n <= 70; ++n) sizes.push_back(n);
  sizes.push_back(10000);
  sizes.push_back(30000);
  Rng rng(0x5047);
  for (const Shape shape :
       {Shape::kAllEqual, Shape::kMostlyZero, Shape::kIntegers,
        Shape::kFractional, Shape::kNearSorted, Shape::kWideRange,
        Shape::kNegatives}) {
    for (const std::size_t n : sizes) {
      std::vector<double> v = sort_input(shape, n, rng);
      std::vector<double> expected = v;
      std::sort(expected.begin(), expected.end());
      sort_doubles(v);
      ASSERT_TRUE(same_bits(v, expected))
          << "shape " << static_cast<int>(shape) << " size " << n;
    }
  }
}

TEST(SortDoublesOracle, NegativeZeroBeforePositiveZero) {
  std::vector<double> v = {0.0, -0.0, 1.0, -0.0, 0.0, -1.0, 0.0};
  sort_doubles(v);
  EXPECT_TRUE(same_bits(v, {-1.0, -0.0, -0.0, 0.0, 0.0, 0.0, 1.0}));
  EXPECT_TRUE(std::signbit(v[1]) && std::signbit(v[2]));
  EXPECT_FALSE(std::signbit(v[3]) || std::signbit(v[4]) || std::signbit(v[5]));
}

// ------------------------------------------------------------------ CRC

std::vector<std::uint8_t> bytes_of(std::string_view s) {
  return {s.begin(), s.end()};
}

TEST(Crc32, KnownVectors) {
  // Standard CRC-32/ISO-HDLC check values.
  EXPECT_EQ(crc32(bytes_of("123456789")), 0xcbf43926u);
  EXPECT_EQ(crc32(bytes_of("")), 0x00000000u);
  EXPECT_EQ(crc32(bytes_of("a")), 0xe8b7be43u);
  EXPECT_EQ(crc32(bytes_of("The quick brown fox jumps over the lazy dog")),
            0x414fa339u);
}

TEST(Crc32, IncrementalMatchesOneShot) {
  const auto data = bytes_of("hello, fec world");
  const std::uint32_t whole = crc32(data);
  std::uint32_t inc = 0;
  inc = crc32_update(inc, std::span(data).first(5));
  inc = crc32_update(inc, std::span(data).subspan(5));
  EXPECT_EQ(inc, whole);
}

TEST(Crc32, DetectsBitFlips) {
  auto data = bytes_of("some payload bytes");
  const std::uint32_t orig = crc32(data);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] ^= 0x01;
    EXPECT_NE(crc32(data), orig) << "flip at " << i;
    data[i] ^= 0x01;
  }
}

// The reflected 0xEDB88320 table loop, one lookup per byte: the oracle
// for every path crc32_update may take.  `c` is the running register
// (pre- and post-inverted by the caller).
std::uint32_t table_loop(std::uint32_t c, std::span<const std::uint8_t> data) {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t r = i;
      for (int bit = 0; bit < 8; ++bit)
        r = (r & 1) ? 0xedb88320u ^ (r >> 1) : r >> 1;
      t[i] = r;
    }
    return t;
  }();
  for (const std::uint8_t byte : data)
    c = table[(c ^ byte) & 0xffu] ^ (c >> 8);
  return c;
}

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng());
  return out;
}

TEST(Crc32Oracle, MatchesTableLoopAtEveryLengthAndOffset) {
  // Every length up to 2112 (past the 44-byte wire header, every payload
  // length up to kMaxPayload, and the 15/16/63/64/65 fold boundaries) at
  // every source offset 0..63, so each alignment of the 16-byte loads is
  // met.  The oracle runs along the prefix one byte at a time.
  constexpr std::size_t kMaxLen = 2112;
  const std::vector<std::uint8_t> buf = random_bytes(64 + kMaxLen, 0xc4c);
  for (std::size_t offset = 0; offset < 64; ++offset) {
    std::uint32_t c = 0xffffffffu;
    for (std::size_t len = 0; len <= kMaxLen; ++len) {
      const std::span<const std::uint8_t> data(buf.data() + offset, len);
      ASSERT_EQ(crc32(data), c ^ 0xffffffffu)
          << "offset " << offset << " length " << len;
      if (len < kMaxLen) c = table_loop(c, {buf.data() + offset + len, 1});
    }
  }
}

TEST(Crc32Oracle, ChainsAtEverySplitPoint) {
  // Splitting the input anywhere must not change the CRC, so every fold
  // and tail boundary is crossed mid-stream with a non-trivial register.
  const std::vector<std::uint8_t> buf = random_bytes(1100, 0x5b11);
  const std::span<const std::uint8_t> all(buf);
  const std::uint32_t whole = table_loop(0xffffffffu, all) ^ 0xffffffffu;
  ASSERT_EQ(crc32(all), whole);
  for (std::size_t split = 0; split <= all.size(); ++split) {
    const std::uint32_t head = crc32_update(0, all.first(split));
    ASSERT_EQ(crc32_update(head, all.subspan(split)), whole) << split;
  }
}

}  // namespace
}  // namespace fecsched
