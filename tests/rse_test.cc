// Reed-Solomon erasure codec: the MDS property ("any k of n decode") is
// exercised as a parameterized property sweep over (k, n) geometries and
// random erasure patterns, alongside structural and error-handling tests.

#include <numeric>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "fec/rse.h"
#include "gf/gf256.h"
#include "util/rng.h"

namespace fecsched {
namespace {

std::vector<std::vector<std::uint8_t>> random_symbols(std::uint32_t count,
                                                      std::size_t size,
                                                      Rng& rng) {
  std::vector<std::vector<std::uint8_t>> out(count);
  for (auto& s : out) {
    s.resize(size);
    for (auto& b : s) b = static_cast<std::uint8_t>(rng.below(256));
  }
  return out;
}

TEST(RseCodec, RejectsBadGeometry) {
  EXPECT_THROW(RseCodec(0, 10), std::invalid_argument);
  EXPECT_THROW(RseCodec(11, 10), std::invalid_argument);
  EXPECT_THROW(RseCodec(10, 256), std::invalid_argument);
  EXPECT_NO_THROW(RseCodec(255, 255));
  EXPECT_NO_THROW(RseCodec(1, 1));
}

TEST(RseCodec, SystematicIdentityRows) {
  const RseCodec codec(5, 12);
  for (std::uint32_t i = 0; i < 5; ++i)
    for (std::uint32_t j = 0; j < 5; ++j)
      EXPECT_EQ(codec.coefficient(i, j), i == j ? 1 : 0);
}

TEST(RseCodec, ParityRowsNonTrivial) {
  const RseCodec codec(5, 12);
  for (std::uint32_t i = 5; i < 12; ++i) {
    int nonzero = 0;
    for (std::uint32_t j = 0; j < 5; ++j)
      nonzero += codec.coefficient(i, j) != 0 ? 1 : 0;
    // A zero coefficient would mean some source symbol never influences
    // this parity packet, contradicting MDS for some erasure pattern.
    EXPECT_EQ(nonzero, 5);
  }
}

TEST(RseCodec, CoefficientRangeChecked) {
  const RseCodec codec(5, 12);
  EXPECT_THROW((void)codec.coefficient(12, 0), std::invalid_argument);
  EXPECT_THROW((void)codec.coefficient(0, 5), std::invalid_argument);
}

TEST(RseCodec, EncodeMatchesCoefficients) {
  Rng rng(1);
  const RseCodec codec(4, 9);
  const auto src = random_symbols(4, 16, rng);
  const auto parity = codec.encode(src);
  ASSERT_EQ(parity.size(), 5u);
  for (std::uint32_t i = 0; i < 5; ++i) {
    std::vector<std::uint8_t> expected(16, 0);
    for (std::uint32_t j = 0; j < 4; ++j)
      gf::addmul(expected, src[j], codec.coefficient(4 + i, j));
    EXPECT_EQ(parity[i], expected);
  }
}

// FNV-1a (64-bit): a compact pin for a byte string.
std::uint64_t fnv1a(std::span<const std::uint8_t> bytes,
                    std::uint64_t h = 0xcbf29ce484222325ull) {
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  return h;
}

// The generator's parity rows as one row-major (n-k) x k matrix.
std::vector<std::uint8_t> parity_matrix(const RseCodec& codec) {
  std::vector<std::uint8_t> m;
  for (std::uint32_t i = codec.k(); i < codec.n(); ++i)
    for (std::uint32_t j = 0; j < codec.k(); ++j)
      m.push_back(codec.coefficient(i, j));
  return m;
}

// Encoder and decoder share the generator and the matrix products, so a
// round trip cannot see a change to either; these hashes, taken from the
// seed codec, can.
TEST(RseCodec, GeneratorIsPinned) {
  struct Pin {
    std::uint32_t k, n;
    std::uint64_t fnv;  // every coefficient(i, j), row-major over n x k
  };
  static constexpr Pin kPins[] = {
      {1, 2, 0x082f2307b4e88e77ull},
      {8, 12, 0x778ece6bc321e967ull},
      {64, 80, 0x358afca75183a46full},
      {101, 252, 0xaacd4142b5d0cd7full},
      {102, 255, 0x71e6176c46cdf36cull},
      {170, 255, 0x2356f30951ce5606ull},
      {255, 255, 0x0ff927811f8c8a2cull},
  };
  for (const Pin& pin : kPins) {
    const RseCodec codec(pin.k, pin.n);
    std::vector<std::uint8_t> all;
    for (std::uint32_t i = 0; i < pin.n; ++i)
      for (std::uint32_t j = 0; j < pin.k; ++j)
        all.push_back(codec.coefficient(i, j));
    EXPECT_EQ(fnv1a(all), pin.fnv) << "k=" << pin.k << " n=" << pin.n;
  }
}

TEST(RseCodec, ParityBytesArePinned) {
  struct Pin {
    std::uint32_t k, n;
    std::uint64_t fnv;  // every parity byte, parity 0 first
  };
  static constexpr Pin kPins[] = {{8, 12, 0xe1f54cf71d211829ull},
                                  {102, 255, 0xe2de99c67da035c3ull}};
  for (const Pin& pin : kPins) {
    Rng rng(pin.k * 1000 + pin.n);
    const RseCodec codec(pin.k, pin.n);
    const auto parity = codec.encode(random_symbols(pin.k, 1024, rng));
    std::uint64_t h = fnv1a({});
    for (const auto& p : parity) h = fnv1a(p, h);
    EXPECT_EQ(h, pin.fnv) << "k=" << pin.k << " n=" << pin.n;
  }
}

TEST(RseCodec, EncodeValidatesInput) {
  Rng rng(2);
  const RseCodec codec(4, 8);
  auto src = random_symbols(3, 8, rng);
  EXPECT_THROW((void)codec.encode(src), std::invalid_argument);
  src = random_symbols(4, 8, rng);
  src[2].resize(7);
  EXPECT_THROW((void)codec.encode(src), std::invalid_argument);
}

TEST(RseCodec, DecodeFromSourceOnlyIsVerbatim) {
  Rng rng(3);
  const RseCodec codec(6, 12);
  const auto src = random_symbols(6, 32, rng);
  std::vector<RseCodec::Received> rx;
  for (std::uint32_t i = 0; i < 6; ++i) rx.push_back({i, src[i]});
  EXPECT_EQ(codec.decode(rx), src);
}

TEST(RseCodec, DecodeFromParityOnly) {
  Rng rng(4);
  const RseCodec codec(5, 11);
  const auto src = random_symbols(5, 24, rng);
  const auto parity = codec.encode(src);
  std::vector<RseCodec::Received> rx;
  for (std::uint32_t i = 0; i < 5; ++i) rx.push_back({5 + i, parity[i]});
  EXPECT_EQ(codec.decode(rx), src);
}

TEST(RseCodec, DecodeErrors) {
  Rng rng(5);
  const RseCodec codec(4, 8);
  const auto src = random_symbols(4, 8, rng);
  const auto parity = codec.encode(src);
  std::vector<RseCodec::Received> rx = {
      {0, src[0]}, {1, src[1]}, {2, src[2]}};
  EXPECT_THROW((void)codec.decode(rx), std::invalid_argument);  // < k
  rx.push_back({2, src[2]});
  EXPECT_THROW((void)codec.decode(rx), std::invalid_argument);  // duplicate
  rx.back() = {9, parity[1]};
  EXPECT_THROW((void)codec.decode(rx), std::invalid_argument);  // out of range
  rx.back() = {4, {1, 2, 3}};
  EXPECT_THROW((void)codec.decode(rx), std::invalid_argument);  // size mismatch
}

TEST(RseCodec, ExtraPacketsBeyondKAreAccepted) {
  Rng rng(6);
  const RseCodec codec(3, 9);
  const auto src = random_symbols(3, 10, rng);
  const auto parity = codec.encode(src);
  std::vector<RseCodec::Received> rx = {
      {0, src[0]}, {4, parity[1]}, {7, parity[4]}, {1, src[1]}, {8, parity[5]}};
  EXPECT_EQ(codec.decode(rx), src);
}

TEST(RseCodec, ZeroLengthSymbols) {
  const RseCodec codec(3, 6);
  const std::vector<std::vector<std::uint8_t>> src(3);
  const auto parity = codec.encode(src);
  EXPECT_EQ(parity.size(), 3u);
  for (const auto& p : parity) EXPECT_TRUE(p.empty());
}

// ------------------------------------------------------------------ MDS

struct MdsCase {
  std::uint32_t k;
  std::uint32_t n;
};

class RseMdsTest : public ::testing::TestWithParam<MdsCase> {};

// Any k of the n packets suffice — sweep many random subsets.
TEST_P(RseMdsTest, AnyKPacketsDecode) {
  const auto [k, n] = GetParam();
  Rng rng(derive_seed(99, {k, n}));
  const RseCodec codec(k, n);
  const auto src = random_symbols(k, 12, rng);
  const auto parity = codec.encode(src);

  for (int round = 0; round < 30; ++round) {
    const auto subset = sample_without_replacement(n, k, rng);
    std::vector<RseCodec::Received> rx;
    rx.reserve(k);
    for (const auto idx : subset)
      rx.push_back({idx, idx < k ? src[idx] : parity[idx - k]});
    ASSERT_EQ(codec.decode(rx), src)
        << "k=" << k << " n=" << n << " round=" << round;
  }
}

// k-1 packets must never suffice: the decoder refuses (information-
// theoretic bound, not a codec weakness).
TEST_P(RseMdsTest, KMinus1Refused) {
  const auto [k, n] = GetParam();
  if (k < 2) GTEST_SKIP();
  Rng rng(derive_seed(101, {k, n}));
  const RseCodec codec(k, n);
  const auto src = random_symbols(k, 4, rng);
  const auto parity = codec.encode(src);
  const auto subset = sample_without_replacement(n, k - 1, rng);
  std::vector<RseCodec::Received> rx;
  for (const auto idx : subset)
    rx.push_back({idx, idx < k ? src[idx] : parity[idx - k]});
  EXPECT_THROW((void)codec.decode(rx), std::invalid_argument);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, RseMdsTest,
    ::testing::Values(MdsCase{1, 2}, MdsCase{1, 10}, MdsCase{2, 3},
                      MdsCase{4, 6}, MdsCase{8, 16}, MdsCase{16, 24},
                      MdsCase{32, 48}, MdsCase{64, 160}, MdsCase{102, 255},
                      MdsCase{170, 255}, MdsCase{128, 255}, MdsCase{254, 255},
                      MdsCase{255, 255}),
    [](const auto& info) {
      return "k" + std::to_string(info.param.k) + "n" +
             std::to_string(info.param.n);
    });

// -------------------------------------------------------- matrix inverse

TEST(GfMatrixInvert, IdentityIsFixedPoint) {
  std::vector<std::uint8_t> m = {1, 0, 0, 0, 1, 0, 0, 0, 1};
  gf256_invert_matrix(m, 3);
  EXPECT_EQ(m, (std::vector<std::uint8_t>{1, 0, 0, 0, 1, 0, 0, 0, 1}));
}

TEST(GfMatrixInvert, RandomRoundTrip) {
  Rng rng(7);
  for (std::uint32_t size : {1u, 2u, 3u, 5u, 8u, 16u, 33u}) {
    // Vandermonde over distinct points is guaranteed invertible.
    std::vector<std::uint8_t> m(static_cast<std::size_t>(size) * size);
    std::vector<std::uint8_t> points =
        [&] {
          auto idx = sample_without_replacement(255, size, rng);
          std::vector<std::uint8_t> pts(size);
          for (std::uint32_t i = 0; i < size; ++i)
            pts[i] = gf::alpha_pow(idx[i]);
          return pts;
        }();
    for (std::uint32_t i = 0; i < size; ++i)
      for (std::uint32_t j = 0; j < size; ++j)
        m[static_cast<std::size_t>(i) * size + j] = gf::pow(points[i], j);
    auto inv = m;
    gf256_invert_matrix(inv, size);
    // m * inv == I.
    for (std::uint32_t i = 0; i < size; ++i) {
      for (std::uint32_t j = 0; j < size; ++j) {
        std::uint8_t acc = 0;
        for (std::uint32_t t = 0; t < size; ++t)
          acc = gf::add(acc, gf::mul(m[static_cast<std::size_t>(i) * size + t],
                                     inv[static_cast<std::size_t>(t) * size + j]));
        ASSERT_EQ(acc, i == j ? 1 : 0) << "size=" << size;
      }
    }
  }
}

TEST(GfMatrixInvert, SingularThrows) {
  std::vector<std::uint8_t> m = {1, 2, 2, 4};  // row2 = 2*row1
  EXPECT_THROW(gf256_invert_matrix(m, 2), std::invalid_argument);
  std::vector<std::uint8_t> zero(9, 0);
  EXPECT_THROW(gf256_invert_matrix(zero, 3), std::invalid_argument);
}

TEST(GfMatrixInvert, EverySourceLostSystemIsPinned) {
  // The system decode_into inverts at (102, 255) with every source lost:
  // the first 102 parity rows over all 102 columns.
  const RseCodec codec(102, 255);
  std::vector<std::uint8_t> m = parity_matrix(codec);
  m.resize(std::size_t{102} * 102);
  gf256_invert_matrix(m, 102);
  EXPECT_EQ(fnv1a(m), 0xdf6b64f127ac6509ull);
}

TEST(GfMatrixInvert, DimensionMismatchThrows) {
  std::vector<std::uint8_t> m(5);
  EXPECT_THROW(gf256_invert_matrix(m, 2), std::invalid_argument);
}

}  // namespace
}  // namespace fecsched
