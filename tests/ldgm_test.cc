// LDGM code construction: degree distributions, staircase/triangle
// structure, encode correctness (every check equation XORs to zero), and
// determinism — parameterized across variants and geometries.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fec/ldgm.h"
#include "util/rng.h"

namespace fecsched {
namespace {

LdgmParams make_params(std::uint32_t k, std::uint32_t n, LdgmVariant v,
                       std::uint64_t seed = 1234) {
  LdgmParams p;
  p.k = k;
  p.n = n;
  p.variant = v;
  p.seed = seed;
  return p;
}

TEST(LdgmCode, RejectsBadGeometry) {
  EXPECT_THROW(LdgmCode(make_params(0, 10, LdgmVariant::kStaircase)),
               std::invalid_argument);
  EXPECT_THROW(LdgmCode(make_params(10, 10, LdgmVariant::kStaircase)),
               std::invalid_argument);
  EXPECT_THROW(LdgmCode(make_params(10, 5, LdgmVariant::kStaircase)),
               std::invalid_argument);
  // left_degree > n-k impossible.
  auto p = make_params(10, 12, LdgmVariant::kStaircase);
  p.left_degree = 3;
  EXPECT_THROW(LdgmCode{p}, std::invalid_argument);
  p.left_degree = 0;
  EXPECT_THROW(LdgmCode{p}, std::invalid_argument);
}

class LdgmVariantTest : public ::testing::TestWithParam<LdgmVariant> {};

TEST_P(LdgmVariantTest, MatrixShape) {
  const LdgmCode code(make_params(400, 600, GetParam()));
  EXPECT_EQ(code.matrix().rows(), 200u);
  EXPECT_EQ(code.matrix().cols(), 600u);
  EXPECT_EQ(code.k(), 400u);
  EXPECT_EQ(code.n(), 600u);
}

TEST_P(LdgmVariantTest, SourceColumnsHaveLeftDegree) {
  const LdgmCode code(make_params(400, 600, GetParam()));
  for (std::uint32_t c = 0; c < 400; ++c)
    EXPECT_EQ(code.matrix().col_degree(c), 3u) << "source column " << c;
}

TEST_P(LdgmVariantTest, SourceEdgesBalancedAcrossRows) {
  const LdgmCode code(make_params(1000, 1500, GetParam()));
  // 3000 source edges over 500 rows: exactly 6 per row when divisible.
  const auto& h = code.matrix();
  for (std::uint32_t r = 0; r < h.rows(); ++r) {
    std::uint32_t src_deg = 0;
    for (std::uint32_t c : h.row(r)) src_deg += c < 1000 ? 1 : 0;
    EXPECT_EQ(src_deg, 6u) << "row " << r;
  }
}

TEST_P(LdgmVariantTest, SourceEdgesNearlyBalancedWithRemainder) {
  const LdgmCode code(make_params(1001, 1501, GetParam()));
  // 3003 edges over 500 rows: every row gets 6 or 7.
  const auto& h = code.matrix();
  for (std::uint32_t r = 0; r < h.rows(); ++r) {
    std::uint32_t src_deg = 0;
    for (std::uint32_t c : h.row(r)) src_deg += c < 1001 ? 1 : 0;
    EXPECT_GE(src_deg, 6u);
    EXPECT_LE(src_deg, 7u);
  }
}

TEST_P(LdgmVariantTest, DiagonalAlwaysPresent) {
  const LdgmCode code(make_params(300, 500, GetParam()));
  const auto& h = code.matrix();
  for (std::uint32_t i = 0; i < h.rows(); ++i) EXPECT_TRUE(h.at(i, 300 + i));
}

TEST_P(LdgmVariantTest, SameSeedSameGraph) {
  const LdgmCode a(make_params(200, 300, GetParam(), 42));
  const LdgmCode b(make_params(200, 300, GetParam(), 42));
  ASSERT_EQ(a.matrix().nnz(), b.matrix().nnz());
  for (std::uint32_t r = 0; r < a.matrix().rows(); ++r) {
    const auto ra = a.matrix().row(r);
    const auto rb = b.matrix().row(r);
    ASSERT_TRUE(std::equal(ra.begin(), ra.end(), rb.begin(), rb.end()));
  }
}

TEST_P(LdgmVariantTest, DifferentSeedDifferentGraph) {
  const LdgmCode a(make_params(200, 300, GetParam(), 42));
  const LdgmCode b(make_params(200, 300, GetParam(), 43));
  bool any_diff = false;
  for (std::uint32_t r = 0; r < a.matrix().rows() && !any_diff; ++r) {
    const auto ra = a.matrix().row(r);
    const auto rb = b.matrix().row(r);
    any_diff = !std::equal(ra.begin(), ra.end(), rb.begin(), rb.end());
  }
  EXPECT_TRUE(any_diff);
}

// Encode then verify every parity-check equation: XOR of all neighbours
// of every check node must be zero.  This validates encode for any lower
// structure.
TEST_P(LdgmVariantTest, EncodeSatisfiesAllChecks) {
  const LdgmCode code(make_params(150, 250, GetParam()));
  Rng rng(5);
  std::vector<std::vector<std::uint8_t>> src(150);
  for (auto& s : src) {
    s.resize(20);
    for (auto& b : s) b = static_cast<std::uint8_t>(rng.below(256));
  }
  const auto parity = code.encode(src);
  ASSERT_EQ(parity.size(), 100u);
  const auto& h = code.matrix();
  for (std::uint32_t r = 0; r < h.rows(); ++r) {
    std::vector<std::uint8_t> acc(20, 0);
    for (std::uint32_t c : h.row(r)) {
      const auto& sym = c < 150 ? src[c] : parity[c - 150];
      for (std::size_t b = 0; b < 20; ++b) acc[b] ^= sym[b];
    }
    for (std::size_t b = 0; b < 20; ++b)
      ASSERT_EQ(acc[b], 0) << "check " << r << " byte " << b;
  }
}

TEST_P(LdgmVariantTest, EncodeValidatesInput) {
  const LdgmCode code(make_params(10, 20, GetParam()));
  std::vector<std::vector<std::uint8_t>> src(9, std::vector<std::uint8_t>(4));
  EXPECT_THROW((void)code.encode(src), std::invalid_argument);
  src.resize(10, std::vector<std::uint8_t>(4));
  src[3].resize(5);
  EXPECT_THROW((void)code.encode(src), std::invalid_argument);
}

TEST_P(LdgmVariantTest, InterleavedOrderIsPermutationStartingWithSource) {
  const LdgmCode code(make_params(100, 250, GetParam()));
  const auto order = code.interleaved_order();
  ASSERT_EQ(order.size(), 250u);
  std::vector<bool> seen(250, false);
  for (PacketId id : order) {
    ASSERT_LT(id, 250u);
    ASSERT_FALSE(seen[id]);
    seen[id] = true;
  }
  EXPECT_LT(order[0], 100u);  // starts with a source packet
}

TEST_P(LdgmVariantTest, InterleavingKeepsSourceProportion) {
  const LdgmCode code(make_params(100, 250, GetParam()));
  const auto order = code.interleaved_order();
  // After any prefix of t packets, the number of source packets is within
  // 2 of t*k/n (Bresenham property).
  std::uint32_t sources = 0;
  for (std::size_t t = 0; t < order.size(); ++t) {
    sources += order[t] < 100 ? 1 : 0;
    const double expected = static_cast<double>(t + 1) * 100.0 / 250.0;
    EXPECT_NEAR(sources, expected, 2.0) << "prefix " << t;
  }
}

INSTANTIATE_TEST_SUITE_P(AllVariants, LdgmVariantTest,
                         ::testing::Values(LdgmVariant::kIdentity,
                                           LdgmVariant::kStaircase,
                                           LdgmVariant::kTriangle),
                         [](const auto& info) {
                           switch (info.param) {
                             case LdgmVariant::kIdentity: return "Identity";
                             case LdgmVariant::kStaircase: return "Staircase";
                             default: return "Triangle";
                           }
                         });

// ---------------------------------------------- variant-specific structure

TEST(LdgmIdentity, LowerPartIsExactlyIdentity) {
  const LdgmCode code(make_params(100, 160, LdgmVariant::kIdentity));
  const auto& h = code.matrix();
  for (std::uint32_t i = 0; i < 60; ++i)
    for (std::uint32_t j = 0; j < 60; ++j)
      EXPECT_EQ(h.at(i, 100 + j), i == j) << i << "," << j;
}

TEST(LdgmStaircase, LowerPartIsStaircase) {
  const LdgmCode code(make_params(100, 160, LdgmVariant::kStaircase));
  const auto& h = code.matrix();
  for (std::uint32_t i = 0; i < 60; ++i)
    for (std::uint32_t j = 0; j < 60; ++j) {
      const bool expected = (j == i) || (i >= 1 && j == i - 1);
      EXPECT_EQ(h.at(i, 100 + j), expected) << i << "," << j;
    }
}

TEST(LdgmTriangle, ContainsStaircaseAndOnlyFillsBelow) {
  const LdgmCode code(make_params(100, 160, LdgmVariant::kTriangle));
  const auto& h = code.matrix();
  for (std::uint32_t i = 0; i < 60; ++i) {
    EXPECT_TRUE(h.at(i, 100 + i));
    if (i >= 1) {
      EXPECT_TRUE(h.at(i, 100 + i - 1));
    }
    // Nothing above the diagonal.
    for (std::uint32_t j = i + 1; j < 60; ++j) EXPECT_FALSE(h.at(i, 100 + j));
  }
}

TEST(LdgmTriangle, EveryRowGainsOneEarlierParityReference) {
  const LdgmCode code(make_params(100, 160, LdgmVariant::kTriangle));
  const auto& h = code.matrix();
  const std::uint32_t rows = 60;
  for (std::uint32_t i = 0; i < rows; ++i) {
    std::uint32_t parity_deg = 0;
    std::uint32_t extras_below = 0;
    for (std::uint32_t c : h.row(i)) {
      if (c < 100) continue;
      ++parity_deg;
      const std::uint32_t j = c - 100;
      if (i >= 2 && j < i - 1) ++extras_below;
    }
    // diagonal + (i>=1) subdiagonal + (i>=2) exactly one earlier parity.
    const std::uint32_t expected = 1 + (i >= 1 ? 1 : 0) + (i >= 2 ? 1 : 0);
    EXPECT_EQ(parity_deg, expected) << "row " << i;
    EXPECT_EQ(extras_below, i >= 2 ? 1u : 0u) << "row " << i;
  }
}

TEST(LdgmTriangle, EarlyParityPacketsGainProgressivelyMoreDependents) {
  // The "progressive dependency between check nodes": parity packets from
  // the top of the staircase are referenced by many later equations, the
  // bottom ones by almost none.  Compare first vs last parity-column
  // quarters (statistical, fixed seed).
  const LdgmCode code(make_params(400, 600, LdgmVariant::kTriangle, 7));
  const auto& h = code.matrix();
  const std::uint32_t rows = h.rows();
  double early = 0, late = 0;
  for (std::uint32_t j = 0; j < rows / 4; ++j) {
    early += h.col_degree(400 + j);
    late += h.col_degree(400 + rows - 1 - j);
  }
  EXPECT_GT(early, late * 1.5);
}

TEST(LdgmTriangle, ExtraPerRowKnob) {
  auto p = make_params(200, 400, LdgmVariant::kTriangle);
  p.triangle_extra_per_row = 3;
  const LdgmCode dense(p);
  p.triangle_extra_per_row = 1;
  const LdgmCode sparse(p);
  EXPECT_GT(dense.matrix().nnz(), sparse.matrix().nnz());
}

TEST(LdgmCode, AsciiArtMatchesMatrix) {
  const LdgmCode code(make_params(20, 32, LdgmVariant::kTriangle));
  const std::string art = code.ascii_art();
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start < art.size()) {
    const std::size_t end = art.find('\n', start);
    lines.push_back(art.substr(start, end - start));
    start = end + 1;
  }
  ASSERT_EQ(lines.size(), 12u);
  for (std::uint32_t r = 0; r < 12; ++r) {
    ASSERT_EQ(lines[r].size(), 32u);
    for (std::uint32_t c = 0; c < 32; ++c)
      EXPECT_EQ(lines[r][c] == '1', code.matrix().at(r, c));
  }
}

TEST(LdgmCode, Fig2GeometryBuilds) {
  // The paper's Fig. 2: k=400, n=600 Triangle.
  const LdgmCode code(make_params(400, 600, LdgmVariant::kTriangle));
  EXPECT_EQ(code.matrix().rows(), 200u);
  EXPECT_EQ(code.matrix().cols(), 600u);
  // Left degree 3: 1200 source edges; staircase: 200 + 199; fill: 198.
  EXPECT_NEAR(static_cast<double>(code.matrix().nnz()), 1200 + 399 + 198, 8);
}

TEST(LdgmCode, LeftDegreeKnob) {
  for (std::uint32_t degree : {1u, 2u, 4u, 5u, 7u}) {
    auto p = make_params(300, 500, LdgmVariant::kStaircase);
    p.left_degree = degree;
    const LdgmCode code(p);
    for (std::uint32_t c = 0; c < 300; ++c)
      ASSERT_EQ(code.matrix().col_degree(c), degree);
  }
}

TEST(LdgmCode, TinyCode) {
  // Smallest sensible staircase: k=1, n=3 (2 parity rows, left degree 2).
  auto p = make_params(1, 3, LdgmVariant::kStaircase);
  p.left_degree = 2;
  const LdgmCode code(p);
  EXPECT_EQ(code.matrix().rows(), 2u);
  EXPECT_EQ(code.matrix().col_degree(0), 2u);
}

// FNV-1a (64-bit) over the shape, nnz and every row() and col() span
// (length, then members): a compact pin for a whole graph in both
// orientations.
std::uint64_t graph_fnv1a(const SparseBinaryMatrix& h) {
  std::uint64_t x = 0xcbf29ce484222325ull;
  const auto mix = [&x](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      x ^= (v >> (8 * b)) & 0xff;
      x *= 0x100000001b3ull;
    }
  };
  mix(h.rows());
  mix(h.cols());
  mix(h.nnz());
  for (std::uint32_t r = 0; r < h.rows(); ++r) {
    mix(h.row(r).size());
    for (std::uint32_t c : h.row(r)) mix(c);
  }
  for (std::uint32_t c = 0; c < h.cols(); ++c) {
    mix(h.col(c).size());
    for (std::uint32_t r : h.col(c)) mix(r);
  }
  return x;
}

TEST(LdgmCode, GraphsArePinned) {
  // Every engine and bench builds its graphs through SparseBinaryMatrix, and
  // sender and receiver share the construction, so no end-to-end output
  // would see a reordered row or column; these hashes can.  Geometries:
  // the smallest codes, the Fig. 2 graph, the grid's k=4000 graphs and the
  // largest stream graph, per variant; then a Triangle with three extras
  // per row (duplicate entries) and an irregular code.
  struct Pin {
    LdgmVariant variant;
    std::uint32_t k, n;
    std::uint64_t fnv;
  };
  static constexpr Pin kPins[] = {
      {LdgmVariant::kIdentity, 1, 4, 0xdc50ff6b22de6844ull},
      {LdgmVariant::kIdentity, 7, 12, 0x65ff77d3fc459236ull},
      {LdgmVariant::kIdentity, 400, 600, 0x664ebf3ce4614924ull},
      {LdgmVariant::kIdentity, 4000, 10000, 0x3660b1b1f5891fc3ull},
      {LdgmVariant::kIdentity, 10000, 12500, 0x5590c1863bf8b174ull},
      {LdgmVariant::kStaircase, 1, 4, 0xebc0c5817707c82aull},
      {LdgmVariant::kStaircase, 7, 12, 0xb8af9b3f622295baull},
      {LdgmVariant::kStaircase, 400, 600, 0x4b14b2a1e78e2ca3ull},
      {LdgmVariant::kStaircase, 4000, 10000, 0x27c0e979b975db37ull},
      {LdgmVariant::kStaircase, 10000, 12500, 0x2135355dd2471b66ull},
      {LdgmVariant::kTriangle, 1, 4, 0x0475c6ad2f1ac24eull},
      {LdgmVariant::kTriangle, 7, 12, 0x157cbf803835420eull},
      {LdgmVariant::kTriangle, 400, 600, 0x3897871b401f4991ull},
      {LdgmVariant::kTriangle, 4000, 10000, 0x9ca8f5863777d96bull},
      {LdgmVariant::kTriangle, 10000, 12500, 0x8a60f9cf26f8fd45ull},
  };
  for (const Pin& pin : kPins) {
    const LdgmCode code(make_params(pin.k, pin.n, pin.variant));
    EXPECT_EQ(graph_fnv1a(code.matrix()), pin.fnv)
        << to_string(pin.variant) << " k " << pin.k << " n " << pin.n;
  }

  auto dense = make_params(400, 600, LdgmVariant::kTriangle);
  dense.triangle_extra_per_row = 3;
  EXPECT_EQ(graph_fnv1a(LdgmCode(dense).matrix()), 0x8387445c530196a2ull);

  auto irregular = make_params(1000, 2000, LdgmVariant::kStaircase, 33);
  irregular.irregular_left_degrees = {{2, 0.5}, {3, 0.3}, {7, 0.2}};
  EXPECT_EQ(graph_fnv1a(LdgmCode(irregular).matrix()), 0x6a2e055ab20df1beull);
}

}  // namespace
}  // namespace fecsched
