// Irregular left-degree LDGM codes (extension of the paper's regular
// degree-3 construction).

#include <map>

#include <gtest/gtest.h>

#include "fec/ldgm.h"
#include "fec/peeling_decoder.h"
#include "util/rng.h"

namespace fecsched {
namespace {

LdgmParams irregular_params(std::uint32_t k, std::uint32_t n,
                            std::vector<DegreeFraction> dist) {
  LdgmParams p;
  p.k = k;
  p.n = n;
  p.variant = LdgmVariant::kStaircase;
  p.seed = 33;
  p.irregular_left_degrees = std::move(dist);
  return p;
}

TEST(IrregularLdgm, DegreeHistogramMatchesDistribution) {
  const LdgmCode code(
      irregular_params(1000, 2000, {{2, 0.5}, {3, 0.3}, {7, 0.2}}));
  std::map<std::uint32_t, std::uint32_t> histogram;
  for (std::uint32_t c = 0; c < 1000; ++c)
    ++histogram[code.matrix().col_degree(c)];
  EXPECT_EQ(histogram[2], 500u);
  EXPECT_EQ(histogram[3], 300u);
  EXPECT_EQ(histogram[7], 200u);
}

TEST(IrregularLdgm, LargestRemainderRounding) {
  // 3 columns at 1/3 each: counts must sum to exactly k.
  const LdgmCode code(irregular_params(
      100, 200, {{2, 1.0 / 3}, {3, 1.0 / 3}, {4, 1.0 / 3}}));
  std::uint32_t total = 0;
  for (std::uint32_t c = 0; c < 100; ++c) {
    const auto d = code.matrix().col_degree(c);
    EXPECT_TRUE(d == 2 || d == 3 || d == 4);
    ++total;
  }
  EXPECT_EQ(total, 100u);
}

TEST(IrregularLdgm, DegreesAssignedToRandomColumns) {
  // The low-degree columns must not be clustered at the front.
  const LdgmCode code(irregular_params(1000, 2000, {{2, 0.5}, {6, 0.5}}));
  std::uint32_t low_in_front = 0;
  for (std::uint32_t c = 0; c < 500; ++c)
    low_in_front += code.matrix().col_degree(c) == 2 ? 1 : 0;
  EXPECT_GT(low_in_front, 150u);
  EXPECT_LT(low_in_front, 350u);
}

TEST(IrregularLdgm, ValidatesDistribution) {
  EXPECT_THROW(LdgmCode{irregular_params(100, 200, {{0, 1.0}})},
               std::invalid_argument);
  EXPECT_THROW(LdgmCode{irregular_params(100, 200, {{101, 1.0}})},
               std::invalid_argument);
  EXPECT_THROW(LdgmCode{irregular_params(100, 200, {{3, 0.5}})},
               std::invalid_argument);  // doesn't sum to 1
  EXPECT_THROW(LdgmCode{irregular_params(100, 200, {{3, 1.5}, {2, -0.5}})},
               std::invalid_argument);
}

TEST(IrregularLdgm, DecodesEndToEnd) {
  const LdgmCode code(
      irregular_params(500, 1250, {{2, 0.4}, {3, 0.4}, {8, 0.2}}));
  Rng rng(44);
  std::vector<std::vector<std::uint8_t>> src(500);
  for (auto& s : src) {
    s.resize(8);
    for (auto& b : s) b = static_cast<std::uint8_t>(rng.below(256));
  }
  const auto parity = code.encode(src);
  PeelingDecoder d(code.matrix(), 500, 8);
  std::vector<PacketId> order(code.n());
  for (PacketId id = 0; id < code.n(); ++id) order[id] = id;
  shuffle(order, rng);
  for (const PacketId id : order) {
    d.add_packet(id, id < 500 ? src[id] : parity[id - 500]);
    if (d.source_complete()) break;
  }
  ASSERT_TRUE(d.source_complete());
  for (PacketId id = 0; id < 500; ++id) {
    const auto sym = d.symbol(id);
    ASSERT_TRUE(std::equal(sym.begin(), sym.end(), src[id].begin()));
  }
}

TEST(IrregularLdgm, EmptyDistributionMeansRegular) {
  LdgmParams p = irregular_params(200, 400, {});
  p.left_degree = 4;
  const LdgmCode code(p);
  for (std::uint32_t c = 0; c < 200; ++c)
    ASSERT_EQ(code.matrix().col_degree(c), 4u);
}

}  // namespace
}  // namespace fecsched
