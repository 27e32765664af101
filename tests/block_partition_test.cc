// RsePlan: RFC 5052-style segmentation invariants and the global
// packet-id mapping, swept over many (k, ratio) geometries.

#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "fec/block_partition.h"

namespace fecsched {
namespace {

TEST(RsePlan, RejectsBadInput) {
  EXPECT_THROW(RsePlan(0, 1.5), std::invalid_argument);
  EXPECT_THROW(RsePlan(100, 0.9), std::invalid_argument);
  EXPECT_THROW(RsePlan(100, 1.5, 0), std::invalid_argument);
  EXPECT_THROW(RsePlan(100, 1.5, 256), std::invalid_argument);
  EXPECT_THROW(RsePlan(100, 300.0), std::invalid_argument);  // no k_b fits
}

TEST(RsePlan, SingleSmallBlock) {
  const RsePlan plan(10, 2.0);
  EXPECT_EQ(plan.block_count(), 1u);
  EXPECT_EQ(plan.k(), 10u);
  EXPECT_EQ(plan.n(), 20u);
  EXPECT_EQ(plan.block(0).k, 10u);
  EXPECT_EQ(plan.block(0).n, 20u);
}

TEST(RsePlan, PaperGeometryRatio25) {
  // k=20000, ratio 2.5: max k_b = floor(255/2.5) = 102 -> 197 blocks.
  const RsePlan plan(20000, 2.5);
  EXPECT_EQ(plan.block_count(), 197u);
  for (std::uint32_t b = 0; b < plan.block_count(); ++b) {
    EXPECT_LE(plan.block(b).n, 255u);
    EXPECT_LE(plan.block(b).k, 102u);
  }
}

TEST(RsePlan, PaperGeometryRatio15) {
  // k=20000, ratio 1.5: max k_b = floor(255/1.5) = 170 -> 118 blocks.
  const RsePlan plan(20000, 1.5);
  EXPECT_EQ(plan.block_count(), 118u);
}

class RsePlanPropertyTest
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, double>> {};

TEST_P(RsePlanPropertyTest, BlockSizesBalancedAndExact) {
  const auto [k, ratio] = GetParam();
  const RsePlan plan(k, ratio);
  std::uint32_t k_sum = 0;
  std::uint32_t min_kb = UINT32_MAX, max_kb = 0;
  for (std::uint32_t b = 0; b < plan.block_count(); ++b) {
    const BlockInfo& blk = plan.block(b);
    EXPECT_GE(blk.k, 1u);
    EXPECT_GE(blk.n, blk.k);
    EXPECT_LE(blk.n, 255u);
    // Per-block expansion never exceeds the requested ratio.
    EXPECT_LE(blk.n, static_cast<std::uint32_t>(blk.k * ratio) + 1);
    k_sum += blk.k;
    min_kb = std::min(min_kb, blk.k);
    max_kb = std::max(max_kb, blk.k);
  }
  EXPECT_EQ(k_sum, k);
  // RFC 5052: at most two sizes, differing by one.
  EXPECT_LE(max_kb - min_kb, 1u);
}

TEST_P(RsePlanPropertyTest, IdMappingIsBijective) {
  const auto [k, ratio] = GetParam();
  const RsePlan plan(k, ratio);
  std::set<PacketId> seen;
  for (std::uint32_t b = 0; b < plan.block_count(); ++b) {
    const BlockInfo& blk = plan.block(b);
    for (std::uint32_t j = 0; j < blk.n; ++j) {
      const PacketId id = plan.packet_id(b, j);
      EXPECT_TRUE(seen.insert(id).second) << "duplicate id " << id;
      EXPECT_LT(id, plan.n());
      const BlockPosition pos = plan.position(id);
      EXPECT_EQ(pos.block, b);
      EXPECT_EQ(pos.index, j);
      // Source/parity split honours the global convention.
      EXPECT_EQ(id < plan.k(), j < blk.k);
    }
  }
  EXPECT_EQ(seen.size(), plan.n());
}

TEST_P(RsePlanPropertyTest, InterleavedOrderIsPermutation) {
  const auto [k, ratio] = GetParam();
  const RsePlan plan(k, ratio);
  const auto order = plan.interleaved_order();
  ASSERT_EQ(order.size(), plan.n());
  std::set<PacketId> seen(order.begin(), order.end());
  EXPECT_EQ(seen.size(), plan.n());
}

TEST_P(RsePlanPropertyTest, InterleavingSpreadsBlocks) {
  const auto [k, ratio] = GetParam();
  const RsePlan plan(k, ratio);
  if (plan.block_count() < 2) GTEST_SKIP() << "needs >= 2 blocks";
  const auto order = plan.interleaved_order();
  // Consecutive packets never belong to the same block while every block
  // still has packets left in the round-robin (property of round-robin
  // with >= 2 active blocks): check the first 2 * block_count entries.
  const std::size_t check = std::min<std::size_t>(order.size() - 1,
                                                  2u * plan.block_count());
  for (std::size_t i = 0; i + 1 < check; ++i)
    EXPECT_NE(plan.position(order[i]).block, plan.position(order[i + 1]).block);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, RsePlanPropertyTest,
    ::testing::Values(std::make_tuple(1u, 1.5), std::make_tuple(10u, 2.0),
                      std::make_tuple(102u, 2.5), std::make_tuple(103u, 2.5),
                      std::make_tuple(500u, 1.5), std::make_tuple(1000u, 2.5),
                      std::make_tuple(999u, 1.25), std::make_tuple(4000u, 2.5),
                      std::make_tuple(4000u, 1.5), std::make_tuple(20000u, 2.5),
                      std::make_tuple(170u, 1.5), std::make_tuple(171u, 1.5)),
    [](const auto& info) {
      return "k" + std::to_string(std::get<0>(info.param)) + "r" +
             std::to_string(static_cast<int>(std::get<1>(info.param) * 100));
    });

TEST(RsePlan, PositionRejectsBadId) {
  const RsePlan plan(100, 1.5);
  EXPECT_THROW((void)plan.position(plan.n()), std::invalid_argument);
}

TEST(RsePlan, PacketIdRejectsBadIndex) {
  const RsePlan plan(100, 1.5);
  EXPECT_THROW((void)plan.packet_id(0, plan.block(0).n), std::invalid_argument);
  EXPECT_THROW((void)plan.packet_id(plan.block_count(), 0), std::out_of_range);
}

TEST(RsePlan, RoundRobinOrderWithinBlockIsSequential) {
  const RsePlan plan(300, 2.0);
  const auto order = plan.interleaved_order();
  // Collect per-block the sequence of within-block indices.
  std::vector<std::vector<std::uint32_t>> per_block(plan.block_count());
  for (const PacketId id : order) {
    const auto pos = plan.position(id);
    per_block[pos.block].push_back(pos.index);
  }
  for (std::uint32_t b = 0; b < plan.block_count(); ++b) {
    ASSERT_EQ(per_block[b].size(), plan.block(b).n);
    for (std::uint32_t j = 0; j < per_block[b].size(); ++j)
      EXPECT_EQ(per_block[b][j], j);  // ascending: source first, parity later
  }
}

}  // namespace
}  // namespace fecsched
