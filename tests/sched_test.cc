// Transmission models: permutation validity, the structural prefix
// properties that define each model, Tx6 length arithmetic, schedule
// truncation and Rx_model_1.

#include <algorithm>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "fec/block_partition.h"
#include "fec/ldgm.h"
#include "fec/replication.h"
#include "sched/rx_model.h"
#include "sched/tx_models.h"

namespace fecsched {
namespace {

LdgmCode make_ldgm(std::uint32_t k, std::uint32_t n) {
  LdgmParams p;
  p.k = k;
  p.n = n;
  p.variant = LdgmVariant::kStaircase;
  p.seed = 3;
  return LdgmCode(p);
}

bool is_permutation_of_all(const std::vector<PacketId>& s, PacketId n) {
  if (s.size() != n) return false;
  std::vector<bool> seen(n, false);
  for (PacketId id : s) {
    if (id >= n || seen[id]) return false;
    seen[id] = true;
  }
  return true;
}

class TxModelPermutationTest : public ::testing::TestWithParam<TxModel> {};

TEST_P(TxModelPermutationTest, LdgmScheduleIsPermutation) {
  const auto code = make_ldgm(100, 250);
  Rng rng(1);
  const auto s = make_schedule(code, GetParam(), rng);
  if (GetParam() == TxModel::kTx6FewSourceRandParity) {
    EXPECT_EQ(s.size(), 20u + 150u);  // 20% of k + all parity
    std::set<PacketId> uniq(s.begin(), s.end());
    EXPECT_EQ(uniq.size(), s.size());
  } else {
    EXPECT_TRUE(is_permutation_of_all(s, 250));
  }
}

TEST_P(TxModelPermutationTest, RseScheduleIsPermutation) {
  const RsePlan plan(500, 2.0);
  Rng rng(2);
  const auto s = make_schedule(plan, GetParam(), rng);
  if (GetParam() == TxModel::kTx6FewSourceRandParity) {
    std::set<PacketId> uniq(s.begin(), s.end());
    EXPECT_EQ(uniq.size(), s.size());
  } else {
    EXPECT_TRUE(is_permutation_of_all(s, plan.n()));
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, TxModelPermutationTest,
    ::testing::Values(TxModel::kTx1SeqSourceSeqParity,
                      TxModel::kTx2SeqSourceRandParity,
                      TxModel::kTx3SeqParityRandSource, TxModel::kTx4AllRandom,
                      TxModel::kTx5Interleaved,
                      TxModel::kTx6FewSourceRandParity),
    [](const auto& info) {
      return std::string(to_string(info.param));
    });

TEST(TxModel1, FullySequential) {
  const auto code = make_ldgm(50, 120);
  Rng rng(3);
  const auto s = make_schedule(code, TxModel::kTx1SeqSourceSeqParity, rng);
  for (PacketId i = 0; i < 120; ++i) EXPECT_EQ(s[i], i);
}

TEST(TxModel2, SourcePrefixSequentialParityShuffled) {
  const auto code = make_ldgm(50, 120);
  Rng rng(4);
  const auto s = make_schedule(code, TxModel::kTx2SeqSourceRandParity, rng);
  for (PacketId i = 0; i < 50; ++i) EXPECT_EQ(s[i], i);
  // The parity tail contains exactly the parity ids, not in natural order.
  std::vector<PacketId> tail(s.begin() + 50, s.end());
  EXPECT_FALSE(std::is_sorted(tail.begin(), tail.end()));
  std::sort(tail.begin(), tail.end());
  for (PacketId i = 0; i < 70; ++i) EXPECT_EQ(tail[i], 50 + i);
}

TEST(TxModel3, ParityPrefixSequentialSourceShuffled) {
  const auto code = make_ldgm(50, 120);
  Rng rng(5);
  const auto s = make_schedule(code, TxModel::kTx3SeqParityRandSource, rng);
  for (PacketId i = 0; i < 70; ++i) EXPECT_EQ(s[i], 50 + i);
  std::vector<PacketId> tail(s.begin() + 70, s.end());
  EXPECT_FALSE(std::is_sorted(tail.begin(), tail.end()));
  for (PacketId id : tail) EXPECT_LT(id, 50u);
}

TEST(TxModel4, ActuallyShuffled) {
  const auto code = make_ldgm(500, 1200);
  Rng rng(6);
  const auto s = make_schedule(code, TxModel::kTx4AllRandom, rng);
  EXPECT_FALSE(std::is_sorted(s.begin(), s.end()));
  // Sources should be spread out, not clustered in the first half:
  std::uint32_t first_half_sources = 0;
  for (std::size_t i = 0; i < s.size() / 2; ++i)
    first_half_sources += s[i] < 500 ? 1 : 0;
  EXPECT_GT(first_half_sources, 150u);
  EXPECT_LT(first_half_sources, 350u);
}

TEST(TxModel5, UsesPlanInterleaving) {
  const auto code = make_ldgm(100, 250);
  Rng rng(7);
  const auto s = make_schedule(code, TxModel::kTx5Interleaved, rng);
  EXPECT_EQ(s, code.interleaved_order());
}

TEST(TxModel6, FractionKnob) {
  const auto code = make_ldgm(200, 500);
  for (double frac : {0.0, 0.1, 0.5, 1.0}) {
    Rng rng(8);
    const auto s = make_schedule(code, TxModel::kTx6FewSourceRandParity, rng,
                                 {frac});
    EXPECT_EQ(s.size(), static_cast<std::size_t>(frac * 200) + 300u);
    std::uint32_t sources = 0;
    for (PacketId id : s) sources += id < 200 ? 1 : 0;
    EXPECT_EQ(sources, static_cast<std::uint32_t>(frac * 200));
  }
  Rng rng(9);
  EXPECT_THROW(
      make_schedule(code, TxModel::kTx6FewSourceRandParity, rng, {1.5}),
      std::invalid_argument);
}

TEST(TxModel6, SourcesAreMixedIntoParity) {
  const auto code = make_ldgm(500, 1250);
  Rng rng(10);
  const auto s = make_schedule(code, TxModel::kTx6FewSourceRandParity, rng);
  // The 100 source packets must not all sit at the front: find one beyond
  // the first quarter.
  bool late_source = false;
  for (std::size_t i = s.size() / 4; i < s.size(); ++i)
    late_source |= s[i] < 500;
  EXPECT_TRUE(late_source);
}

TEST(Schedules, DeterministicPerSeed) {
  const auto code = make_ldgm(100, 250);
  for (TxModel m : {TxModel::kTx2SeqSourceRandParity, TxModel::kTx4AllRandom,
                    TxModel::kTx6FewSourceRandParity}) {
    Rng a(11), b(11), c(12);
    EXPECT_EQ(make_schedule(code, m, a), make_schedule(code, m, b));
    EXPECT_NE(make_schedule(code, m, a), make_schedule(code, m, c));
  }
}

TEST(TruncateSchedule, ClampsAndCuts) {
  std::vector<PacketId> s = {1, 2, 3, 4, 5};
  EXPECT_EQ(truncate_schedule(s, 3), (std::vector<PacketId>{1, 2, 3}));
  EXPECT_EQ(truncate_schedule(s, 99), s);
  EXPECT_TRUE(truncate_schedule(s, 0).empty());
}

TEST(ReplicationPlan, ScheduleCoversAllCopies) {
  const ReplicationPlan plan(100, 2);
  Rng rng(13);
  const auto s = make_schedule(plan, TxModel::kTx4AllRandom, rng);
  EXPECT_TRUE(is_permutation_of_all(s, 200));
  // Every source appears exactly `copies` times.
  std::vector<int> count(100, 0);
  for (PacketId id : s) ++count[plan.source_of(id)];
  for (int c : count) EXPECT_EQ(c, 2);
}

TEST(RxModel1, SequenceShape) {
  const auto code = make_ldgm(100, 250);
  Rng rng(14);
  const auto seq = make_rx_model1_sequence(code, 30, rng);
  ASSERT_EQ(seq.size(), 30u + 150u);
  std::set<PacketId> sources(seq.begin(), seq.begin() + 30);
  EXPECT_EQ(sources.size(), 30u);
  for (PacketId id : sources) EXPECT_LT(id, 100u);
  std::set<PacketId> parity(seq.begin() + 30, seq.end());
  EXPECT_EQ(parity.size(), 150u);
  for (PacketId id : parity) EXPECT_GE(id, 100u);
}

TEST(RxModel1, BoundsChecked) {
  const auto code = make_ldgm(100, 250);
  Rng rng(15);
  EXPECT_THROW(make_rx_model1_sequence(code, 101, rng), std::invalid_argument);
  EXPECT_EQ(make_rx_model1_sequence(code, 0, rng).size(), 150u);
  EXPECT_EQ(make_rx_model1_sequence(code, 100, rng).size(), 250u);
}

}  // namespace
}  // namespace fecsched
