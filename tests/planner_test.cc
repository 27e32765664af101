// Recommendation engine (Sec. 6): tuple evaluation ordering, reliability
// semantics, and the paper's qualitative recommendations.

#include <gtest/gtest.h>

#include "core/planner.h"

namespace fecsched {
namespace {

PlannerConfig small_config() {
  PlannerConfig cfg;
  cfg.k = 1500;
  cfg.trials = 6;
  return cfg;
}

TEST(Planner, UniversalRecommendationMatchesPaper) {
  const auto rec = Planner::universal_recommendation();
  EXPECT_EQ(rec.code, CodeKind::kLdgmTriangle);
  EXPECT_EQ(rec.tx, TxModel::kTx4AllRandom);
}

TEST(Planner, EvaluationsSortedReliableFirstThenByInefficiency) {
  PlannerConfig cfg = small_config();
  cfg.codes = {CodeKind::kLdgmStaircase, CodeKind::kLdgmTriangle};
  cfg.ratios = {2.5};
  cfg.tx_models = {TxModel::kTx2SeqSourceRandParity, TxModel::kTx4AllRandom};
  const Planner planner(cfg);
  const auto evals = planner.evaluate(0.01, 0.50);
  ASSERT_EQ(evals.size(), 4u);
  bool seen_unreliable = false;
  double prev = 0.0;
  for (const auto& e : evals) {
    if (!e.reportable()) {
      seen_unreliable = true;
      continue;
    }
    EXPECT_FALSE(seen_unreliable) << "reliable tuple after unreliable one";
    EXPECT_GE(e.inefficiency.mean(), prev);
    prev = e.inefficiency.mean();
  }
}

TEST(Planner, BestAtLightLossIsCheap) {
  PlannerConfig cfg = small_config();
  cfg.codes = {CodeKind::kLdgmStaircase, CodeKind::kLdgmTriangle};
  cfg.ratios = {1.5};
  cfg.tx_models = {TxModel::kTx2SeqSourceRandParity, TxModel::kTx4AllRandom};
  const Planner planner(cfg);
  // The paper's known-channel example point (Sec. 6.2.1).
  const auto best = planner.best(0.0109, 0.7915);
  ASSERT_TRUE(best.has_value());
  EXPECT_TRUE(best->reportable());
  // At a ~1.35% loss channel the winner decodes with tiny overhead.
  EXPECT_LT(best->inefficiency.mean(), 1.10);
  // Tx_model_2's sequential source prefix dominates at low loss (paper:
  // "Tx_model_2 with LDGM Staircase ... gives the best results").
  EXPECT_EQ(best->tx, TxModel::kTx2SeqSourceRandParity);
}

TEST(Planner, PerfectChannelPrefersSequentialSource) {
  PlannerConfig cfg = small_config();
  cfg.codes = {CodeKind::kLdgmTriangle};
  cfg.ratios = {1.5};
  cfg.tx_models = {TxModel::kTx2SeqSourceRandParity, TxModel::kTx3SeqParityRandSource,
                   TxModel::kTx4AllRandom};
  const Planner planner(cfg);
  const auto best = planner.best(0.0, 1.0);
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(best->tx, TxModel::kTx2SeqSourceRandParity);
  EXPECT_DOUBLE_EQ(best->inefficiency.mean(), 1.0);
}

TEST(Planner, ImpossibleChannelHasNoReliableTuple) {
  PlannerConfig cfg = small_config();
  cfg.trials = 3;
  cfg.codes = {CodeKind::kLdgmStaircase};
  cfg.ratios = {1.5};
  cfg.tx_models = {TxModel::kTx4AllRandom};
  const Planner planner(cfg);
  // p=0.8, q=0.1: p_global ~ 0.89 — far beyond any 1.5-ratio budget.
  EXPECT_FALSE(planner.best(0.8, 0.1).has_value());
}

TEST(Planner, Tx6SkippedWhenRatioTooSmall) {
  PlannerConfig cfg = small_config();
  cfg.codes = {CodeKind::kLdgmStaircase};
  cfg.ratios = {1.5};  // 0.2k + 0.5k = 0.7k < k: cannot decode, skipped
  cfg.tx_models = {TxModel::kTx6FewSourceRandParity};
  const Planner planner(cfg);
  EXPECT_TRUE(planner.evaluate(0.0, 1.0).empty());
}

TEST(Planner, Tx6KeptWhenRatioLargeEnough) {
  PlannerConfig cfg = small_config();
  cfg.codes = {CodeKind::kLdgmStaircase};
  cfg.ratios = {2.5};
  cfg.tx_models = {TxModel::kTx6FewSourceRandParity};
  const Planner planner(cfg);
  const auto evals = planner.evaluate(0.0, 1.0);
  ASSERT_EQ(evals.size(), 1u);
  EXPECT_TRUE(evals[0].reportable());
}

TEST(Planner, BurstyChannelPunishesSequentialParity) {
  // At a strongly bursty point, Tx_model_1 (sequential parity) must not
  // beat Tx_model_4 for LDGM (Sec. 4.3: "definitively bad").
  PlannerConfig cfg = small_config();
  cfg.codes = {CodeKind::kLdgmTriangle};
  cfg.ratios = {2.5};
  cfg.tx_models = {TxModel::kTx1SeqSourceSeqParity, TxModel::kTx4AllRandom};
  const Planner planner(cfg);
  const auto evals = planner.evaluate(0.10, 0.20);
  ASSERT_EQ(evals.size(), 2u);
  const auto& winner = evals.front();
  ASSERT_TRUE(winner.reportable());
  EXPECT_EQ(winner.tx, TxModel::kTx4AllRandom);
}

TEST(Planner, DeterministicGivenSeed) {
  PlannerConfig cfg = small_config();
  cfg.codes = {CodeKind::kLdgmStaircase};
  cfg.ratios = {2.5};
  cfg.tx_models = {TxModel::kTx4AllRandom};
  const Planner a(cfg), b(cfg);
  const auto ea = a.evaluate(0.05, 0.5);
  const auto eb = b.evaluate(0.05, 0.5);
  ASSERT_EQ(ea.size(), eb.size());
  for (std::size_t i = 0; i < ea.size(); ++i)
    EXPECT_DOUBLE_EQ(ea[i].inefficiency.mean(), eb[i].inefficiency.mean());
}

}  // namespace
}  // namespace fecsched
