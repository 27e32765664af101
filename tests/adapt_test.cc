// Adaptive subsystem: loss reports, online Gilbert estimation (with the
// Bernoulli fallback), closed-loop controller decisions and the
// adaptive-vs-static compare runner.

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "adapt/channel_estimator.h"
#include "adapt/controller.h"
#include "api/scenario.h"
#include "channel/gilbert.h"
#include "sim/adaptive_compare.h"
#include "sim/stream_delay.h"

namespace fecsched {
namespace {

std::vector<bool> gilbert_trace(double p, double q, int n,
                                std::uint64_t seed) {
  GilbertModel ch(p, q);
  ch.reset(seed);
  std::vector<bool> events;
  events.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) events.push_back(ch.lost());
  return events;
}

// ---------------------------------------------------------- LossReport

TEST(LossReport, CountsTransitions) {
  //            ok  loss loss ok   ok  loss
  const std::vector<bool> events = {false, true, true, false, false, true};
  const LossReport r = LossReport::from_events(events);
  EXPECT_TRUE(r.has_events);
  EXPECT_FALSE(r.first_lost);
  EXPECT_EQ(r.ok_to_ok, 1u);
  EXPECT_EQ(r.ok_to_loss, 2u);
  EXPECT_EQ(r.loss_to_ok, 1u);
  EXPECT_EQ(r.loss_to_loss, 1u);
  EXPECT_EQ(r.observations(), 6u);
  EXPECT_EQ(r.losses(), 3u);
}

TEST(LossReport, EmptyTrace) {
  const LossReport r = LossReport::from_events({});
  EXPECT_FALSE(r.has_events);
  EXPECT_EQ(r.observations(), 0u);
}

// ---------------------------------------------------- ChannelEstimator

class EstimatorConvergenceTest
    : public ::testing::TestWithParam<std::pair<double, double>> {};

TEST_P(EstimatorConvergenceTest, RecoversGilbertWithinTenPercent) {
  const auto [p, q] = GetParam();
  // decay = 1 makes the estimator the exact ML fit over the whole trace
  // (the windowed default trades a little variance for adaptivity).
  EstimatorConfig cfg;
  cfg.decay = 1.0;
  ChannelEstimator estimator(cfg);
  estimator.observe_events(gilbert_trace(p, q, 50000, 0xfeed + GetParam().first * 1000));
  const ChannelEstimate est = estimator.estimate();
  EXPECT_TRUE(est.bursty) << "p=" << p << " q=" << q;
  EXPECT_NEAR(est.p, p, 0.10 * p) << "p=" << p << " q=" << q;
  EXPECT_NEAR(est.q, q, 0.10 * q) << "p=" << p << " q=" << q;
  EXPECT_EQ(est.observations, 50000u);
}

INSTANTIATE_TEST_SUITE_P(
    Points, EstimatorConvergenceTest,
    ::testing::Values(std::make_pair(0.01, 0.25), std::make_pair(0.05, 0.5),
                      std::make_pair(0.02, 0.1), std::make_pair(0.04, 0.2),
                      std::make_pair(0.1, 0.3)));

TEST(ChannelEstimator, BernoulliFallbackOnIidLosses) {
  // IID 5% losses: the conditional loss rates match, so the estimate must
  // collapse to the memoryless channel instead of reporting spurious
  // burstiness.
  ChannelEstimator estimator;
  estimator.observe_events(gilbert_trace(0.05, 0.95, 60000, 99));
  const ChannelEstimate est = estimator.estimate();
  EXPECT_FALSE(est.bursty);
  EXPECT_NEAR(est.p_global, 0.05, 0.01);
  EXPECT_NEAR(est.q, 1.0 - est.p_global, 1e-12);
  EXPECT_NEAR(est.mean_burst, 1.0, 0.1);
}

TEST(ChannelEstimator, ReportFeedMatchesPacketFeed) {
  // With no decay, feeding one big report is numerically identical to
  // feeding the packets one at a time.
  EstimatorConfig cfg;
  cfg.decay = 1.0;
  const auto events = gilbert_trace(0.03, 0.3, 20000, 7);

  ChannelEstimator by_packet(cfg);
  by_packet.observe_events(events);
  ChannelEstimator by_report(cfg);
  by_report.observe_report(LossReport::from_events(events));

  const ChannelEstimate a = by_packet.estimate();
  const ChannelEstimate b = by_report.estimate();
  EXPECT_NEAR(a.p, b.p, 1e-12);
  EXPECT_NEAR(a.q, b.q, 1e-12);
  EXPECT_EQ(a.observations, b.observations);
}

TEST(ChannelEstimator, WindowTracksChannelDrift) {
  // A short window must forget the old regime: 30k quiet packets followed
  // by 30k heavy-loss packets should estimate the new regime.
  EstimatorConfig cfg;
  cfg.decay = 1.0 - 1.0 / 5000.0;
  ChannelEstimator estimator(cfg);
  estimator.observe_events(gilbert_trace(0.005, 0.995, 30000, 1));
  estimator.observe_events(gilbert_trace(0.05, 0.2, 30000, 2));
  const ChannelEstimate est = estimator.estimate();
  EXPECT_NEAR(est.p_global, 0.2, 0.05);
  EXPECT_TRUE(est.bursty);
}

TEST(ChannelEstimator, ResetForgets) {
  ChannelEstimator estimator;
  estimator.observe_events(gilbert_trace(0.1, 0.2, 5000, 3));
  estimator.reset();
  EXPECT_EQ(estimator.observations(), 0u);
  EXPECT_EQ(estimator.estimate().observations, 0u);
  EXPECT_EQ(estimator.estimate().p_global, 0.0);
}

TEST(ChannelEstimator, RejectsBadConfig) {
  EstimatorConfig cfg;
  cfg.decay = 0.0;
  EXPECT_THROW(ChannelEstimator{cfg}, std::invalid_argument);
  cfg.decay = 0.5;
  cfg.smoothing = -1.0;
  EXPECT_THROW(ChannelEstimator{cfg}, std::invalid_argument);
}

// -------------------------------------------------- AdaptiveController

ChannelEstimate confident_estimate(double p_global, double mean_burst) {
  ChannelEstimate est;
  est.q = 1.0 / mean_burst;
  est.p = p_global * est.q / (1.0 - p_global);
  est.p_global = p_global;
  est.mean_burst = mean_burst;
  est.bursty = mean_burst > 1.5;
  est.observations = 100000;
  est.confidence = 1.0;
  return est;
}

ControllerConfig fast_controller_config() {
  ControllerConfig cfg;
  cfg.planning_k = 600;
  cfg.planning_trials = 12;
  return cfg;
}

TEST(AdaptiveController, ColdStartUsesUniversalScheme) {
  AdaptiveController controller(fast_controller_config());
  const Decision d = controller.decide(ChannelEstimate{}, 2000);
  EXPECT_EQ(d.regime, ChannelRegime::kUnknown);
  EXPECT_EQ(d.tuple.code, CodeKind::kLdgmTriangle);
  EXPECT_EQ(d.tuple.tx, TxModel::kTx4AllRandom);
  EXPECT_DOUBLE_EQ(d.tuple.expansion_ratio, 2.5);
  EXPECT_EQ(d.n_sent, 0u) << "cold start must send the full schedule";
}

TEST(AdaptiveController, MonotoneInBurstiness) {
  // The issue's monotonicity contract: raising the estimated burstiness
  // (same global loss rate) must never pick a configuration with a lower
  // predicted decode probability; the transmission budget must not shrink
  // either (the variance margin only grows with burstiness).
  for (const double p_global : {0.05, 0.1}) {
    AdaptiveController controller(fast_controller_config());
    double prev_prob = -1.0;
    for (const double burst : {1.0, 2.0, 4.0, 8.0, 12.0}) {
      const Decision d =
          controller.decide(confident_estimate(p_global, burst), 2000);
      EXPECT_GE(d.predicted_decode_probability, prev_prob - 1e-12)
          << "p_global=" << p_global << " burst=" << burst;
      EXPECT_GE(d.predicted_decode_probability,
                controller.config().target_decode_probability)
          << "p_global=" << p_global << " burst=" << burst;
      prev_prob = d.predicted_decode_probability;
    }
  }
}

TEST(AdaptiveController, BudgetGrowsWithBurstinessForSameTuple) {
  // With the tuple pinned, the variance-aware n_sent budget must be
  // non-decreasing in the estimated burstiness.
  ControllerConfig cfg = fast_controller_config();
  cfg.candidates = {{CodeKind::kLdgmTriangle, TxModel::kTx4AllRandom, 2.5}};
  AdaptiveController controller(cfg);
  std::uint32_t prev_budget = 0;
  std::uint32_t first_budget = 0;
  std::uint32_t last_budget = 0;
  for (const double burst : {1.0, 2.0, 4.0, 8.0, 12.0}) {
    const Decision d = controller.decide(confident_estimate(0.1, burst), 2000);
    const std::uint32_t budget = d.n_sent == 0 ? 5000 : d.n_sent;
    // Each re-plan re-measures the tuple's inefficiency with fresh seeds,
    // so adjacent points carry a little simulation noise; the variance
    // margin must still dominate it.
    EXPECT_GE(budget, prev_budget * 97 / 100) << "burst=" << burst;
    if (first_budget == 0) first_budget = budget;
    last_budget = budget;
    prev_budget = budget;
  }
  EXPECT_GT(last_budget, first_budget)
      << "the 3-sigma delivery margin must grow with burstiness";
}

TEST(AdaptiveController, HysteresisAvoidsReplanningOnNoise) {
  AdaptiveController controller(fast_controller_config());
  (void)controller.decide(confident_estimate(0.1, 4.0), 2000);
  const std::uint32_t replans = controller.replan_count();
  // A 2% relative wiggle in p_global is far below the re-plan distance.
  (void)controller.decide(confident_estimate(0.102, 4.05), 2000);
  EXPECT_EQ(controller.replan_count(), replans);
  // A regime change is far above it.
  (void)controller.decide(confident_estimate(0.3, 12.0), 2000);
  EXPECT_EQ(controller.replan_count(), replans + 1);
}

TEST(AdaptiveController, FailureFeedbackForcesReplanAndRaisesBudget) {
  AdaptiveController controller(fast_controller_config());
  const ChannelEstimate est = confident_estimate(0.1, 4.0);
  const Decision d1 = controller.decide(est, 2000);
  ASSERT_GT(d1.n_sent, 0u);
  const std::uint32_t replans = controller.replan_count();
  controller.report_outcome(d1, /*decoded=*/false, 0.0);
  const Decision d2 = controller.decide(est, 2000);
  EXPECT_EQ(controller.replan_count(), replans + 1);
  // The failed tuple is distrusted and the safety tolerance grew, so the
  // new decision either switches tuples or sends more.
  const bool changed = d2.tuple.code != d1.tuple.code ||
                       d2.tuple.tx != d1.tuple.tx ||
                       d2.tuple.expansion_ratio != d1.tuple.expansion_ratio;
  EXPECT_TRUE(changed || d2.n_sent == 0 || d2.n_sent > d1.n_sent);
}

// ----------------------------------------------------- adaptive_compare

// The adaptive engine's points come from sweep_channel_points: the
// (p_global, burst) product mapped onto Gilbert channels, p_global-major.
TEST(BurstGrid, MapsPGlobalAndBurstToGilbert) {
  api::ScenarioSpec spec;
  spec.engine = "adaptive";
  spec.sweep.p_globals = {0.1};
  spec.sweep.bursts = {4.0};
  auto points = api::sweep_channel_points(spec);
  ASSERT_EQ(points.size(), 1u);
  const auto [p, q] = points[0];
  EXPECT_NEAR(p / (p + q), 0.1, 1e-12);
  EXPECT_NEAR(1.0 / q, 4.0, 1e-12);

  spec.sweep.p_globals = {0.05, 0.1};
  spec.sweep.bursts = {2.0, 4.0};
  points = api::sweep_channel_points(spec);
  ASSERT_EQ(points.size(), 4u);
  const double pgs[] = {0.05, 0.05, 0.1, 0.1};
  const double bursts[] = {2.0, 4.0, 2.0, 4.0};
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_NEAR(points[i].p / (points[i].p + points[i].q), pgs[i], 1e-12);
    EXPECT_NEAR(1.0 / points[i].q, bursts[i], 1e-12);
  }

  spec.sweep.p_globals = {1.0};
  spec.sweep.bursts = {4.0};
  EXPECT_THROW((void)api::sweep_channel_points(spec), std::invalid_argument);
  spec.sweep.p_globals = {0.1};
  spec.sweep.bursts = {0.5};
  EXPECT_THROW((void)api::sweep_channel_points(spec), std::invalid_argument);
}

// p_global 0.9 at burst 1 needs p = 9: gilbert_point's p <= 1 rule
// rejects it up front, naming both coordinates.
TEST(BurstGrid, RejectsPointsThatAreNotGilbertChannels) {
  api::ScenarioSpec spec;
  spec.engine = "adaptive";
  spec.sweep.p_globals = {0.9};
  spec.sweep.bursts = {1.0};
  try {
    (void)api::sweep_channel_points(spec);
    FAIL() << "sweep_channel_points accepted p = 9";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("not a Gilbert channel"), std::string::npos) << what;
    EXPECT_NE(what.find("0.9"), std::string::npos) << what;
  }
}

TEST(AdaptiveCompare, SmokePointConvergesToReliableChoice) {
  AdaptiveCompareConfig cfg;
  cfg.k = 500;
  cfg.objects = 10;
  cfg.warmup_objects = 4;
  cfg.controller.planning_k = 500;
  cfg.controller.planning_trials = 10;
  const ChannelPoint point = gilbert_point(0.1, 4.0);
  const AdaptiveComparePoint r =
      run_adaptive_compare({&point, 1}, cfg, 1).front();

  EXPECT_EQ(r.baselines.size(), default_candidates().size());
  EXPECT_EQ(r.trajectory.size(), 10u);
  EXPECT_GE(r.best_baseline, 0);
  EXPECT_GT(r.adaptive_steady.count(), 0u);
  EXPECT_EQ(r.adaptive_failures, 0u);
  EXPECT_GT(r.best_static_inefficiency(), 1.0);
  // Steady state must be within 25% of the best static tuple even at this
  // tiny scale (the acceptance bench checks 10% at full scale).
  EXPECT_LT(r.adaptive_steady.mean(),
            r.best_static_inefficiency() * 1.25);
}

AdaptiveCompareConfig tiny_compare() {
  AdaptiveCompareConfig cfg;
  cfg.k = 200;
  cfg.objects = 4;
  cfg.warmup_objects = 1;
  cfg.controller.planning_k = 200;
  cfg.controller.planning_trials = 4;
  return cfg;
}

// The points share the candidates' Experiments across workers.
TEST(AdaptiveCompare, PointsMatchAcrossThreadCounts) {
  const std::vector<ChannelPoint> points = {
      gilbert_point(0.05, 2.0), gilbert_point(0.1, 4.0),
      gilbert_point(0.2, 1.0)};
  const AdaptiveCompareConfig cfg = tiny_compare();
  const auto serial = run_adaptive_compare(points, cfg, 1);
  const auto parallel = run_adaptive_compare(points, cfg, 3);
  ASSERT_EQ(serial.size(), points.size());
  ASSERT_EQ(parallel.size(), points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(serial[i].best_baseline, parallel[i].best_baseline);
    EXPECT_EQ(serial[i].adaptive_steady.mean(),
              parallel[i].adaptive_steady.mean());
    ASSERT_EQ(serial[i].trajectory.size(), cfg.objects);
    ASSERT_EQ(parallel[i].trajectory.size(), cfg.objects);
    for (std::uint32_t t = 0; t < cfg.objects; ++t) {
      EXPECT_EQ(serial[i].trajectory[t].n_sent,
                parallel[i].trajectory[t].n_sent);
      EXPECT_EQ(serial[i].trajectory[t].inefficiency,
                parallel[i].trajectory[t].inefficiency);
    }
  }
}

// A candidate list without the universal tuple still runs the cold-start
// objects on it; the baselines are the list alone.
TEST(AdaptiveCompare, CustomCandidatesWithoutUniversalTupleRun) {
  AdaptiveCompareConfig cfg = tiny_compare();
  cfg.controller.candidates = {
      {CodeKind::kRse, TxModel::kTx5Interleaved, 2.5}};
  const ChannelPoint point = gilbert_point(0.05, 2.0);
  const AdaptiveComparePoint r =
      run_adaptive_compare({&point, 1}, cfg, 1).front();
  ASSERT_EQ(r.baselines.size(), 1u);
  EXPECT_EQ(r.baselines[0].tuple, cfg.controller.candidates[0]);
  ASSERT_EQ(r.trajectory.size(), cfg.objects);
  EXPECT_EQ(r.trajectory[0].tuple,
            AdaptiveController::recommended_tuple(ChannelRegime::kUnknown));
}

}  // namespace
}  // namespace fecsched
