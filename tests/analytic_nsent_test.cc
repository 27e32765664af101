// Closed-form results (Sec. 3.2) and the n_sent optimisation (Sec. 6.2),
// including the paper's own 50 MB worked example, and the grid trial held
// to exact values: one RSE block's P(decoded) and n_received distribution
// from a dynamic program over the Gilbert chain (tests/gilbert_exact.h).

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "channel/gilbert.h"
#include "core/nsent.h"
#include "fec/block_partition.h"
#include "gilbert_exact.h"
#include "sched/tx_models.h"
#include "sim/analytic.h"
#include "sim/tracker.h"
#include "sim/trial.h"
#include "util/rng.h"

namespace fecsched {
namespace {

TEST(Analytic, ExpectedReceivedEq1) {
  // n_received = n_sent * (1 - p_global).
  EXPECT_DOUBLE_EQ(expected_received(1000, 0.0, 0.5), 1000.0);
  EXPECT_DOUBLE_EQ(expected_received(1000, 0.2, 0.8), 800.0);
  EXPECT_DOUBLE_EQ(expected_received(500, 0.5, 0.5), 250.0);
}

TEST(Analytic, LossLimitMatchesPaperFormula) {
  // q = -p*inef / (inef - nsent/k); compare against direct evaluation.
  for (double p : {0.1, 0.3, 0.7}) {
    for (double ratio : {1.5, 2.5}) {
      const double q = loss_limit_q(p, 1.0, ratio);
      const double direct = -p * 1.0 / (1.0 - ratio);
      EXPECT_NEAR(q, direct, 1e-12) << "p=" << p << " ratio=" << ratio;
    }
  }
}

TEST(Analytic, LimitBoundaryIsExactlyFeasible) {
  for (double p : {0.2, 0.5, 0.9}) {
    const double q = loss_limit_q(p, 1.0, 2.5);
    EXPECT_TRUE(decoding_feasible(p, q, 1.0, 2.5));
    EXPECT_FALSE(decoding_feasible(p, q - 0.01, 1.0, 2.5));
    EXPECT_TRUE(decoding_feasible(p, q + 0.01, 1.0, 2.5));
  }
}

TEST(Analytic, HigherExpansionToleratesMoreLoss) {
  // Fig. 6: the ratio-2.5 boundary lies below the ratio-1.5 boundary
  // (more of the (p,q) plane is decodable).
  for (double p : {0.1, 0.4, 0.8}) {
    EXPECT_LT(loss_limit_q(p, 1.0, 2.5), loss_limit_q(p, 1.0, 1.5));
  }
}

TEST(Analytic, InsufficientBudgetNeverFeasible) {
  // Sending less than inef*k can never decode, whatever the channel.
  EXPECT_TRUE(std::isinf(loss_limit_q(0.1, 1.0, 0.9)));
  EXPECT_FALSE(decoding_feasible(0.1, 1.0, 1.0, 0.9));
  // p = 0 with exactly enough budget is feasible.
  EXPECT_TRUE(decoding_feasible(0.0, 0.0, 1.0, 1.0));
}

TEST(Analytic, PerfectChannelAlwaysFeasibleWithBudget) {
  EXPECT_EQ(loss_limit_q(0.0, 1.0, 1.5), 0.0);
  EXPECT_TRUE(decoding_feasible(0.0, 0.0, 1.0, 1.5));
}

TEST(Analytic, Fig6BoundaryShape) {
  const auto curve = fig6_boundary(2.5, 51);
  ASSERT_EQ(curve.size(), 51u);
  EXPECT_DOUBLE_EQ(curve.front().p, 0.0);
  EXPECT_DOUBLE_EQ(curve.front().q_limit, 0.0);
  EXPECT_DOUBLE_EQ(curve.back().p, 1.0);
  // Monotonically increasing boundary.
  for (std::size_t i = 1; i < curve.size(); ++i)
    EXPECT_GE(curve[i].q_limit, curve[i - 1].q_limit);
  // At p=1, ratio 2.5: q_limit = 1*1/(2.5-1) = 2/3.
  EXPECT_NEAR(curve.back().q_limit, 2.0 / 3.0, 1e-12);
}

TEST(OptimalNsent, ValidatesInput) {
  NsentRequest r;
  r.k = 0;
  EXPECT_THROW((void)optimal_nsent(r), std::invalid_argument);
  r.k = 10;
  r.inefficiency = 0.5;
  EXPECT_THROW((void)optimal_nsent(r), std::invalid_argument);
  r.inefficiency = 1.0;
  r.p = 0.5;
  r.q = 0.0;
  EXPECT_THROW((void)optimal_nsent(r), std::invalid_argument);  // p_global = 1
  r.q = 0.5;
  r.tolerance_fraction = -0.1;
  EXPECT_THROW((void)optimal_nsent(r), std::invalid_argument);
}

TEST(OptimalNsent, PerfectChannelIsExactlyInefTimesK) {
  NsentRequest r;
  r.inefficiency = 1.0;
  r.k = 1000;
  r.p = 0.0;
  r.q = 1.0;
  const auto res = optimal_nsent(r);
  EXPECT_EQ(res.n_sent, 1000u);
  EXPECT_DOUBLE_EQ(res.p_global, 0.0);
}

TEST(OptimalNsent, ToleranceAddsMargin) {
  NsentRequest r;
  r.inefficiency = 1.1;
  r.k = 1000;
  r.p = 0.1;
  r.q = 0.9;
  const auto tight = optimal_nsent(r);
  r.tolerance_fraction = 0.10;
  const auto loose = optimal_nsent(r);
  EXPECT_GT(loose.n_sent, tight.n_sent);
  EXPECT_NEAR(loose.n_sent, std::ceil(tight.exact * 1.10), 1.0);
}

// The paper's Sec. 6.2.1 walk-through: 50 MB object, 1024-byte payloads,
// Amherst->LA channel p=0.0109, q=0.7915 (p_global ~ 0.0135), LDGM
// Staircase Tx_model_2 at ratio 1.5 with inef ~ 1.011:
// n_sent ~ 50041 packets (vs n = 73243 for the full transmission).
TEST(OptimalNsent, PaperSection621Example) {
  ByteNsentRequest r;
  r.inefficiency = 1.011;
  r.object_bytes = 50000000;  // 50 MB as used by the paper's arithmetic
  r.packet_payload_bytes = 1024;
  r.p = 0.0109;
  r.q = 0.7915;
  const auto res = optimal_nsent_bytes(r);
  EXPECT_NEAR(res.p_global, 0.0135, 0.0005);
  // k = ceil(50e6/1024) = 48829; n at ratio 1.5 = 73243 (paper's figure).
  const std::uint32_t k = 48829;
  EXPECT_EQ(static_cast<std::uint32_t>(std::floor(k * 1.5)), 73243u);
  EXPECT_NEAR(res.n_sent, 50041, 60);
  // And the optimised transmission is dramatically shorter than n.
  EXPECT_LT(res.n_sent, 73243u * 0.72);
}

TEST(OptimalNsentBytes, RejectsZeroPayload) {
  ByteNsentRequest r;
  r.object_bytes = 1000;
  r.packet_payload_bytes = 0;
  EXPECT_THROW((void)optimal_nsent_bytes(r), std::invalid_argument);
}

TEST(OptimalNsentBytes, RoundsObjectUp) {
  ByteNsentRequest r;
  r.inefficiency = 1.0;
  r.object_bytes = 1025;  // needs 2 packets of 1024
  r.packet_payload_bytes = 1024;
  r.p = 0.0;
  r.q = 1.0;
  EXPECT_EQ(optimal_nsent_bytes(r).n_sent, 2u);
}

// ------------------------------------------------------- exact values

TEST(ExactGilbert, BernoulliLimitIsBinomial) {
  // q = 1 - p makes every slot an independent loss with probability p, so
  // the DP must reproduce Binomial(n, 1 - p) arrivals.
  for (const double p : {0.0, 0.1, 0.3, 0.5, 0.9}) {
    for (const std::uint32_t n : {1u, 7u, 60u, 255u}) {
      const std::vector<double> dist =
          exact::received_distribution(p, 1.0 - p, n);
      ASSERT_EQ(dist.size(), n + 1);
      for (std::uint32_t m = 0; m <= n; ++m) {
        const double binomial =
            std::exp(std::lgamma(n + 1.0) - std::lgamma(m + 1.0) -
                     std::lgamma(n - m + 1.0)) *
            std::pow(1.0 - p, m) * std::pow(p, n - m);
        EXPECT_NEAR(dist[m], binomial, 1e-12)
            << "p=" << p << " n=" << n << " m=" << m;
      }
    }
  }
}

TEST(ExactGilbert, RseBlockTrialsMatchExactValues) {
  // One (40, 60) RSE block under Tx_model_1..5 at three Gilbert points, one
  // of them bursty (q <= 0.2) and one the Bernoulli limit.  Every trial
  // frequency must lie within 5 sigma (plus one stray trial) of its exact
  // value, sigma = sqrt(P (1 - P) / trials); the seeds are fixed, so the
  // test cannot flake.  P(n_received = k - 1) is 0.044-0.076 at these
  // points, 3.5-7x the P(decoded) bound, so a tracker that solved a block
  // one packet early would fail.
  constexpr std::uint32_t kK = 40;
  constexpr int kTrials = 40000;
  constexpr double kZ = 5.0;
  const auto plan = std::make_shared<const RsePlan>(kK, 1.5);
  ASSERT_EQ(plan->block_count(), 1u);
  const std::uint32_t n = plan->n();
  ASSERT_EQ(n, 60u);
  const auto bound = [](double prob) {
    return kZ * std::sqrt(prob * (1.0 - prob) / kTrials) + 1.0 / kTrials;
  };
  struct Point {
    double p, q;
  };
  for (const Point point :
       {Point{0.3, 0.7}, Point{0.2, 0.5}, Point{0.1, 0.2}}) {
    const std::vector<double> dist =
        exact::received_distribution(point.p, point.q, n);
    const double decoded = exact::decode_probability(dist, kK);
    for (const TxModel tx :
         {TxModel::kTx1SeqSourceSeqParity, TxModel::kTx2SeqSourceRandParity,
          TxModel::kTx3SeqParityRandSource, TxModel::kTx4AllRandom,
          TxModel::kTx5Interleaved}) {
      RseTracker tracker(plan);
      GilbertModel channel(point.p, point.q);
      std::vector<PacketId> schedule;
      std::vector<int> received(n + 1, 0);
      int decodes = 0;
      for (int trial = 0; trial < kTrials; ++trial) {
        const std::uint64_t seed = derive_seed(
            23, {static_cast<std::uint64_t>(point.q * 100),
                 static_cast<std::uint64_t>(tx),
                 static_cast<std::uint64_t>(trial)});
        Rng rng(seed);
        make_schedule(*plan, tx, rng, schedule);
        tracker.reset();
        channel.reset(extend_seed(seed, 1));
        const TrialResult r = run_trial(tracker, schedule, channel);
        decodes += r.decoded ? 1 : 0;
        ++received[r.n_received];
      }
      const std::string where = "p=" + std::to_string(point.p) +
                                " q=" + std::to_string(point.q) + " " +
                                std::string(to_string(tx));
      EXPECT_NEAR(static_cast<double>(decodes) / kTrials, decoded,
                  bound(decoded))
          << where << " P(decoded)";
      for (std::uint32_t m = 0; m <= n; ++m)
        EXPECT_NEAR(static_cast<double>(received[m]) / kTrials, dist[m],
                    bound(dist[m]))
            << where << " P(n_received = " << m << ")";
    }
  }
}

}  // namespace
}  // namespace fecsched
