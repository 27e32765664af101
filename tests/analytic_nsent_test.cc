// Closed-form results (Sec. 3.2) and the n_sent optimisation (Sec. 6.2),
// including the paper's own 50 MB worked example.

#include <cmath>

#include <gtest/gtest.h>

#include "core/nsent.h"
#include "sim/analytic.h"

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

}  // namespace
}  // namespace fecsched
