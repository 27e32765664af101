// Loss models: Gilbert stationary behaviour, burst statistics, special
// cases (perfect / Bernoulli / always-lossy) and trace replay + Gilbert
// fitting.

#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "channel/gilbert.h"
#include "channel/loss_model.h"
#include "channel/trace.h"
#include "sim/analytic.h"
#include "util/rng.h"

namespace fecsched {
namespace {

double measured_loss(LossModel& m, int samples) {
  int losses = 0;
  for (int i = 0; i < samples; ++i) losses += m.lost() ? 1 : 0;
  return static_cast<double>(losses) / samples;
}

TEST(PerfectChannel, NeverLoses) {
  PerfectChannel ch;
  ch.reset(1);
  for (int i = 0; i < 1000; ++i) EXPECT_FALSE(ch.lost());
}

TEST(GilbertModel, RejectsOutOfRange) {
  EXPECT_THROW(GilbertModel(-0.1, 0.5), std::invalid_argument);
  EXPECT_THROW(GilbertModel(0.5, 1.1), std::invalid_argument);
}

TEST(GilbertModel, PZeroIsPerfect) {
  GilbertModel ch(0.0, 0.5);
  ch.reset(7);
  for (int i = 0; i < 5000; ++i) EXPECT_FALSE(ch.lost());
}

TEST(GilbertModel, GlobalLossFormula) {
  EXPECT_DOUBLE_EQ(GilbertModel(0.0, 0.0).global_loss_probability(), 0.0);
  EXPECT_DOUBLE_EQ(GilbertModel(0.2, 0.8).global_loss_probability(), 0.2);
  EXPECT_DOUBLE_EQ(GilbertModel(1.0, 1.0).global_loss_probability(), 0.5);
  EXPECT_DOUBLE_EQ(GilbertModel(0.3, 0.0).global_loss_probability(), 1.0);
}

class GilbertStationaryTest
    : public ::testing::TestWithParam<std::pair<double, double>> {};

TEST_P(GilbertStationaryTest, LongRunLossMatchesPGlobal) {
  const auto [p, q] = GetParam();
  GilbertModel ch(p, q);
  ch.reset(42);
  const double expected = ch.global_loss_probability();
  const double measured = measured_loss(ch, 400000);
  // Bursty chains mix slowly; tolerance scales with burstiness.
  const double tol = 0.01 + 0.05 * (1.0 - std::min(p + q, 1.0));
  EXPECT_NEAR(measured, expected, tol) << "p=" << p << " q=" << q;
}

INSTANTIATE_TEST_SUITE_P(
    Points, GilbertStationaryTest,
    ::testing::Values(std::make_pair(0.01, 0.79), std::make_pair(0.05, 0.5),
                      std::make_pair(0.1, 0.1), std::make_pair(0.3, 0.7),
                      std::make_pair(0.5, 0.5), std::make_pair(0.8, 0.2),
                      std::make_pair(1.0, 1.0), std::make_pair(0.2, 0.05)));

TEST(GilbertModel, MeanBurstLengthIsOneOverQ) {
  // Burst = maximal run of losses; its length is geometric with mean 1/q.
  GilbertModel ch(0.05, 0.25);
  ch.reset(99);
  std::vector<int> bursts;
  int current = 0;
  for (int i = 0; i < 500000; ++i) {
    if (ch.lost()) {
      ++current;
    } else if (current > 0) {
      bursts.push_back(current);
      current = 0;
    }
  }
  ASSERT_GT(bursts.size(), 1000u);
  double mean = 0;
  for (int b : bursts) mean += b;
  mean /= static_cast<double>(bursts.size());
  EXPECT_NEAR(mean, 4.0, 0.25);  // 1/q = 4
}

TEST(GilbertModel, MeanBurstIsInfiniteWhenLossAbsorbs) {
  EXPECT_DOUBLE_EQ(mean_burst(0.25), 4.0);
  EXPECT_DOUBLE_EQ(mean_burst(1.0), 1.0);
  // At q = 0 a loss run never ends (QZeroAbsorbs below).
  EXPECT_EQ(mean_burst(0.0), std::numeric_limits<double>::infinity());
}

TEST(GilbertModel, BernoulliFactoryIsMemoryless) {
  auto ch = GilbertModel::bernoulli(0.3);
  EXPECT_DOUBLE_EQ(ch.p(), 0.3);
  EXPECT_DOUBLE_EQ(ch.q(), 0.7);
  ch.reset(123);
  // Memorylessness: P[loss | prev loss] == P[loss | prev ok] == 0.3.
  int after_loss = 0, after_loss_total = 0;
  int after_ok = 0, after_ok_total = 0;
  bool prev = ch.lost();
  for (int i = 0; i < 200000; ++i) {
    const bool cur = ch.lost();
    if (prev) {
      ++after_loss_total;
      after_loss += cur ? 1 : 0;
    } else {
      ++after_ok_total;
      after_ok += cur ? 1 : 0;
    }
    prev = cur;
  }
  EXPECT_NEAR(static_cast<double>(after_loss) / after_loss_total, 0.3, 0.02);
  EXPECT_NEAR(static_cast<double>(after_ok) / after_ok_total, 0.3, 0.02);
}

TEST(GilbertModel, QZeroAbsorbs) {
  // Once lost, always lost (q = 0): after the first loss everything drops.
  GilbertModel ch(0.2, 0.0);
  ch.reset(5);
  bool seen_loss = false;
  for (int i = 0; i < 10000; ++i) {
    const bool lost = ch.lost();
    if (seen_loss) {
      ASSERT_TRUE(lost) << "packet " << i;
    }
    seen_loss |= lost;
  }
  EXPECT_TRUE(seen_loss);
}

TEST(GilbertModel, AlternatingAtPQOne) {
  // p = q = 1: the chain flips every packet — strictly alternating.
  GilbertModel ch(1.0, 1.0);
  ch.reset(11);
  bool prev = ch.lost();
  for (int i = 0; i < 1000; ++i) {
    const bool cur = ch.lost();
    ASSERT_NE(cur, prev);
    prev = cur;
  }
}

class GilbertTransitionTest
    : public ::testing::TestWithParam<std::pair<double, double>> {};

TEST_P(GilbertTransitionTest, EmpiricalPGlobalWithinThreeSigma) {
  // Drive the chain explicitly through transition() for 1e6 steps and
  // check the empirical loss rate against p_global within 3 sigma.  The
  // asymptotic variance of the sample mean of a two-state chain is
  //   p_g (1 - p_g) (1 + lambda) / (1 - lambda) / N,  lambda = 1 - p - q
  // (the sum of the geometric autocorrelations lambda^|k|).
  const auto [p, q] = GetParam();
  GilbertModel ch(p, q);
  ch.reset(2026);
  const double p_global = ch.global_loss_probability();
  constexpr int kSteps = 1000000;
  // Start from the stationary distribution like reset() does: consume one
  // lost() to learn the drawn state, then hand the trajectory to
  // transition().
  bool state = ch.lost();
  std::int64_t losses = state ? 1 : 0;
  for (int i = 1; i < kSteps; ++i) {
    state = ch.transition(state);
    losses += state ? 1 : 0;
  }
  const double lambda = 1.0 - p - q;
  const double sigma = std::sqrt(p_global * (1.0 - p_global) *
                                 (1.0 + lambda) / (1.0 - lambda) / kSteps);
  const double empirical = static_cast<double>(losses) / kSteps;
  EXPECT_NEAR(empirical, p_global, 3.0 * sigma) << "p=" << p << " q=" << q;
}

INSTANTIATE_TEST_SUITE_P(
    Points, GilbertTransitionTest,
    ::testing::Values(std::make_pair(0.01, 0.79), std::make_pair(0.05, 0.5),
                      std::make_pair(0.1, 0.1), std::make_pair(0.02, 0.2),
                      std::make_pair(0.3, 0.7), std::make_pair(0.2, 0.05)));

TEST(GilbertModel, TransitionMatchesLostStatistics) {
  // transition() and lost() sample the same conditional law:
  // P[loss | prev loss] = 1 - q and P[loss | prev ok] = p.
  GilbertModel ch(0.15, 0.35);
  ch.reset(31);
  int from_loss = 0, from_loss_total = 0, from_ok = 0, from_ok_total = 0;
  bool state = ch.lost();
  for (int i = 0; i < 300000; ++i) {
    const bool prev = state;
    state = ch.transition(state);
    if (prev) {
      ++from_loss_total;
      from_loss += state ? 1 : 0;
    } else {
      ++from_ok_total;
      from_ok += state ? 1 : 0;
    }
  }
  EXPECT_NEAR(static_cast<double>(from_loss) / from_loss_total, 1.0 - 0.35,
              0.01);
  EXPECT_NEAR(static_cast<double>(from_ok) / from_ok_total, 0.15, 0.01);
}

TEST(GilbertModel, SameSeedSameSequence) {
  GilbertModel a(0.1, 0.4), b(0.1, 0.4);
  a.reset(77);
  b.reset(77);
  for (int i = 0; i < 1000; ++i) ASSERT_EQ(a.lost(), b.lost());
  a.reset(77);
  b.reset(78);
  int same = 0;
  for (int i = 0; i < 1000; ++i) same += a.lost() == b.lost() ? 1 : 0;
  EXPECT_LT(same, 1000);
}

// lost() draws once per packet and compares against both p and q; the
// fates must be those of the two-branch rule
// `in ? !bernoulli(q) : bernoulli(p)` on the same generator stream,
// including the probabilities at and next to 0 and 1.
TEST(GilbertModel, BranchFreeDrawMatchesTwoBranchRule) {
  const double probs[] = {0.0, 1e-300, 0.01, 0.5, std::nextafter(1.0, 0.0), 1.0};
  for (const double p : probs) {
    for (const double q : probs) {
      GilbertModel model(p, q);
      model.reset(0xd1ce);
      Rng rng(0xd1ce);  // the model's generator, copied by seed
      bool in = rng.bernoulli(model.global_loss_probability());
      for (int i = 0; i < 100000; ++i) {
        const bool want = in;
        in = in ? !rng.bernoulli(q) : rng.bernoulli(p);
        ASSERT_EQ(model.lost(), want) << "p=" << p << " q=" << q << " draw " << i;
      }
    }
  }
}

// -------------------------------------------------------------- traces

TEST(TraceModel, ParseAndReplay) {
  auto tm = TraceModel::parse("0 1 1 0\n.xX0", /*random_rotation=*/false);
  EXPECT_EQ(tm.length(), 8u);
  EXPECT_NEAR(tm.loss_rate(), 4.0 / 8.0, 1e-12);
  tm.reset(0);
  const bool expected[] = {false, true, true, false, false, true, true, false};
  for (bool e : expected) EXPECT_EQ(tm.lost(), e);
  // Wraps around cyclically.
  EXPECT_FALSE(tm.lost());
  EXPECT_TRUE(tm.lost());
}

TEST(TraceModel, ParseRejectsGarbage) {
  EXPECT_THROW(TraceModel::parse("01a1"), std::invalid_argument);
  EXPECT_THROW(TraceModel::parse(""), std::invalid_argument);
  EXPECT_THROW(TraceModel::parse("   \n"), std::invalid_argument);
}

TEST(TraceModel, RejectsEmptyEventVector) {
  // The constructor itself (not just parse) must refuse an empty trace —
  // replay would otherwise divide by the trace length.
  EXPECT_THROW(TraceModel({}), std::invalid_argument);
  EXPECT_THROW(TraceModel({}, /*random_rotation=*/false),
               std::invalid_argument);
}

TEST(TraceModel, SingleEntryTraceIsConstant) {
  // A one-packet trace replays that packet forever, and the random
  // rotation has only one phase to pick — every seed behaves the same.
  for (const bool value : {false, true}) {
    TraceModel tm({value});
    EXPECT_EQ(tm.length(), 1u);
    EXPECT_NEAR(tm.loss_rate(), value ? 1.0 : 0.0, 1e-12);
    for (std::uint64_t seed = 0; seed < 5; ++seed) {
      tm.reset(seed);
      for (int i = 0; i < 20; ++i) EXPECT_EQ(tm.lost(), value);
    }
  }
}

TEST(TraceModel, WraparoundReplayIsExactlyPeriodic) {
  // Three full cycles without rotation: fate of packet t is trace[t % L],
  // with no drift or phase glitch at the cycle boundary.
  const std::vector<bool> trace = {true, false, false, true, true, false};
  TraceModel tm(trace, /*random_rotation=*/false);
  tm.reset(123);
  for (int cycle = 0; cycle < 3; ++cycle)
    for (std::size_t i = 0; i < trace.size(); ++i)
      ASSERT_EQ(tm.lost(), trace[i]) << "cycle " << cycle << " pos " << i;
  // reset() restarts the phase even mid-cycle.
  tm.reset(123);
  EXPECT_TRUE(tm.lost());
  EXPECT_FALSE(tm.lost());
}

TEST(TraceModel, RotatedReplayIsStillPeriodicWithSamePeriod) {
  // Rotation shifts the phase but must preserve the cyclic content: over
  // one period every rotation delivers the same multiset of fates.
  const std::vector<bool> trace = {true, false, false, false};
  TraceModel tm(trace);  // random rotation on
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    tm.reset(seed);
    std::vector<bool> first_period;
    int losses = 0;
    for (std::size_t i = 0; i < trace.size(); ++i) {
      first_period.push_back(tm.lost());
      losses += first_period.back() ? 1 : 0;
    }
    EXPECT_EQ(losses, 1) << "seed " << seed;  // content preserved
    // The second period repeats the first exactly.
    for (std::size_t i = 0; i < trace.size(); ++i)
      ASSERT_EQ(tm.lost(), first_period[i]) << "seed " << seed;
  }
}

TEST(TraceModel, LoadFromStream) {
  std::istringstream in("1100\n0011\n");
  auto tm = TraceModel::load(in, false);
  EXPECT_EQ(tm.length(), 8u);
  EXPECT_NEAR(tm.loss_rate(), 0.5, 1e-12);
}

TEST(TraceModel, RandomRotationChangesPhase) {
  auto tm = TraceModel::parse("10000000");
  tm.reset(1);
  std::vector<bool> run1;
  for (int i = 0; i < 8; ++i) run1.push_back(tm.lost());
  // Some seed must produce a different phase.
  bool differs = false;
  for (std::uint64_t seed = 2; seed < 12 && !differs; ++seed) {
    tm.reset(seed);
    for (int i = 0; i < 8; ++i)
      if (tm.lost() != run1[static_cast<std::size_t>(i)]) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(FitGilbert, RecoversTransitionRates) {
  // Generate a long Gilbert sequence, then fit: estimates within 10%.
  const double p = 0.05, q = 0.3;
  GilbertModel ch(p, q);
  ch.reset(23);
  std::vector<bool> trace;
  trace.reserve(500000);
  for (int i = 0; i < 500000; ++i) trace.push_back(ch.lost());
  const GilbertFit fit = fit_gilbert(trace);
  EXPECT_NEAR(fit.p, p, 0.005);
  EXPECT_NEAR(fit.q, q, 0.03);
}

TEST(FitGilbert, DegenerateTraces) {
  const GilbertFit all_good = fit_gilbert({false, false, false});
  EXPECT_EQ(all_good.p, 0.0);
  const GilbertFit all_bad = fit_gilbert({true, true, true});
  EXPECT_EQ(all_bad.q, 0.0);
}

TEST(Analytic, GlobalLossProbability) {
  EXPECT_DOUBLE_EQ(global_loss_probability(0.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(global_loss_probability(0.2, 0.8), 0.2);
  EXPECT_NEAR(global_loss_probability(0.0109, 0.7915), 0.0135, 0.0005);
}

}  // namespace
}  // namespace fecsched
