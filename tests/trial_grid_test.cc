// Trial runner semantics (duplicate accounting, n_received bookkeeping)
// and grid sweep determinism/aggregation.

#include <algorithm>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "channel/gilbert.h"
#include "channel/loss_model.h"
#include "channel/trace.h"
#include "fec/block_partition.h"
#include "fec/ldgm.h"
#include "fec/replication.h"
#include "obs/obs.h"
#include "sched/tx_models.h"
#include "sim/experiment.h"
#include "sim/grid.h"
#include "sim/tracker.h"
#include "sim/trial.h"
#include "trial_reference.h"

namespace fecsched {
namespace {

// A channel that drops exactly the positions given.
class ScriptedChannel final : public LossModel {
 public:
  explicit ScriptedChannel(std::vector<bool> drops) : drops_(std::move(drops)) {}
  bool lost() override {
    const bool d = pos_ < drops_.size() ? drops_[pos_] : false;
    ++pos_;
    return d;
  }
  void reset(std::uint64_t) override { pos_ = 0; }

 private:
  std::vector<bool> drops_;
  std::size_t pos_ = 0;
};

TEST(RunTrial, PerfectChannelCountsExactly) {
  auto plan = std::make_shared<const ReplicationPlan>(10, 2);
  ReplicationTracker tracker(plan);
  PerfectChannel ch;
  // First pass over the 10 distinct packets completes the object.
  std::vector<PacketId> schedule;
  for (PacketId id = 0; id < 20; ++id) schedule.push_back(id);
  const TrialResult r = run_trial(tracker, schedule, ch);
  EXPECT_TRUE(r.decoded);
  EXPECT_EQ(r.n_needed, 10u);
  EXPECT_EQ(r.n_received, 20u);  // keeps counting after completion
  EXPECT_EQ(r.n_sent, 20u);
  EXPECT_DOUBLE_EQ(r.inefficiency(10), 1.0);
  EXPECT_DOUBLE_EQ(r.received_ratio(10), 2.0);
}

TEST(RunTrial, DuplicatesCountAgainstEfficiency) {
  auto plan = std::make_shared<const ReplicationPlan>(4, 2);
  ReplicationTracker tracker(plan);
  PerfectChannel ch;
  // Copies first: 0,4 carry source 0; the receiver pays for both.
  const std::vector<PacketId> schedule = {0, 4, 1, 5, 2, 6, 3};
  const TrialResult r = run_trial(tracker, schedule, ch);
  EXPECT_TRUE(r.decoded);
  EXPECT_EQ(r.n_needed, 7u);  // all 7 arrivals counted, 3 were duplicates
}

TEST(RunTrial, LossesDelayCompletion) {
  auto plan = std::make_shared<const ReplicationPlan>(3, 2);
  ReplicationTracker tracker(plan);
  ScriptedChannel ch({true, false, false, false, false, false});
  const std::vector<PacketId> schedule = {0, 1, 2, 3, 4, 5};
  // Packet 0 lost; coverage completes at id=3 (copy of source 0).
  const TrialResult r = run_trial(tracker, schedule, ch);
  EXPECT_TRUE(r.decoded);
  EXPECT_EQ(r.n_needed, 3u);      // received 1, 2, 3
  EXPECT_EQ(r.n_received, 5u);
}

TEST(RunTrial, FailureWhenScheduleExhausted) {
  auto plan = std::make_shared<const ReplicationPlan>(3, 1);
  ReplicationTracker tracker(plan);
  ScriptedChannel ch({false, true, false});
  const std::vector<PacketId> schedule = {0, 1, 2};
  const TrialResult r = run_trial(tracker, schedule, ch);
  EXPECT_FALSE(r.decoded);
  EXPECT_EQ(r.n_needed, 0u);
  EXPECT_EQ(r.n_received, 2u);
}

// ------------------------------------------------ reference-loop oracle
//
// run_trial against the fused single-pass loop in trial_reference.h, on
// the same schedules and channel seeds: every TrialResult field and, under
// each kind of obs session, the deterministic report (events, metrics,
// phase call counts, counter read counts).

using ChannelFactory = std::function<std::unique_ptr<LossModel>()>;
using TrackerFactory = std::function<std::unique_ptr<ErasureTracker>()>;

struct OracleChannel {
  std::string name;
  ChannelFactory make;
  bool observed;  ///< also compared under every obs session
};

std::vector<OracleChannel> oracle_channels() {
  std::vector<OracleChannel> out;
  const double probs[] = {0.0, 0.01, 0.2, 0.5, 1.0};
  for (const double p : probs) {
    for (const double q : probs) {
      const bool observed = (p == 0.01 && q == 0.5) || (p == 0.2 && q == 0.2) ||
                            (p == 0.5 && q == 0.01);
      out.push_back({"gilbert(" + std::to_string(p) + "," + std::to_string(q) + ")",
                     [p, q] { return std::make_unique<GilbertModel>(p, q); },
                     observed});
    }
  }
  out.push_back({"perfect", [] { return std::make_unique<PerfectChannel>(); },
                 true});
  out.push_back({"trace",
                 [] {
                   return std::make_unique<TraceModel>(
                       TraceModel::parse("0001100000110111000000001000"));
                 },
                 false});
  out.push_back({"scripted",
                 [] {
                   std::vector<bool> drops(64, false);
                   for (std::size_t i = 3; i < 64; i += 5) drops[i] = true;
                   for (std::size_t i = 20; i < 31; ++i) drops[i] = true;
                   return std::make_unique<ScriptedChannel>(std::move(drops));
                 },
                 true});
  return out;
}

/// Every id of [0, n), a third of them twice in a row, then the first
/// quarter again: duplicates before and after completion.
std::vector<PacketId> repeated_ids(std::uint32_t n) {
  std::vector<PacketId> s;
  for (PacketId id = 0; id < n; ++id) {
    s.push_back(id);
    if (id % 3 == 0) s.push_back(id);
  }
  for (PacketId id = 0; id < n / 4; ++id) s.push_back(id);
  return s;
}

struct OracleSchedule {
  std::string name;
  std::vector<PacketId> ids;
  bool observed;
};

/// Tx_model_1..6, Tx_model_4 truncated to half its length (n_sent), and
/// a hand-made schedule with repeated ids.
std::vector<OracleSchedule> oracle_schedules(const PacketPlan& plan,
                                             std::uint64_t seed) {
  std::vector<OracleSchedule> out;
  for (int m = 1; m <= 6; ++m) {
    const auto tx = static_cast<TxModel>(m);
    Rng rng(derive_seed(seed, {static_cast<std::uint64_t>(m)}));
    out.push_back({std::string(to_string(tx)), make_schedule(plan, tx, rng),
                   m == 2 || m == 4});
  }
  out.push_back({"tx_mod_4 n_sent", truncate_schedule(out[3].ids, plan.n() / 2),
                 false});
  out.push_back({"repeated ids", repeated_ids(plan.n()), true});
  return out;
}

::testing::AssertionResult same_trial(const TrialResult& want,
                                      const TrialResult& got) {
  if (want.decoded == got.decoded && want.n_needed == got.n_needed &&
      want.n_received == got.n_received && want.n_sent == got.n_sent &&
      want.peak_memory_symbols == got.peak_memory_symbols)
    return ::testing::AssertionSuccess();
  const auto row = [](const TrialResult& r) {
    return "decoded " + std::to_string(r.decoded) + " n_needed " +
           std::to_string(r.n_needed) + " n_received " +
           std::to_string(r.n_received) + " n_sent " + std::to_string(r.n_sent) +
           " peak " + std::to_string(r.peak_memory_symbols);
  };
  return ::testing::AssertionFailure()
         << "reference {" << row(want) << "} run_trial {" << row(got) << "}";
}

/// The merged report of one traced trial run by `run` under `cfg`.
template <typename Run>
obs::Report observe(const obs::Config& cfg, Run&& run) {
  obs::Session session(cfg);
  {
    const obs::TrialScope scope(5);
    const obs::Hook hook;
    run(hook);
  }
  return session.finish();
}

std::vector<std::pair<std::string, obs::Config>> oracle_sessions() {
  obs::Config traced;
  traced.metrics = true;
  traced.trace = true;
  obs::Config profile;
  profile.profile = true;
  obs::Config timeline = profile;
  timeline.timeline = true;
  obs::Config counters = profile;
  counters.counters = true;
  return {{"metrics+trace", traced},
          {"profile", profile},
          {"timeline", timeline},
          {"counters", counters}};
}

std::uint64_t phase_spans(const obs::Report& r, obs::Phase p) {
  std::uint64_t n = 0;
  for (const obs::TimelineSpan& s : r.spans)
    n += s.kind == obs::SpanKind::kPhase && s.phase == p ? 1 : 0;
  return n;
}

/// Runs every oracle schedule of `plan` through every oracle channel with
/// both loops, each loop on its own tracker reused across trials (reset
/// between them, as Experiment::run_once does).
void expect_matches_reference(const std::string& code, const PacketPlan& plan,
                              const TrackerFactory& make_tracker) {
  const std::uint32_t k = plan.k();
  const std::unique_ptr<ErasureTracker> ref_tracker = make_tracker();
  const std::unique_ptr<ErasureTracker> new_tracker = make_tracker();
  const std::vector<OracleChannel> channels = oracle_channels();
  const std::vector<OracleSchedule> schedules = oracle_schedules(plan, 0x5eedULL);
  for (std::size_t si = 0; si < schedules.size(); ++si) {
    const OracleSchedule& sched = schedules[si];
    for (std::size_t ci = 0; ci < channels.size(); ++ci) {
      const OracleChannel& ch = channels[ci];
      const std::string where = code + ", " + sched.name + ", " + ch.name;
      const std::uint64_t seed = derive_seed(0xc4a77e1ULL, {si, ci});
      const auto run = [&](ErasureTracker& tracker, bool reference,
                           const obs::Hook* hook) {
        const std::unique_ptr<LossModel> channel = ch.make();
        channel->reset(seed);
        tracker.reset();
        if (hook == nullptr)
          return reference ? reference::run_trial(tracker, sched.ids, *channel)
                           : run_trial(tracker, sched.ids, *channel);
        return reference
                   ? reference::run_trial(tracker, sched.ids, *channel, k, *hook)
                   : run_trial(tracker, sched.ids, *channel, k, *hook);
      };
      const TrialResult want = run(*ref_tracker, true, nullptr);
      ASSERT_TRUE(same_trial(want, run(*new_tracker, false, nullptr))) << where;
      if (!sched.observed || !ch.observed) continue;

      for (const auto& [session, cfg] : oracle_sessions()) {
        TrialResult ref_r, new_r;
        const obs::Report a = observe(
            cfg, [&](const obs::Hook& h) { ref_r = run(*ref_tracker, true, &h); });
        const obs::Report b = observe(
            cfg, [&](const obs::Hook& h) { new_r = run(*new_tracker, false, &h); });
        ASSERT_TRUE(same_trial(want, ref_r)) << where << ", " << session;
        ASSERT_TRUE(same_trial(want, new_r)) << where << ", " << session;
        for (std::size_t p = 0; p < obs::kPhaseCount; ++p) {
          ASSERT_EQ(a.phases[p].calls, b.phases[p].calls)
              << where << ", " << session << ", phase "
              << obs::to_string(static_cast<obs::Phase>(p));
        }
        if (cfg.trace) {
          ASSERT_EQ(a.events.size(), b.events.size()) << where;
          const auto diff =
              std::mismatch(a.events.begin(), a.events.end(), b.events.begin());
          ASSERT_TRUE(diff.first == a.events.end())
              << where << ", event " << (diff.first - a.events.begin()) << ": "
              << obs::event_to_json(*diff.first).dump(0) << " vs "
              << obs::event_to_json(*diff.second).dump(0);
          ASSERT_EQ(a.metrics.counters, b.metrics.counters) << where;
          ASSERT_EQ(a.metrics.gauges, b.metrics.gauges) << where;
        }
        if (cfg.timeline && a.spans_dropped == 0 && b.spans_dropped == 0) {
          for (const obs::Phase p : {obs::Phase::kChannelDraw, obs::Phase::kDecode})
            ASSERT_EQ(phase_spans(a, p), phase_spans(b, p)) << where;
        }
        for (std::size_t p = 0; p < obs::kPhaseCount; ++p)
          ASSERT_EQ(a.perf.phases[p].reads, b.perf.phases[p].reads)
              << where << ", " << session;
      }
    }
  }
}

TEST(TrialOracle, RseMatchesReferenceLoop) {
  for (const std::uint32_t k : {1u, 170u, 171u, 4000u}) {
    for (const double ratio : {1.0, 1.5, 2.5}) {
      for (const std::uint32_t max_block_n : {255u, 40u}) {
        const auto plan = std::make_shared<const RsePlan>(k, ratio, max_block_n);
        expect_matches_reference(
            "rse k=" + std::to_string(k) + " ratio=" + std::to_string(ratio) +
                " max_block_n=" + std::to_string(max_block_n),
            *plan, [&] { return std::make_unique<RseTracker>(plan); });
        if (HasFatalFailure()) return;
      }
    }
  }
}

// RseTracker tabulates each packet's block at construction; the table
// must agree with RsePlan::position for every id, and ids past n still
// throw.
TEST(TrialOracle, RseBlockTableMatchesPlanPosition) {
  for (const std::uint32_t k : {1u, 170u, 171u, 4000u}) {
    for (const double ratio : {1.0, 1.5, 2.5}) {
      for (const std::uint32_t max_block_n : {255u, 40u}) {
        const auto plan = std::make_shared<const RsePlan>(k, ratio, max_block_n);
        RseTracker tracker(plan);
        for (PacketId id = 0; id < plan->n(); ++id)
          ASSERT_EQ(tracker.block_of(id), plan->position(id).block)
              << "k=" << k << " ratio=" << ratio << " cap=" << max_block_n
              << " id=" << id;
        EXPECT_THROW(tracker.on_packet(plan->n()), std::invalid_argument);
        EXPECT_THROW(tracker.on_packet(0xffffffffu), std::invalid_argument);
      }
    }
  }
}

TEST(TrialOracle, LdgmMatchesReferenceLoop) {
  for (const LdgmVariant variant :
       {LdgmVariant::kIdentity, LdgmVariant::kStaircase, LdgmVariant::kTriangle}) {
    LdgmParams params;
    params.k = 160;
    params.n = 400;
    params.variant = variant;
    params.seed = 0x1d9eULL;
    const auto code = std::make_shared<const LdgmCode>(params);
    for (const bool ge_fallback : {false, true}) {
      expect_matches_reference(
          "ldgm variant=" + std::to_string(static_cast<int>(variant)) +
              " ge_fallback=" + std::to_string(ge_fallback),
          *code,
          [&] { return std::make_unique<LdgmTracker>(code, ge_fallback); });
      if (HasFatalFailure()) return;
    }
  }
}

TEST(TrialOracle, ReplicationMatchesReferenceLoop) {
  for (const std::uint32_t copies : {1u, 2u, 3u}) {
    const auto plan = std::make_shared<const ReplicationPlan>(200, copies);
    expect_matches_reference(
        "replication copies=" + std::to_string(copies), *plan,
        [&] { return std::make_unique<ReplicationTracker>(plan); });
    if (HasFatalFailure()) return;
  }
}

TEST(GridSpec, PaperGridShape) {
  const GridSpec spec = GridSpec::paper();
  EXPECT_EQ(spec.p_values.size(), 14u);
  EXPECT_EQ(spec.q_values.size(), 14u);
  EXPECT_EQ(spec.cell_count(), 196u);
  EXPECT_DOUBLE_EQ(spec.p_values.front(), 0.0);
  EXPECT_DOUBLE_EQ(spec.p_values.back(), 1.0);
  EXPECT_DOUBLE_EQ(spec.p_values[1], 0.01);
}

TEST(GridSpec, Fig7Zoom) {
  const GridSpec spec = GridSpec::fig7();
  EXPECT_EQ(spec.p_values.size(), 6u);
  EXPECT_DOUBLE_EQ(spec.p_values.back(), 0.05);
  EXPECT_EQ(spec.q_values.size(), 14u);
}

TEST(RunGrid, AggregatesAndIndexes) {
  GridSpec spec;
  spec.p_values = {0.0, 0.5};
  spec.q_values = {0.25, 1.0};
  // Fake trial: decodes iff p < 0.5; inefficiency = 1 + q (deterministic).
  const TrialFn fn = [](double p, double q, std::uint64_t) {
    TrialResult r;
    r.n_sent = 100;
    r.n_received = 100;
    if (p < 0.5) {
      r.decoded = true;
      r.n_needed = static_cast<std::uint32_t>(10 * (1.0 + q));
    }
    return r;
  };
  GridRunOptions opt;
  opt.trials_per_cell = 5;
  const GridResult g = run_grid(spec, 10, fn, opt);
  ASSERT_EQ(g.cells.size(), 4u);
  EXPECT_DOUBLE_EQ(g.cell(0, 0).p, 0.0);
  EXPECT_DOUBLE_EQ(g.cell(0, 0).q, 0.25);
  EXPECT_DOUBLE_EQ(g.cell(1, 1).p, 0.5);
  EXPECT_TRUE(g.cell(0, 0).reportable());
  // n_needed = floor(10 * 1.25) = 12 -> inefficiency 1.2.
  EXPECT_NEAR(g.cell(0, 0).inefficiency.mean(), 1.2, 1e-12);
  EXPECT_NEAR(g.cell(0, 1).inefficiency.mean(), 2.0, 1e-12);
  EXPECT_FALSE(g.cell(1, 0).reportable());
  EXPECT_EQ(g.cell(1, 0).failures, 5u);
  EXPECT_EQ(g.cell(1, 0).trials, 5u);
}

TEST(RunGrid, DeterministicAcrossThreadCounts) {
  GridSpec spec;
  spec.p_values = {0.0, 0.1, 0.3};
  spec.q_values = {0.2, 0.6, 1.0};
  // Trial result depends on the seed, so scheduling differences would show.
  const TrialFn fn = [](double, double, std::uint64_t seed) {
    TrialResult r;
    r.decoded = true;
    r.n_needed = 10 + static_cast<std::uint32_t>(seed % 7);
    r.n_received = r.n_needed;
    r.n_sent = 20;
    return r;
  };
  GridRunOptions one;
  one.trials_per_cell = 10;
  one.threads = 1;
  GridRunOptions many = one;
  many.threads = 8;
  const GridResult a = run_grid(spec, 10, fn, one);
  const GridResult b = run_grid(spec, 10, fn, many);
  ASSERT_EQ(a.cells.size(), b.cells.size());
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.cells[i].inefficiency.mean(),
                     b.cells[i].inefficiency.mean());
    EXPECT_EQ(a.cells[i].failures, b.cells[i].failures);
  }
}

TEST(RunGrid, BitIdenticalGridResultAcrossThreadCounts) {
  // The real thing, not a synthetic TrialFn: a full Experiment sweep must
  // produce a bit-identical GridResult with threads=1 and threads=4 on the
  // same master seed — every statistic of every cell, not just the means
  // (the Welford accumulators see trials in the same order either way).
  ExperimentConfig cfg;
  cfg.code = CodeKind::kLdgmStaircase;
  cfg.tx = TxModel::kTx4AllRandom;
  cfg.expansion_ratio = 2.5;
  cfg.k = 200;
  const Experiment experiment(cfg);

  GridSpec spec;
  spec.p_values = {0.0, 0.05, 0.2};
  spec.q_values = {0.3, 0.8};
  GridRunOptions one;
  one.trials_per_cell = 6;
  one.master_seed = 0xfeedbeefULL;
  one.threads = 1;
  GridRunOptions four = one;
  four.threads = 4;

  const GridResult a = experiment.run(spec, one);
  const GridResult b = experiment.run(spec, four);
  ASSERT_EQ(a.cells.size(), b.cells.size());
  ASSERT_EQ(a.k, b.k);
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    const CellResult& x = a.cells[i];
    const CellResult& y = b.cells[i];
    EXPECT_EQ(x.p, y.p);
    EXPECT_EQ(x.q, y.q);
    EXPECT_EQ(x.trials, y.trials);
    EXPECT_EQ(x.failures, y.failures);
    EXPECT_EQ(x.inefficiency.count(), y.inefficiency.count());
    EXPECT_EQ(x.inefficiency.mean(), y.inefficiency.mean());
    EXPECT_EQ(x.inefficiency.variance(), y.inefficiency.variance());
    EXPECT_EQ(x.inefficiency.min(), y.inefficiency.min());
    EXPECT_EQ(x.inefficiency.max(), y.inefficiency.max());
    EXPECT_EQ(x.received_ratio.count(), y.received_ratio.count());
    EXPECT_EQ(x.received_ratio.mean(), y.received_ratio.mean());
    EXPECT_EQ(x.received_ratio.variance(), y.received_ratio.variance());
    EXPECT_EQ(x.received_ratio.min(), y.received_ratio.min());
    EXPECT_EQ(x.received_ratio.max(), y.received_ratio.max());
  }
}

TEST(RunGrid, SeedChangesResults) {
  GridSpec spec;
  spec.p_values = {0.1};
  spec.q_values = {0.5};
  const TrialFn fn = [](double, double, std::uint64_t seed) {
    TrialResult r;
    r.decoded = true;
    r.n_needed = 10 + static_cast<std::uint32_t>(seed % 100);
    r.n_received = r.n_needed;
    r.n_sent = 200;
    return r;
  };
  GridRunOptions a;
  a.trials_per_cell = 20;
  a.master_seed = 1;
  GridRunOptions b = a;
  b.master_seed = 2;
  EXPECT_NE(run_grid(spec, 10, fn, a).cells[0].inefficiency.mean(),
            run_grid(spec, 10, fn, b).cells[0].inefficiency.mean());
}

}  // namespace
}  // namespace fecsched
