// Multi-receiver broadcast simulation and the decoder working-memory
// metric (the paper's future-work "maximum memory requirements").

#include <gtest/gtest.h>

#include "channel/loss_model.h"
#include "fec/replication.h"
#include "sim/broadcast.h"
#include "sim/tracker.h"
#include "sim/trial.h"

namespace fecsched {
namespace {

ExperimentConfig base(CodeKind code, double ratio, std::uint32_t k) {
  ExperimentConfig cfg;
  cfg.code = code;
  cfg.tx = TxModel::kTx4AllRandom;
  cfg.expansion_ratio = ratio;
  cfg.k = k;
  cfg.graph_count = 1;
  return cfg;
}

// ------------------------------------------------------------ broadcast

TEST(Broadcast, AllReceiversDecodeOnGoodChannels) {
  const Experiment e(base(CodeKind::kLdgmTriangle, 1.5, 2000));
  const std::vector<ReceiverProfile> rx = {
      {"perfect", 0.0, 1.0}, {"light", 0.01, 0.8}, {"medium", 0.05, 0.6}};
  const BroadcastResult res = run_broadcast(e, rx);
  ASSERT_EQ(res.receivers.size(), 3u);
  EXPECT_TRUE(res.all_decoded());
  for (const auto& out : res.receivers) {
    EXPECT_TRUE(out.decoded) << out.label;
    EXPECT_GE(out.inefficiency, 1.0);
    EXPECT_GT(out.completion_cycles, 0.0);
  }
  // The perfect receiver needs the fewest packets.
  EXPECT_LE(res.receivers[0].n_needed, res.receivers[1].n_needed);
  EXPECT_EQ(res.failures, 0u);
  EXPECT_GT(res.inefficiency.mean(), 1.0);
}

TEST(Broadcast, CarouselRescuesDeepLossReceivers) {
  // A 40% loss receiver cannot decode a single ratio-1.5 pass, but the
  // carousel's repetitions eventually get it there.
  const Experiment e(base(CodeKind::kLdgmTriangle, 1.5, 2000));
  const std::vector<ReceiverProfile> rx = {{"hostile", 0.40, 0.60}};
  BroadcastOptions opt;
  opt.max_cycles = 20.0;
  const BroadcastResult res = run_broadcast(e, rx, opt);
  ASSERT_TRUE(res.all_decoded());
  EXPECT_GT(res.receivers[0].completion_cycles, 1.0);
}

TEST(Broadcast, CapStopsHopelessRuns) {
  // p_global = 1 (q = 0 absorbing from a loss start... not guaranteed;
  // use p=1,q=0: every packet after the first transition is lost).
  const Experiment e(base(CodeKind::kLdgmStaircase, 1.5, 500));
  const std::vector<ReceiverProfile> rx = {{"dead", 1.0, 0.0}};
  BroadcastOptions opt;
  opt.max_cycles = 3.0;
  const BroadcastResult res = run_broadcast(e, rx, opt);
  EXPECT_FALSE(res.all_decoded());
  EXPECT_EQ(res.failures, 1u);
  EXPECT_LE(res.cycles_used, 3.0 + 1e-9);
}

TEST(Broadcast, DeterministicPerSeed) {
  const Experiment e(base(CodeKind::kLdgmStaircase, 2.5, 1000));
  const std::vector<ReceiverProfile> rx = {{"a", 0.05, 0.5}, {"b", 0.1, 0.5}};
  BroadcastOptions opt;
  opt.seed = 7;
  const BroadcastResult r1 = run_broadcast(e, rx, opt);
  const BroadcastResult r2 = run_broadcast(e, rx, opt);
  ASSERT_EQ(r1.receivers.size(), r2.receivers.size());
  for (std::size_t i = 0; i < r1.receivers.size(); ++i)
    EXPECT_EQ(r1.receivers[i].n_needed, r2.receivers[i].n_needed);
  opt.seed = 8;
  const BroadcastResult r3 = run_broadcast(e, rx, opt);
  EXPECT_NE(r1.receivers[0].n_needed, r3.receivers[0].n_needed);
}

TEST(Broadcast, SharedScheduleDifferentChannels) {
  // Receivers behind identical channels but different seeds should see
  // different loss realisations yet comparable costs.
  const Experiment e(base(CodeKind::kLdgmTriangle, 2.5, 2000));
  std::vector<ReceiverProfile> rx;
  for (char i = '0'; i < '8'; ++i) rx.push_back({{'r', i}, 0.1, 0.9});
  const BroadcastResult res = run_broadcast(e, rx);
  ASSERT_TRUE(res.all_decoded());
  EXPECT_GT(res.inefficiency.stddev(), 0.0);
  EXPECT_LT(res.inefficiency.stddev(), 0.05);
}

// --------------------------------------------------------------- memory

TEST(MemoryMetric, LdgmWorkingSetIsConstantRows) {
  const Experiment e(base(CodeKind::kLdgmStaircase, 2.5, 1000));
  const auto tracker = e.new_tracker(1);
  EXPECT_EQ(tracker->working_memory_symbols(), 1500u);  // n-k
  tracker->on_packet(0);
  tracker->on_packet(1000);
  EXPECT_EQ(tracker->working_memory_symbols(), 1500u);  // unchanged
}

TEST(MemoryMetric, RseBuffersGrowAndShrinkPerBlock) {
  auto plan = std::make_shared<const RsePlan>(300, 2.0);  // blocks of ~127
  RseTracker tracker(plan);
  EXPECT_EQ(tracker.working_memory_symbols(), 0u);
  const BlockInfo& b0 = plan->block(0);
  // Feed k-1 packets of block 0: buffer grows one by one.
  for (std::uint32_t j = 0; j + 1 < b0.k; ++j) {
    tracker.on_packet(plan->packet_id(0, j));
    EXPECT_EQ(tracker.working_memory_symbols(), j + 1);
  }
  // The k-th packet solves the block: buffer drains.
  tracker.on_packet(plan->packet_id(0, b0.k - 1));
  EXPECT_EQ(tracker.working_memory_symbols(), 0u);
  // Further packets of the solved block don't re-buffer.
  tracker.on_packet(plan->packet_id(0, b0.k));
  EXPECT_EQ(tracker.working_memory_symbols(), 0u);
}

TEST(MemoryMetric, ReplicationNeedsNoWorkingMemory) {
  auto plan = std::make_shared<const ReplicationPlan>(50, 2);
  ReplicationTracker tracker(plan);
  tracker.on_packet(0);
  EXPECT_EQ(tracker.working_memory_symbols(), 0u);
}

TEST(MemoryMetric, TrialRecordsPeak) {
  const Experiment e(base(CodeKind::kRse, 2.0, 1000));
  const TrialResult r = e.run_once(0.0, 1.0, 3);
  ASSERT_TRUE(r.decoded);
  EXPECT_GT(r.peak_memory_symbols, 0u);
  // Sequential per-block delivery: the peak is one block's fill minus the
  // drain, far below k.
  EXPECT_LT(r.peak_memory_symbols, 1000u);

  const Experiment ldgm(base(CodeKind::kLdgmStaircase, 2.0, 1000));
  const TrialResult rl = ldgm.run_once(0.0, 1.0, 3);
  EXPECT_EQ(rl.peak_memory_symbols, 1000u);  // n-k accumulators
}

// --------------------------------------------------- Experiment factories

TEST(ExperimentFactories, TrackerAndScheduleMatchRunOnce) {
  const Experiment e(base(CodeKind::kLdgmTriangle, 2.5, 500));
  const std::uint64_t seed = 77;
  const auto schedule = e.new_schedule(seed);
  const auto tracker = e.new_tracker(seed);
  PerfectChannel perfect;
  const TrialResult manual = run_trial(*tracker, schedule, perfect);
  const TrialResult direct = e.run_once(0.0, 1.0, seed);
  EXPECT_EQ(manual.n_needed, direct.n_needed);
  EXPECT_EQ(manual.n_received, direct.n_received);
}

}  // namespace
}  // namespace fecsched
