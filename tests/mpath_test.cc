// Multipath subsystem (src/mpath/): path clock model, packet-to-path
// schedulers, resequenced replay, the degenerate-config oracle (1 path,
// zero delay == single-path stream_trial, bit for bit), per-path
// adaptation and the mpath sweep's thread-count independence.

#include <algorithm>
#include <cstdint>
#include <span>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "api/scenario.h"
#include "channel/gilbert.h"
#include "channel/trace.h"
#include "mpath/mpath_trial.h"
#include "mpath/path.h"
#include "mpath/path_adapt.h"
#include "mpath/resequencer.h"
#include "mpath/scheduler.h"
#include "sim/mpath_sweep.h"
#include "sim/stream_delay.h"
#include "stream/stream_trial.h"
#include "util/rng.h"

namespace fecsched {
namespace {

// ----------------------------------------------------------------- paths

TEST(PathSpec, Validates) {
  EXPECT_THROW(PathSpec::gilbert(0.1, 0.5, -1.0).validate(),
               std::invalid_argument);
  PathSpec zero_capacity = PathSpec::gilbert(0.1, 0.5, 0.0);
  zero_capacity.capacity = 0.0;
  EXPECT_THROW(zero_capacity.validate(), std::invalid_argument);
  EXPECT_NO_THROW(PathSpec::gilbert(0.0, 1.0, 0.0).validate());
}

TEST(PathSet, RejectsEmpty) {
  EXPECT_THROW(PathSet({}), std::invalid_argument);
}

TEST(PathSet, FifoClockAndDelay) {
  // Capacity 0.5: the path serialises one packet every 2 slots, so
  // back-to-back packets queue.  Delay 10 shifts every arrival.
  PathSet paths({PathSpec::gilbert(0.0, 1.0, 10.0, 0.5)});
  paths.reset(1);
  const Transmission a = paths.transmit(0, 0.0);
  const Transmission b = paths.transmit(0, 1.0);
  const Transmission c = paths.transmit(0, 2.0);
  EXPECT_DOUBLE_EQ(a.departure, 0.0);
  EXPECT_DOUBLE_EQ(a.arrival, 10.0);
  EXPECT_DOUBLE_EQ(b.departure, 2.0);  // queued behind a
  EXPECT_DOUBLE_EQ(b.arrival, 12.0);
  EXPECT_DOUBLE_EQ(c.departure, 4.0);
  EXPECT_FALSE(a.lost);  // p = 0: perfect
  EXPECT_DOUBLE_EQ(paths.earliest_arrival(0, 5.0), 16.0);  // max(5,6)+10
}

TEST(PathSet, BestPathIsLowestDelay) {
  PathSet paths({PathSpec::gilbert(0.0, 1.0, 20.0),
                 PathSpec::gilbert(0.0, 1.0, 5.0),
                 PathSpec::gilbert(0.0, 1.0, 5.0)});
  EXPECT_EQ(paths.best_path(), 1u);  // lowest delay, lowest index on ties
}

TEST(PathSet, ResetRestoresClocksAndChannels) {
  PathSet paths({PathSpec::gilbert(0.3, 0.3, 0.0)});
  paths.reset(42);
  std::vector<bool> first;
  for (int i = 0; i < 50; ++i) first.push_back(paths.transmit(0, i).lost);
  paths.reset(42);
  for (int i = 0; i < 50; ++i)
    EXPECT_EQ(paths.transmit(0, i).lost, first[static_cast<std::size_t>(i)]);
  EXPECT_DOUBLE_EQ(paths.stats()[0].mean_queue_wait, 0.0);
}

// ------------------------------------------------------------ schedulers

TEST(PathScheduler, RoundRobinCycles) {
  PathSet paths({PathSpec::gilbert(0, 1, 0), PathSpec::gilbert(0, 1, 5),
                 PathSpec::gilbert(0, 1, 9)});
  PathScheduler sched(PathScheduling::kRoundRobin, paths);
  for (int i = 0; i < 9; ++i)
    EXPECT_EQ(sched.pick(paths, i, false), static_cast<std::size_t>(i % 3));
}

TEST(PathScheduler, WeightedFollowsCapacities) {
  PathSet paths({PathSpec::gilbert(0, 1, 0, 3.0),
                 PathSpec::gilbert(0, 1, 0, 1.0)});
  PathScheduler sched(PathScheduling::kWeighted, paths);
  int counts[2] = {0, 0};
  for (int i = 0; i < 400; ++i) ++counts[sched.pick(paths, i, false)];
  EXPECT_EQ(counts[0], 300);  // exactly 3:1 under smooth WRR
  EXPECT_EQ(counts[1], 100);
}

TEST(PathScheduler, WeightedRepairBias) {
  PathSet paths({PathSpec::gilbert(0, 1, 0), PathSpec::gilbert(0, 1, 0)});
  PathScheduler sched(PathScheduling::kWeighted, paths, {0.25, 0.75});
  int counts[2] = {0, 0};
  for (int i = 0; i < 400; ++i) ++counts[sched.pick(paths, i, true)];
  EXPECT_EQ(counts[0], 100);
  EXPECT_EQ(counts[1], 300);
  EXPECT_THROW(PathScheduler(PathScheduling::kWeighted, paths, {1.0}),
               std::invalid_argument);
  EXPECT_THROW(PathScheduler(PathScheduling::kWeighted, paths, {0.0, 0.0}),
               std::invalid_argument);
}

TEST(PathScheduler, SplitSendsSourcesOnBestRepairsElsewhere) {
  PathSet paths({PathSpec::gilbert(0, 1, 20), PathSpec::gilbert(0, 1, 2),
                 PathSpec::gilbert(0, 1, 30)});
  PathScheduler sched(PathScheduling::kSplit, paths);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(sched.pick(paths, i, false), 1u);
  std::vector<std::size_t> repair_paths;
  for (int i = 0; i < 4; ++i) repair_paths.push_back(sched.pick(paths, i, true));
  EXPECT_EQ(repair_paths, (std::vector<std::size_t>{0, 2, 0, 2}));
}

TEST(PathScheduler, EarliestArrivalPrefersFastUntilBacklogged) {
  // Fast path capacity 0.5: after it backs up past the 10-slot delay gap,
  // the scheduler spills to the slow path.
  PathSet paths({PathSpec::gilbert(0, 1, 0, 0.5),
                 PathSpec::gilbert(0, 1, 10, 10.0)});
  PathScheduler sched(PathScheduling::kEarliestArrival, paths);
  std::vector<std::size_t> picks;
  for (int i = 0; i < 8; ++i) {
    const std::size_t p = sched.pick(paths, 0.0, false);
    picks.push_back(p);
    (void)paths.transmit(p, 0.0);
  }
  // Arrival times on the fast path from slot 0: 0, 2, 4, ..., vs 10 on the
  // slow path: six fast picks (arrivals 0..10, ties stay on the lower
  // index), then the spill begins.
  EXPECT_EQ(std::count(picks.begin(), picks.end(), 0u), 6);
  EXPECT_EQ(picks[6], 1u);
  EXPECT_EQ(picks[7], 1u);
}

// ----------------------------------------------------------- resequencer

TEST(Resequencer, OrdersByTimePhaseOrder) {
  Resequencer rq;
  rq.reset(1);
  rq.push(0, 2.0, 1, 0, 0, 10);
  rq.push(0, 1.0, 1, 5, 0, 11);
  rq.push(0, 1.0, 0, 9, 1, 12);
  rq.push(0, 1.0, 1, 2, 0, 13);
  const auto& events = rq.drain();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0]->value, 12u);  // phase 0 first at t=1
  EXPECT_EQ(events[1]->value, 13u);  // then order 2
  EXPECT_EQ(events[2]->value, 11u);  // then order 5
  EXPECT_EQ(events[3]->value, 10u);  // t=2 last
}

/// The sort-based drain: every event in (time, phase, order) order.  The
/// oracle for the resequencer's replay order.
std::vector<RxEvent> sorted_drain(std::vector<RxEvent> events) {
  std::sort(events.begin(), events.end(),
            [](const RxEvent& a, const RxEvent& b) {
              return std::tie(a.time, a.phase, a.order) <
                     std::tie(b.time, b.phase, b.order);
            });
  return events;
}

/// Random runs as a multipath trial pushes them: each run in
/// (time, phase, order) order except, in some cases, one run pushed
/// shuffled.  Times sit on a half-slot grid, so equal times within and
/// across runs are common; both phases occur, and every (time, phase,
/// order) key is unique, as the trial's keys are.
TEST(Resequencer, MergeMatchesSortedDrain) {
  Rng rng(0x5e9u);
  Resequencer rq;  // reused: no case may see another's events
  constexpr std::size_t kSizes[] = {0, 1, 2, 5000};
  for (int c = 0; c < 48; ++c) {
    const std::size_t runs = 1 + c % 6;
    std::vector<std::vector<RxEvent>> run(runs);
    std::size_t total = 0;
    for (std::size_t r = 0; r < runs; ++r) {
      const std::size_t n = rng.bernoulli(0.3) ? kSizes[rng.below(4)]
                                               : rng.below(5001);
      double t = static_cast<double>(rng.below(8));
      for (std::size_t i = 0; i < n; ++i) {
        t += 0.5 * static_cast<double>(rng.below(4));
        RxEvent ev;
        ev.time = t;
        ev.phase = static_cast<std::uint32_t>(rng.below(2));
        ev.kind = static_cast<std::uint32_t>(r);
        ev.value = total + i;
        run[r].push_back(ev);
      }
      total += n;
    }
    // Unique orders, then each run in key order.
    std::vector<std::uint64_t> orders(total);
    for (std::size_t i = 0; i < total; ++i) orders[i] = i;
    shuffle(std::span<std::uint64_t>(orders), rng);
    std::size_t next = 0;
    for (std::vector<RxEvent>& events : run) {
      for (RxEvent& ev : events) ev.order = orders[next++];
      events = sorted_drain(std::move(events));
    }
    const bool shuffled = c % 3 == 2;
    if (shuffled)
      shuffle(std::span<RxEvent>(run[rng.below(runs)]), rng);

    rq.reset(runs);
    std::vector<RxEvent> all;
    std::vector<std::size_t> cursor(runs, 0);
    for (std::size_t left = total; left > 0; --left) {
      std::size_t r = rng.below(runs);
      while (cursor[r] == run[r].size()) r = (r + 1) % runs;
      const RxEvent& ev = run[r][cursor[r]++];
      rq.push(r, ev);
      all.push_back(ev);
    }
    ASSERT_EQ(rq.size(), total);
    const std::vector<RxEvent> want = sorted_drain(all);
    std::vector<RxEvent> got;
    for (const RxEvent* ev : rq.drain()) got.push_back(*ev);
    ASSERT_EQ(got.size(), want.size()) << "case " << c;
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(std::tie(got[i].time, got[i].phase, got[i].order,
                         got[i].kind, got[i].value),
                std::tie(want[i].time, want[i].phase, want[i].order,
                         want[i].kind, want[i].value))
          << "case " << c << " (" << runs << " runs"
          << (shuffled ? ", one shuffled" : "") << "), event " << i;
    }
  }
}

// ------------------------------------------------- degenerate-config oracle

/// 1 path, zero delay, unit capacity must reproduce the single-path
/// stream_trial bit for bit: same channel substream, same emission slots,
/// same decode / give-up sequence, same DelayTracker timestamps.
class MpathDegenerateTest
    : public ::testing::TestWithParam<
          std::tuple<StreamScheme, StreamScheduling, PathScheduling>> {};

TEST_P(MpathDegenerateTest, OnePathZeroDelayMatchesStreamTrialBitIdentically) {
  const auto [scheme, scheduling, path_sched] = GetParam();
  const double p = 0.04, q = 0.3;

  StreamTrialConfig base;
  base.scheme = scheme;
  base.scheduling = scheduling;
  base.source_count = 600;
  base.overhead = 0.25;
  base.window = 48;
  base.block_k = 32;

  for (std::uint64_t seed : {1ULL, 77ULL, 2026ULL}) {
    GilbertModel channel(p, q);
    const StreamTrialResult single = run_stream_trial(base, channel, seed);

    MpathTrialConfig cfg;
    cfg.stream = base;
    cfg.paths = {PathSpec::gilbert(p, q, 0.0, 1.0)};
    cfg.scheduler = path_sched;
    const MpathTrialResult multi = run_mpath_trial(cfg, seed);

    ASSERT_EQ(multi.stream.delays.size(), single.delays.size()) << seed;
    for (std::size_t i = 0; i < single.delays.size(); ++i)
      ASSERT_EQ(multi.stream.delays[i], single.delays[i])
          << "seed " << seed << " release " << i;
    EXPECT_EQ(multi.stream.delay.delivered, single.delay.delivered);
    EXPECT_EQ(multi.stream.delay.lost, single.delay.lost);
    EXPECT_EQ(multi.stream.delay.mean, single.delay.mean);
    EXPECT_EQ(multi.stream.delay.p99, single.delay.p99);
    EXPECT_EQ(multi.stream.delay.max, single.delay.max);
    EXPECT_EQ(multi.stream.delay.mean_transport, single.delay.mean_transport);
    EXPECT_EQ(multi.stream.delay.mean_hol, single.delay.mean_hol);
    EXPECT_EQ(multi.stream.residual.lost, single.residual.lost);
    EXPECT_EQ(multi.stream.residual.runs, single.residual.runs);
    EXPECT_EQ(multi.stream.residual.max_run_length,
              single.residual.max_run_length);
    EXPECT_EQ(multi.stream.packets_sent, single.packets_sent);
    EXPECT_EQ(multi.stream.packets_received, single.packets_received);
    EXPECT_EQ(multi.stream.overhead_actual, single.overhead_actual);
    EXPECT_EQ(multi.stream.all_delivered, single.all_delivered);
    EXPECT_EQ(multi.reordered, 0u);  // one FIFO path cannot reorder
  }
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, MpathDegenerateTest,
    ::testing::Values(
        std::make_tuple(StreamScheme::kSlidingWindow,
                        StreamScheduling::kSequential,
                        PathScheduling::kRoundRobin),
        std::make_tuple(StreamScheme::kSlidingWindow,
                        StreamScheduling::kSequential,
                        PathScheduling::kEarliestArrival),
        std::make_tuple(StreamScheme::kReplication,
                        StreamScheduling::kSequential,
                        PathScheduling::kWeighted),
        std::make_tuple(StreamScheme::kBlockRse,
                        StreamScheduling::kSequential,
                        PathScheduling::kRoundRobin),
        std::make_tuple(StreamScheme::kBlockRse,
                        StreamScheduling::kInterleaved,
                        PathScheduling::kSplit),
        std::make_tuple(StreamScheme::kLdgm, StreamScheduling::kSequential,
                        PathScheduling::kRoundRobin)));

// ------------------------------------------------------------ mpath trial

TEST(MpathTrial, ValidatesConfig) {
  MpathTrialConfig cfg;
  cfg.stream.source_count = 100;
  EXPECT_THROW(run_mpath_trial(cfg, 1), std::invalid_argument);  // no paths
  cfg.paths = {PathSpec::gilbert(0.0, 1.0, 0.0)};
  cfg.stream.scheduling = StreamScheduling::kCarousel;
  cfg.stream.scheme = StreamScheme::kBlockRse;
  EXPECT_THROW(run_mpath_trial(cfg, 1), std::invalid_argument);  // carousel
  cfg.stream.scheduling = StreamScheduling::kSequential;
  cfg.repair_weights = {0.5};  // wrong arity for 1 path? (1 entry, 1 path: ok)
  EXPECT_NO_THROW((void)run_mpath_trial(cfg, 1));
  cfg.paths.push_back(PathSpec::gilbert(0.0, 1.0, 1.0));
  EXPECT_THROW(run_mpath_trial(cfg, 1), std::invalid_argument);  // arity
}

TEST(MpathTrial, PerfectPathsDeliverEverything) {
  MpathTrialConfig cfg;
  cfg.stream.scheme = StreamScheme::kSlidingWindow;
  cfg.stream.source_count = 400;
  cfg.stream.overhead = 0.25;
  cfg.stream.window = 32;
  cfg.paths = {PathSpec::gilbert(0.0, 1.0, 0.0),
               PathSpec::gilbert(0.0, 1.0, 15.0)};
  cfg.scheduler = PathScheduling::kRoundRobin;
  const MpathTrialResult r = run_mpath_trial(cfg, 9);
  EXPECT_TRUE(r.stream.all_delivered);
  EXPECT_EQ(r.stream.residual.lost, 0u);
  EXPECT_EQ(r.stream.packets_received, r.stream.packets_sent);
  // Round-robin over a 15-slot delay gap reorders roughly every other
  // packet and the receiver's in-order release pays the gap in HOL wait.
  EXPECT_GT(r.reordered, 0u);
  EXPECT_GT(r.stream.delay.mean_hol, 5.0);
  ASSERT_EQ(r.paths.size(), 2u);
  EXPECT_EQ(r.paths[0].sent + r.paths[1].sent, r.stream.packets_sent);
}

TEST(MpathTrial, EarliestArrivalBeatsRoundRobinOnAsymmetricDelays) {
  // The Kurant observation at trial granularity: with a 40-slot delay gap
  // and uncongested paths, delay-aware mapping achieves a far lower mean
  // in-order delay than naive alternation, at identical overhead.
  const ChannelPoint pt = gilbert_point(0.02, 2.0);
  MpathTrialConfig cfg;
  cfg.stream.scheme = StreamScheme::kSlidingWindow;
  cfg.stream.source_count = 1500;
  cfg.stream.overhead = 0.25;
  cfg.stream.window = 64;
  cfg.paths = {PathSpec::gilbert(pt.p, pt.q, 5.0),
               PathSpec::gilbert(pt.p, pt.q, 45.0)};
  for (std::uint64_t seed : {3ULL, 14ULL, 159ULL}) {
    cfg.scheduler = PathScheduling::kRoundRobin;
    const MpathTrialResult rr = run_mpath_trial(cfg, seed);
    cfg.scheduler = PathScheduling::kEarliestArrival;
    const MpathTrialResult ea = run_mpath_trial(cfg, seed);
    EXPECT_LT(ea.stream.delay.mean, rr.stream.delay.mean) << seed;
    EXPECT_LE(ea.reordered_fraction, rr.reordered_fraction) << seed;
    EXPECT_EQ(ea.stream.packets_sent, rr.stream.packets_sent);  // matched
  }
}

TEST(MpathTrial, LateSlowPathRepairStillRecoversEarlySource) {
  // Give-up must never fire while a repair that covers a source is still
  // in flight on a slow path, even though later sources' own windows
  // close much earlier (effective deadlines are the running prefix max).
  // Construction: all sources ride a fast path that erases exactly one
  // source; all repairs ride a perfect 60-slot path.  Repair R0 (interval
  // 4) departs at emission slot 4 and lands at 64.  At W = 8 it covers
  // sources 0..3 and the erased source 0 must wait for it.  At W = 1 it
  // covers source 3 alone, so no earlier source's deadline carries R0's
  // arrival into the prefix max: source 3's own deadline must.
  struct Case {
    std::uint32_t window;
    std::size_t erased;
    double max_delay;  // R0's arrival, 64, minus the erased source
  };
  for (const Case c : {Case{8, 0, 64.0}, Case{1, 3, 61.0}}) {
    MpathTrialConfig cfg;
    cfg.stream.scheme = StreamScheme::kSlidingWindow;
    cfg.stream.source_count = 40;
    cfg.stream.overhead = 0.25;  // interval 4
    cfg.stream.window = c.window;
    PathSpec fast;
    fast.label = "fast";
    fast.delay = 0.0;
    fast.capacity = 1000.0;  // sources: smooth WRR sends ~all of them here
    fast.make_channel = [erased = c.erased] {
      std::vector<bool> events(200, false);
      events[erased] = true;  // exactly that fast-path packet (a source)
      return std::make_unique<TraceModel>(events, /*random_rotation=*/false);
    };
    PathSpec slow;
    slow.label = "slow";
    slow.delay = 60.0;
    slow.capacity = 1.0;  // perfect channel (no factory)
    cfg.paths = {fast, slow};
    cfg.scheduler = PathScheduling::kWeighted;
    cfg.repair_weights = {0.0, 1.0};  // every repair on the slow path

    const MpathTrialResult r = run_mpath_trial(cfg, 7);
    EXPECT_EQ(r.stream.residual.lost, 0u)
        << "W=" << c.window << ": source " << c.erased
        << " was given up before its slow-path repair arrived";
    EXPECT_TRUE(r.stream.all_delivered) << "W=" << c.window;
    // The erased source's in-order release happens when R0 lands.
    EXPECT_DOUBLE_EQ(r.stream.delay.max, c.max_delay) << "W=" << c.window;
    EXPECT_EQ(r.paths[1].lost, 0u) << "W=" << c.window;
  }
}

TEST(MpathTrial, CapacityCongestionRaisesDelay) {
  MpathTrialConfig cfg;
  cfg.stream.scheme = StreamScheme::kSlidingWindow;
  cfg.stream.source_count = 500;
  cfg.stream.overhead = 0.25;
  cfg.stream.window = 32;
  cfg.scheduler = PathScheduling::kRoundRobin;
  cfg.paths = {PathSpec::gilbert(0.0, 1.0, 0.0, 1.0),
               PathSpec::gilbert(0.0, 1.0, 0.0, 1.0)};
  const double uncongested = run_mpath_trial(cfg, 5).stream.delay.mean;
  cfg.paths = {PathSpec::gilbert(0.0, 1.0, 0.0, 0.3),
               PathSpec::gilbert(0.0, 1.0, 0.0, 0.3)};
  const MpathTrialResult congested = run_mpath_trial(cfg, 5);
  // Aggregate capacity 0.6 < the 1.25 packets/slot the sender produces:
  // queues build and the mean queue wait dominates the delay.
  EXPECT_GT(congested.stream.delay.mean, uncongested + 50.0);
  EXPECT_GT(congested.paths[0].mean_queue_wait, 50.0);
}

// ------------------------------------------------------------ path adapt

TEST(PathAdapter, ValidatesAndConverges) {
  EXPECT_THROW(PathAdapter(0), std::invalid_argument);
  PathAdapterConfig bad;
  bad.min_weight = 0.9;
  EXPECT_THROW(PathAdapter(2, bad), std::invalid_argument);

  // Two paths with very different loss: estimators must separate them.
  MpathTrialConfig cfg;
  cfg.stream.scheme = StreamScheme::kSlidingWindow;
  cfg.stream.source_count = 2000;
  cfg.stream.overhead = 0.25;
  cfg.stream.window = 64;
  cfg.scheduler = PathScheduling::kRoundRobin;
  cfg.paths = {PathSpec::gilbert(0.01, 0.5, 0.0),    // p_global ~ 0.02
               PathSpec::gilbert(0.08, 0.2, 10.0)};  // p_global ~ 0.286
  PathAdapter adapter(2);
  for (std::uint64_t t = 0; t < 10; ++t)
    adapter.observe(run_mpath_trial(cfg, 1000 + t));

  const ChannelEstimate clean = adapter.estimate(0);
  const ChannelEstimate lossy = adapter.estimate(1);
  EXPECT_NEAR(clean.p_global, 0.02, 0.01);
  EXPECT_NEAR(lossy.p_global, 0.286, 0.05);
  EXPECT_TRUE(lossy.bursty);  // mean burst 5 on path 1
  EXPECT_NEAR(lossy.mean_burst, 5.0, 1.5);

  // Aggregate: round-robin traffic -> roughly the midpoint loss rate.
  const ChannelEstimate agg = adapter.aggregate();
  EXPECT_NEAR(agg.p_global, (clean.p_global + lossy.p_global) / 2.0, 0.02);
  EXPECT_GE(agg.mean_burst, 1.0);

  // Repair budget flows to the surviving capacity.
  const std::vector<double> weights = adapter.allocate_overhead(cfg.paths);
  ASSERT_EQ(weights.size(), 2u);
  EXPECT_NEAR(weights[0] + weights[1], 1.0, 1e-12);
  EXPECT_GT(weights[0], weights[1]);

  // apply() wires weights + a window recommendation into the config.
  AdaptiveController controller;
  MpathTrialConfig tuned = cfg;
  adapter.apply(tuned, controller);
  ASSERT_EQ(tuned.repair_weights.size(), 2u);
  EXPECT_GT(tuned.repair_weights[0], tuned.repair_weights[1]);
  EXPECT_GE(tuned.stream.window, 1u);
  EXPECT_NO_THROW(tuned.validate());
}

TEST(PathAdapter, MinWeightFloorsDeadPaths) {
  PathAdapterConfig pac;
  pac.min_weight = 0.1;
  PathAdapter adapter(2, pac);
  // Path 1 looks completely dead.
  LossReport clean, dead;
  clean.ok_to_ok = 5000;
  clean.has_events = true;
  dead.loss_to_loss = 5000;
  dead.first_lost = true;
  dead.has_events = true;
  for (int i = 0; i < 5; ++i) {
    adapter.observe_report(0, clean);
    adapter.observe_report(1, dead);
  }
  const std::vector<PathSpec> paths = {PathSpec::gilbert(0, 1, 0),
                                       PathSpec::gilbert(0, 1, 0)};
  const std::vector<double> weights = adapter.allocate_overhead(paths);
  EXPECT_GE(weights[1], 0.09);  // floored, not starved
  EXPECT_GT(weights[0], weights[1]);
}

// ------------------------------------------------------------- the sweep

TEST(MpathSweep, AggregatesAndIsThreadCountIndependent) {
  api::ScenarioSpec spec;
  spec.engine = "mpath";
  spec.code.name = "sliding-window";
  spec.code.window = 32;
  spec.run.sources = 300;
  spec.run.trials = 4;
  spec.run.seed = 99;
  spec.sweep.p_globals = {0.02, 0.05};
  spec.sweep.bursts = {2.0, 5.0};
  spec.sweep.delay_spreads = {0.0, 30.0};
  spec.sweep.overheads = {0.25};

  spec.run.threads = 1;
  const MpathSweepResult serial = *api::run_scenario_sweep(spec).mpath;
  spec.run.threads = 4;
  const MpathSweepResult parallel = *api::run_scenario_sweep(spec).mpath;

  const std::vector<MpathVariant> variants =
      MpathSweepConfig::default_variants();
  ASSERT_EQ(serial.stats.size(), 4u * 2u * variants.size() * 1u);
  for (std::size_t i = 0; i < serial.stats.size(); ++i) {
    EXPECT_EQ(serial.stats[i].stream.mean_delay.mean(),
              parallel.stats[i].stream.mean_delay.mean());
    EXPECT_EQ(serial.stats[i].reordered_fraction.mean(),
              parallel.stats[i].reordered_fraction.mean());
    EXPECT_EQ(serial.stats[i].stream.trials, 4u);
  }

  // Zero spread: both schedulers see symmetric paths, so neither can be
  // much worse; at spread 30 the delay-aware mapping must win clearly.
  ASSERT_EQ(variants[0].scheduler, PathScheduling::kRoundRobin);
  ASSERT_EQ(variants[3].scheduler, PathScheduling::kEarliestArrival);
  for (std::size_t c = 0; c < serial.points.size(); ++c) {
    const double rr = serial.at(c, 1, 0, 0).stream.mean_delay.mean();
    const double ea = serial.at(c, 1, 3, 0).stream.mean_delay.mean();
    EXPECT_LT(ea, rr) << "point " << c;
  }
}

// A spec cannot leave the overhead or spread axis empty (an empty list
// runs code.overhead or spread 40), but it can ask for no paths.
TEST(MpathSweep, ValidatesConfig) {
  api::ScenarioSpec spec;
  spec.engine = "mpath";
  spec.run.sources = 100;
  spec.sweep.p_globals = {0.02};
  spec.sweep.bursts = {2.0};
  spec.sweep.delay_spreads = {10.0};
  spec.paths.count = 0;
  EXPECT_THROW((void)api::run_scenario_sweep(spec), std::invalid_argument);
}

}  // namespace
}  // namespace fecsched
