// Golden outputs of the stream, mpath, net and observed grid trials.
//
// Every other oracle compares one engine with another (mpath's 1-path
// case with the stream trial, net with its simulation twin, observed
// with plain runs).  This table pins each engine in absolute terms: one
// small trial per case, with every result field and the traced event
// sequence (kind, slot, id, repair, path, ok, delay) plus the trial's
// metrics folded into one FNV-1a hash.  A change to a scheduling rule, a
// give-up line, a receiver decision or the order of trace events moves a
// hash; a change that keeps all of them is invisible here by design.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "channel/gilbert.h"
#include "mpath/mpath_trial.h"
#include "net/net_trial.h"
#include "obs/obs.h"
#include "sim/experiment.h"
#include "stream/stream_trial.h"

namespace fecsched {
namespace {

class Hash {
 public:
  template <typename T>
    requires std::is_arithmetic_v<T>
  void add(T v) {
    unsigned char bytes[sizeof v];
    std::memcpy(bytes, &v, sizeof v);
    for (unsigned char b : bytes) h_ = (h_ ^ b) * 0x100000001b3ULL;
  }
  void add(std::string_view s) {
    add(static_cast<std::uint64_t>(s.size()));
    for (char c : s) add(c);
  }
  void add(std::span<const double> values) {
    add(static_cast<std::uint64_t>(values.size()));
    for (double v : values) add(v);
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

void add_result(Hash& h, const StreamTrialResult& r) {
  const DelaySummary& d = r.delay;
  for (const double v : {d.mean, d.p50, d.p95, d.p99, d.max, d.mean_transport,
                         d.mean_hol})
    h.add(v);
  h.add(d.delivered);
  h.add(d.lost);
  h.add(r.residual.lost);
  h.add(r.residual.runs);
  h.add(r.residual.max_run_length);
  h.add(r.residual.mean_run_length);
  h.add(std::span<const double>(r.delays));
  h.add(r.packets_sent);
  h.add(r.packets_received);
  h.add(r.overhead_actual);
  h.add(r.all_delivered);
}

/// The trace events and metrics of one observed trial.
void add_report(Hash& h, const obs::Report& report) {
  h.add(static_cast<std::uint64_t>(report.events.size()));
  for (const obs::TraceEvent& ev : report.events) {
    h.add(static_cast<int>(ev.kind));
    h.add(ev.slot);
    h.add(ev.id);
    h.add(ev.repair);
    h.add(ev.path);
    h.add(ev.ok);
    h.add(ev.delay);
  }
  for (const auto& [name, v] : report.metrics.counters) {
    h.add(name);
    h.add(v);
  }
  for (const auto& [name, v] : report.metrics.gauges) {
    h.add(name);
    h.add(v);
  }
  for (const obs::MetricsSnapshot::Hist& hist : report.metrics.histograms) {
    h.add(hist.name);
    for (std::uint64_t c : hist.counts) h.add(c);
  }
}

/// Runs `trial` as trial 0 of a traced, metered session and folds what it
/// returns (through `add`) and what the session saw into one hash.
template <typename Trial, typename Add>
std::uint64_t golden(Trial&& trial, Add&& add) {
  obs::Session session(obs::Config{.metrics = true, .trace = true});
  Hash h;
  {
    const obs::TrialScope scope(0);
    add(h, trial());
  }
  add_report(h, session.finish());
  return h.value();
}

struct Case {
  const char* name;
  std::uint64_t want;
};

/// Prints the table row a failing case needs, so re-pinning after an
/// intended output change is a copy, not a hunt.
void check(const Case& c, std::uint64_t got) {
  EXPECT_EQ(got, c.want) << c.name;
  if (got != c.want)
    std::printf("      {\"%s\", 0x%016llxULL},\n", c.name,
                static_cast<unsigned long long>(got));
}

StreamTrialConfig small_stream(StreamScheme scheme, StreamScheduling sched) {
  StreamTrialConfig cfg;
  cfg.scheme = scheme;
  cfg.scheduling = sched;
  cfg.source_count = 300;
  cfg.overhead = 0.25;
  cfg.window = 24;
  cfg.block_k = 32;
  cfg.max_cycles = 3;
  return cfg;
}

constexpr StreamScheme kSchemes[] = {
    StreamScheme::kSlidingWindow, StreamScheme::kReplication,
    StreamScheme::kBlockRse, StreamScheme::kLdgm};

/// Sliding windows beside the default 24: the narrowest; one narrower than
/// the repair interval (4), so no repair covers some sources; one wider
/// than 64 sources; and one as wide as the whole 300-source stream.
constexpr std::uint32_t kWindows[] = {1, 3, 65, 300};

TEST(TransmissionGolden, StreamTrials) {
  const Case cases[] = {
      {"sliding-window", 0xc4c15e9c2961e5c1ULL},
      {"replication", 0x903f06a88aec0a23ULL},
      {"block-rse/sequential", 0x3e6b630d58f222a3ULL},
      {"block-rse/interleaved", 0xce39d7400c99d4d3ULL},
      {"block-rse/carousel", 0xaf6a68a661db956aULL},
      {"ldgm/sequential", 0xd954223be6980635ULL},
      {"ldgm/interleaved", 0xa842fcc814a86ccbULL},
      {"ldgm/carousel", 0xad9f668a5a7f2320ULL},
      {"sliding-window/W1", 0x94a2f464a9b79fe2ULL},
      {"sliding-window/W3", 0x6cfbc5bada78d238ULL},
      {"sliding-window/W65", 0xc747410e2aecd399ULL},
      {"sliding-window/W300", 0x7faa66fe4d6ea9d5ULL},
  };
  std::vector<StreamTrialConfig> configs = {
      small_stream(StreamScheme::kSlidingWindow, StreamScheduling::kSequential),
      small_stream(StreamScheme::kReplication, StreamScheduling::kSequential)};
  for (const StreamScheme scheme :
       {StreamScheme::kBlockRse, StreamScheme::kLdgm})
    for (const StreamScheduling sched :
         {StreamScheduling::kSequential, StreamScheduling::kInterleaved,
          StreamScheduling::kCarousel})
      configs.push_back(small_stream(scheme, sched));
  for (const std::uint32_t window : kWindows) {
    configs.push_back(small_stream(StreamScheme::kSlidingWindow,
                                   StreamScheduling::kSequential));
    configs.back().window = window;
  }
  ASSERT_EQ(configs.size(), std::size(cases));
  for (std::size_t i = 0; i < configs.size(); ++i) {
    GilbertModel channel(0.05, 0.3);
    const auto trial = [&] {
      return run_stream_trial(configs[i], channel, 40 + i);
    };
    check(cases[i], golden(trial, add_result));
  }
}

TEST(TransmissionGolden, MpathTrials) {
  const Case cases[] = {
      {"round-robin/sliding-window/sequential", 0x19746713ce9e2819ULL},
      {"round-robin/sliding-window/interleaved", 0xb4659f4119310d21ULL},
      {"round-robin/replication/sequential", 0x46b7647e29d80cb2ULL},
      {"round-robin/replication/interleaved", 0xb5c6cc421b73a299ULL},
      {"round-robin/block-rse/sequential", 0x7432f297cb1ebcdfULL},
      {"round-robin/block-rse/interleaved", 0x0c6f8b7f0e3a858fULL},
      {"round-robin/ldgm/sequential", 0xd6c361fb3f8b6f43ULL},
      {"round-robin/ldgm/interleaved", 0xa074305d2c86d151ULL},
      {"earliest-arrival/sliding-window/sequential", 0x25f6786144f7af80ULL},
      {"earliest-arrival/sliding-window/interleaved", 0x0862e9489dcbe227ULL},
      {"earliest-arrival/replication/sequential", 0xec79ca148e2adcf6ULL},
      {"earliest-arrival/replication/interleaved", 0xa2a6e95813aa7469ULL},
      {"earliest-arrival/block-rse/sequential", 0x12f27a8943f2a27bULL},
      {"earliest-arrival/block-rse/interleaved", 0x35ae617e6d83eda6ULL},
      {"earliest-arrival/ldgm/sequential", 0xac1b0fa94d301f39ULL},
      {"earliest-arrival/ldgm/interleaved", 0x230798537b3ed25eULL},
      {"weighted/3-path/sliding-window/sequential", 0xb7a467f7bbd057a8ULL},
      {"weighted/3-path/sliding-window/interleaved", 0x3b9450d41e14d155ULL},
      {"weighted/3-path/replication/sequential", 0xe1354eb9fa90db7eULL},
      {"weighted/3-path/replication/interleaved", 0x7e18def28431587eULL},
      {"weighted/3-path/block-rse/sequential", 0x504398192cec6915ULL},
      {"weighted/3-path/block-rse/interleaved", 0x614eb4fdbe4f554aULL},
      {"weighted/3-path/ldgm/sequential", 0x8272bc163faf61a5ULL},
      {"weighted/3-path/ldgm/interleaved", 0xf739a376fd3dd8b8ULL},
      {"split/3-path/sliding-window/sequential", 0x706a056c4a12e010ULL},
      {"split/3-path/sliding-window/interleaved", 0xcae91c42a5ffc6deULL},
      {"split/3-path/replication/sequential", 0x899807d5428f982fULL},
      {"split/3-path/replication/interleaved", 0x0b488bc82a85c7fcULL},
      {"split/3-path/block-rse/sequential", 0xb7df6334835f5ad6ULL},
      {"split/3-path/block-rse/interleaved", 0x527ad74fb5ea106aULL},
      {"split/3-path/ldgm/sequential", 0xb1f3214d00d99b0aULL},
      {"split/3-path/ldgm/interleaved", 0xf27c38002292703dULL},
      {"earliest-arrival/3-path/sliding-window/sequential", 0x452e4d5d442cca9cULL},
      {"earliest-arrival/3-path/sliding-window/interleaved", 0x1b0fdc6aee138c62ULL},
      {"earliest-arrival/3-path/replication/sequential", 0x1f24ed7fac0d698eULL},
      {"earliest-arrival/3-path/replication/interleaved", 0x6279c18f2771f36fULL},
      {"earliest-arrival/3-path/block-rse/sequential", 0x767567fe21083f65ULL},
      {"earliest-arrival/3-path/block-rse/interleaved", 0xb2f712ef007698c6ULL},
      {"earliest-arrival/3-path/ldgm/sequential", 0xbecc29e5bc0cc242ULL},
      {"earliest-arrival/3-path/ldgm/interleaved", 0x679c17a42920486eULL},
      {"earliest-arrival/sliding-window/W1", 0x78d5ce757023b4adULL},
      {"earliest-arrival/sliding-window/W3", 0x18d28393fc3e20fbULL},
      {"earliest-arrival/sliding-window/W65", 0x34ee5b985b7fafbbULL},
      {"earliest-arrival/sliding-window/W300", 0x229fa2231cdc24f2ULL},
      {"earliest-arrival/3-path/sliding-window/W1", 0xade9bc2d0a012ec2ULL},
      {"earliest-arrival/3-path/sliding-window/W3", 0xb70720677c6d7fccULL},
      {"earliest-arrival/3-path/sliding-window/W65", 0x18fe6ba4ff1af147ULL},
      {"earliest-arrival/3-path/sliding-window/W300", 0x718b2f1e75a0fbd7ULL},
  };
  // Two unqueued paths, and three paths whose fastest one carries half a
  // packet per slot, so its departures queue behind each other.
  const std::vector<PathSpec> two = {PathSpec::gilbert(0.05, 0.3, 5.0, 1.0),
                                     PathSpec::gilbert(0.05, 0.3, 45.0, 1.0)};
  const std::vector<PathSpec> three = {
      PathSpec::gilbert(0.05, 0.3, 5.0, 0.5),
      PathSpec::gilbert(0.05, 0.3, 20.0, 1.0),
      PathSpec::gilbert(0.05, 0.3, 45.0, 1.0)};
  const std::pair<PathScheduling, const std::vector<PathSpec>*> setups[] = {
      {PathScheduling::kRoundRobin, &two},
      {PathScheduling::kEarliestArrival, &two},
      {PathScheduling::kWeighted, &three},
      {PathScheduling::kSplit, &three},
      {PathScheduling::kEarliestArrival, &three}};
  const auto add = [](Hash& h, const MpathTrialResult& r) {
    add_result(h, r.stream);
    for (const PathStats& p : r.paths) {
      h.add(p.label);
      h.add(p.sent);
      h.add(p.lost);
      h.add(p.mean_queue_wait);
      h.add(p.mean_transit);
    }
    for (const LossReport& rep : r.path_reports) {
      h.add(rep.ok_to_ok);
      h.add(rep.ok_to_loss);
      h.add(rep.loss_to_ok);
      h.add(rep.loss_to_loss);
      h.add(rep.first_lost);
      h.add(rep.has_events);
    }
    h.add(r.reordered);
    h.add(r.reordered_fraction);
  };
  std::size_t i = 0;
  const auto run = [&](const MpathTrialConfig& cfg) {
    ASSERT_LT(i, std::size(cases));
    check(cases[i], golden([&] { return run_mpath_trial(cfg, 60 + i); }, add));
    ++i;
  };
  for (const auto& [scheduler, paths] : setups)
    for (const StreamScheme scheme : kSchemes)
      for (const StreamScheduling sched :
           {StreamScheduling::kSequential, StreamScheduling::kInterleaved}) {
        MpathTrialConfig cfg;
        cfg.stream = small_stream(scheme, sched);
        cfg.paths = *paths;
        cfg.scheduler = scheduler;
        run(cfg);
      }
  // The sliding window at other widths, over both earliest-arrival sets.
  for (const std::vector<PathSpec>* paths : {&two, &three})
    for (const std::uint32_t window : kWindows) {
      MpathTrialConfig cfg;
      cfg.stream = small_stream(StreamScheme::kSlidingWindow,
                                StreamScheduling::kSequential);
      cfg.stream.window = window;
      cfg.paths = *paths;
      cfg.scheduler = PathScheduling::kEarliestArrival;
      run(cfg);
    }
  EXPECT_EQ(i, std::size(cases));
}

TEST(TransmissionGolden, NetTrials) {
  const Case cases[] = {
      {"sliding-window", 0x42107030cf4aa51fULL},
      {"replication", 0x7c8277af0ebf6e15ULL},
      {"block-rse/sequential", 0x0d4bdf5536553354ULL},
      {"block-rse/interleaved", 0x6b3987141c7dab6dULL},
      {"block-rse/carousel", 0x6cb4ee3956859c3bULL},
      {"ldgm/sequential", 0x94bf1c7621c4fed3ULL},
      {"ldgm/interleaved", 0x535e590e1c7ec55bULL},
  };
  const std::pair<StreamScheme, StreamScheduling> configs[] = {
      {StreamScheme::kSlidingWindow, StreamScheduling::kSequential},
      {StreamScheme::kReplication, StreamScheduling::kSequential},
      {StreamScheme::kBlockRse, StreamScheduling::kSequential},
      {StreamScheme::kBlockRse, StreamScheduling::kInterleaved},
      {StreamScheme::kBlockRse, StreamScheduling::kCarousel},
      {StreamScheme::kLdgm, StreamScheduling::kSequential},
      {StreamScheme::kLdgm, StreamScheduling::kInterleaved},
  };
  static_assert(std::size(cases) == std::size(configs));
  for (std::size_t i = 0; i < std::size(configs); ++i) {
    net::NetTrialConfig cfg;
    cfg.stream = small_stream(configs[i].first, configs[i].second);
    cfg.payload_bytes = 48;
    cfg.transport = "memory";
    cfg.report_interval = 64;
    const auto add = [](Hash& h, const net::NetTrialResult& r) {
      add_result(h, r.stream);
      for (const std::uint64_t v :
           {r.datagrams_sent, r.datagrams_dropped, r.bytes_sent,
            r.sources_verified, r.payload_mismatches, r.frames_rejected,
            r.reports_sent, r.reports_received, r.estimate.observations})
        h.add(v);
      for (const double v : {r.estimate.p, r.estimate.q, r.estimate.p_global,
                             r.estimate.mean_burst, r.estimate.burst_z,
                             r.estimate.confidence})
        h.add(v);
      h.add(r.estimate.bursty);
    };
    GilbertModel channel(0.05, 0.3);
    check(cases[i],
          golden([&] { return net::run_net_trial(cfg, channel, 101 + i, 7); },
                 add));
  }
}

TEST(TransmissionGolden, ObservedGridTrials) {
  const Case cases[] = {
      {"rse/tx2", 0xc0b49b025ed1b246ULL},
      {"ldgm-triangle/tx4", 0x3bc39e5ccb493ac6ULL},
  };
  ExperimentConfig rse;
  rse.code = CodeKind::kRse;
  rse.tx = TxModel::kTx2SeqSourceRandParity;
  rse.expansion_ratio = 1.5;
  rse.k = 400;
  ExperimentConfig ldgm;
  ldgm.code = CodeKind::kLdgmTriangle;
  ldgm.tx = TxModel::kTx4AllRandom;
  ldgm.expansion_ratio = 2.5;
  ldgm.k = 400;
  ldgm.graph_count = 2;
  const ExperimentConfig configs[] = {rse, ldgm};
  const auto add = [](Hash& h, const TrialResult& r) {
    h.add(r.decoded);
    h.add(r.n_needed);
    h.add(r.n_received);
    h.add(r.n_sent);
    h.add(r.peak_memory_symbols);
  };
  for (std::size_t i = 0; i < std::size(configs); ++i) {
    const Experiment experiment(configs[i]);
    check(cases[i],
          golden([&] { return experiment.run_once(0.05, 0.3, 80 + i); }, add));
  }
}

}  // namespace
}  // namespace fecsched
