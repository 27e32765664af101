// Streaming FEC subsystem (src/stream/): sliding-window decoder
// cross-checked against the brute-force GF(2) solver and the dense
// reference decoder, payload-mode correctness, delay-tracker invariants,
// and stream-trial sanity.

#include <algorithm>
#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "adapt/controller.h"
#include "channel/gilbert.h"
#include "fec/ge_decoder.h"
#include "fec/peeling_decoder.h"
#include "obs/obs.h"
#include "sliding_reference.h"
#include "sim/stream_delay.h"
#include "stream/delay_tracker.h"
#include "stream/sliding_window.h"
#include "stream/stream_trial.h"
#include "util/rng.h"

namespace fecsched {
namespace {

// ---------------------------------------------------------- cross-check

// In binary-coefficient mode every repair is the XOR of its window, so the
// linear system the sliding decoder solves over GF(2^8) has 0/1
// coefficients; the rank of such a system is the same over GF(2) and any
// extension field, which makes the brute-force GF(2) solver
// (fec/peeling_decoder + fec/ge_decoder on the support structure) an
// *exact* oracle: the two decoders must recover exactly the same sources
// on every erasure pattern.
class SlidingCrossCheck : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(SlidingCrossCheck, MatchesBruteForceGf2OnRandomErasures) {
  const std::uint32_t W = GetParam();
  constexpr std::uint32_t kSources = 24;
  constexpr std::uint32_t kInterval = 2;
  constexpr int kPatterns = 1000;

  SlidingWindowConfig cfg;
  cfg.window = W;
  cfg.repair_interval = kInterval;
  cfg.coefficients = SlidingCoefficients::kBinary;

  const SparseBinaryMatrix support = sliding_support_matrix(cfg, kSources);
  const std::uint32_t repairs = kSources / kInterval;
  ASSERT_EQ(support.rows(), repairs);
  ASSERT_EQ(support.cols(), kSources + repairs);

  Rng rng(0xc0ffee ^ W);
  for (int pattern = 0; pattern < kPatterns; ++pattern) {
    const double loss = 0.05 + 0.55 * rng.uniform01();
    std::vector<bool> source_ok(kSources), repair_ok(repairs);
    for (std::uint32_t s = 0; s < kSources; ++s)
      source_ok[s] = !rng.bernoulli(loss);
    for (std::uint32_t r = 0; r < repairs; ++r)
      repair_ok[r] = !rng.bernoulli(loss);

    // Streaming decoder, transmission order, no deadline.
    SlidingWindowDecoder dec(cfg);
    std::uint32_t next_repair = 0;
    for (std::uint32_t s = 0; s < kSources; ++s) {
      if (source_ok[s]) (void)dec.on_source(s);
      if ((s + 1) % kInterval == 0) {
        if (repair_ok[next_repair]) {
          RepairPacket rp;
          rp.repair_seq = next_repair;
          rp.last = s + 1;
          rp.first = s + 1 >= W ? s + 1 - W : 0;
          (void)dec.on_repair(rp);
        }
        ++next_repair;
      }
    }

    // Brute-force GF(2) oracle on the same received set.
    PeelingDecoder oracle(support, kSources);
    for (std::uint32_t s = 0; s < kSources; ++s)
      if (source_ok[s]) oracle.add_packet(s);
    for (std::uint32_t r = 0; r < repairs; ++r)
      if (repair_ok[r]) oracle.add_packet(kSources + r);
    (void)ge_solve(oracle);

    for (std::uint32_t s = 0; s < kSources; ++s)
      ASSERT_EQ(dec.is_known(s), oracle.is_known(s))
          << "pattern " << pattern << " source " << s << " W " << W;
  }
}

INSTANTIATE_TEST_SUITE_P(Windows, SlidingCrossCheck,
                         ::testing::Values(4u, 6u, 8u));

// ------------------------------------------------------------- payloads

TEST(SlidingWindow, PayloadRoundtripUnderRandomLoss) {
  constexpr std::uint32_t kSources = 200;
  constexpr std::size_t kSymbol = 64;
  SlidingWindowConfig cfg;
  cfg.window = 16;
  cfg.repair_interval = 3;
  cfg.seed = 77;

  Rng content(5), loss(9);
  std::vector<std::vector<std::uint8_t>> sources(kSources);
  for (auto& s : sources) {
    s.resize(kSymbol);
    for (auto& b : s) b = static_cast<std::uint8_t>(content.below(256));
  }

  SlidingWindowEncoder enc(cfg, kSymbol);
  SlidingWindowDecoder dec(cfg, kSymbol);
  for (std::uint32_t s = 0; s < kSources; ++s) {
    enc.push_source(sources[s]);
    if (!loss.bernoulli(0.15)) (void)dec.on_source(s, sources[s]);
    if (enc.source_count() % cfg.repair_interval == 0) {
      const RepairPacket rp = enc.make_repair();
      if (!loss.bernoulli(0.15)) (void)dec.on_repair(rp);
    }
  }
  for (std::uint32_t i = 0; i < cfg.window; ++i) {
    const RepairPacket rp = enc.make_repair();
    if (!loss.bernoulli(0.15)) (void)dec.on_repair(rp);
  }

  // Whatever the decoder claims to know must be byte-exact, and with this
  // much tail redundancy nearly everything must be known.
  std::uint32_t known = 0;
  for (std::uint32_t s = 0; s < kSources; ++s) {
    if (!dec.is_known(s)) continue;
    ++known;
    const auto got = dec.symbol(s);
    ASSERT_TRUE(std::equal(got.begin(), got.end(), sources[s].begin(),
                           sources[s].end()))
        << "source " << s;
  }
  EXPECT_GE(known, kSources * 95 / 100);
}

TEST(SlidingWindow, DeadlineDeclaresExactlyTheUnrecoverable) {
  SlidingWindowConfig cfg;
  cfg.window = 4;
  cfg.repair_interval = 2;
  SlidingWindowDecoder dec(cfg);
  // Sources 0 and 1 lost, 2 and 3 received; no repairs at all.
  (void)dec.on_source(2);
  (void)dec.on_source(3);
  const auto lost = dec.give_up_before(2);
  EXPECT_EQ(lost, (std::vector<std::uint64_t>{0, 1}));
  EXPECT_TRUE(dec.is_lost(0));
  EXPECT_TRUE(dec.is_lost(1));
  EXPECT_FALSE(dec.is_lost(2));
  // The horizon never regresses, and re-declaring is a no-op.
  EXPECT_TRUE(dec.give_up_before(1).empty());
  EXPECT_EQ(dec.horizon(), 2u);
  // A repair pinned on an expired source is useless and must be dropped.
  RepairPacket rp;
  rp.repair_seq = 0;
  rp.first = 0;
  rp.last = 2;
  EXPECT_TRUE(dec.on_repair(rp).empty());
  EXPECT_EQ(dec.active_equations(), 0u);
}

TEST(SlidingWindow, EncoderWindowMatchesDeclaredSpan) {
  SlidingWindowConfig cfg;
  cfg.window = 8;
  cfg.repair_interval = 4;
  SlidingWindowEncoder enc(cfg, 4);
  const std::vector<std::uint8_t> sym{1, 2, 3, 4};
  for (int i = 0; i < 20; ++i) enc.push_source(sym);
  const RepairPacket rp = enc.make_repair();
  EXPECT_EQ(rp.last, 20u);
  EXPECT_EQ(rp.first, 12u);
  EXPECT_EQ(rp.payload.size(), 4u);
}

// FNV-1a (64-bit): a compact pin for a byte string.
std::uint64_t fnv1a(std::span<const std::uint8_t> bytes,
                    std::uint64_t h = 0xcbf29ce484222325ull) {
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  return h;
}

// Encoder and decoder derive the same coefficients, so a round trip
// cannot see a change to them; these hashes, taken from the seed code,
// can.
TEST(SlidingWindow, CoefficientsArePinned) {
  std::vector<std::uint8_t> bytes;
  for (const std::uint64_t seed : {0ull, 1ull, 0x57e4a11dull, ~0ull})
    for (std::uint64_t r = 0; r < 40; r += 3)
      for (std::uint64_t s = 0; s < 300; s += 7) {
        SlidingWindowConfig cfg;
        cfg.seed = seed;
        bytes.push_back(sliding_coefficient(cfg, r, s));
        cfg.coefficients = SlidingCoefficients::kBinary;
        bytes.push_back(sliding_coefficient(cfg, r, s));
      }
  EXPECT_EQ(fnv1a(bytes), 0xa683980f9e078702ull);
}

TEST(SlidingWindow, RepairPayloadsArePinned) {
  // Repairs over a window that is still filling, then full and sliding,
  // in both coefficient modes.
  for (const auto& [mode, pin] :
       {std::pair{SlidingCoefficients::kRandomGf256, 0xe39774fdd972a586ull},
        std::pair{SlidingCoefficients::kBinary, 0x28fed89eb93c9981ull}}) {
    SlidingWindowConfig cfg;
    cfg.window = 16;
    cfg.repair_interval = 3;
    cfg.coefficients = mode;
    SlidingWindowEncoder enc(cfg, 100);
    Rng rng(31);
    std::vector<std::uint8_t> payload(100);
    std::uint64_t h = fnv1a({});
    for (int i = 0; i < 60; ++i) {
      for (auto& b : payload) b = static_cast<std::uint8_t>(rng.below(256));
      enc.push_source(payload);
      if (i % 3 == 2) h = fnv1a(enc.make_repair().payload, h);
    }
    EXPECT_EQ(h, pin) << "binary=" << (mode == SlidingCoefficients::kBinary);
  }
}

// ------------------------------------------------- dense reference

// The decoder keeps its reduced row-echelon form incrementally; the dense
// reference (tests/sliding_reference.h) re-solves every pending equation
// per packet.  For a fixed column order the RREF of a row space is
// unique, so both must return the same seqs in the same order, hold the
// same number of pending equations after every call, and end with the
// same fates and byte-identical payloads.  The event streams are paced
// emissions (sources, one repair per interval, then the tail) with
// per-stream loss, duplicates and a bounded random delivery delay that
// reorders arrivals as two paths would.  W = 1 is the narrowest window;
// at W = 100 a repair covers more than 64 sources and a pending equation
// can span more than 64 columns.
using DifferentialParam =
    std::tuple<std::uint32_t, SlidingCoefficients, std::size_t>;
class SlidingDifferential
    : public ::testing::TestWithParam<DifferentialParam> {};

TEST_P(SlidingDifferential, MatchesDenseReferenceOnReorderedStreams) {
  const auto [W, coefficients, symbol] = GetParam();
  constexpr int kStreams = 30;
  Rng rng(0xd1ff ^ (W << 8) ^ (symbol << 1) ^
          static_cast<std::uint64_t>(coefficients));
  for (int stream = 0; stream < kStreams; ++stream) {
    SlidingWindowConfig cfg;
    cfg.window = W;
    cfg.repair_interval = static_cast<std::uint32_t>(1 + rng.below(4));
    cfg.coefficients = coefficients;
    cfg.seed = rng.below(1u << 30);
    const std::uint32_t S = 6 * W + static_cast<std::uint32_t>(rng.below(W));

    // Paced emissions: sources in order, a repair after every interval,
    // then one window of tail repairs.
    struct Emission {
      bool repair = false;
      std::uint64_t seq = 0;
      RepairPacket packet;
    };
    std::vector<std::vector<std::uint8_t>> sources(S);
    std::vector<Emission> emissions;
    SlidingWindowEncoder enc(cfg, symbol);
    for (std::uint32_t s = 0; s < S; ++s) {
      sources[s].resize(symbol);
      for (auto& b : sources[s]) b = static_cast<std::uint8_t>(rng.below(256));
      enc.push_source(sources[s]);
      emissions.push_back({false, s, {}});
      if (enc.source_count() % cfg.repair_interval == 0)
        emissions.push_back({true, 0, enc.make_repair()});
    }
    for (std::uint32_t i = 0; i < W / cfg.repair_interval + 1; ++i)
      emissions.push_back({true, 0, enc.make_repair()});

    // Per-stream loss, duplicates and delivery delay: arrivals are sorted
    // by emission slot plus a delay drawn from [0, max_delay].
    const double loss = 0.02 + 0.33 * rng.uniform01();
    const std::uint64_t max_delay = rng.below(2 * W + 1);
    std::vector<std::pair<std::uint64_t, std::size_t>> arrivals;
    for (std::size_t i = 0; i < emissions.size(); ++i) {
      if (rng.bernoulli(loss)) continue;
      arrivals.emplace_back(i + rng.below(max_delay + 1), i);
      if (rng.bernoulli(0.05))
        arrivals.emplace_back(i + rng.below(max_delay + 1), i);
    }
    std::stable_sort(arrivals.begin(), arrivals.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });

    SlidingWindowDecoder dec(cfg, symbol);
    testing_ref::ReferenceSlidingDecoder ref(cfg, symbol);
    const auto same_state = [&]() -> ::testing::AssertionResult {
      if (dec.active_equations() == ref.active_equations() &&
          dec.known_count() == ref.known_count() &&
          dec.lost_count() == ref.lost_count())
        return ::testing::AssertionSuccess();
      return ::testing::AssertionFailure()
             << "equations " << dec.active_equations() << " vs "
             << ref.active_equations() << ", known " << dec.known_count()
             << " vs " << ref.known_count() << ", lost " << dec.lost_count()
             << " vs " << ref.lost_count();
    };
    std::uint64_t newest = 0;
    for (std::size_t step = 0; step < arrivals.size(); ++step) {
      const Emission& em = emissions[arrivals[step].second];
      if (em.repair) {
        ASSERT_EQ(dec.on_repair(em.packet), ref.on_repair(em.packet))
            << "repair step " << step << " stream " << stream;
        newest = std::max(newest, em.packet.last - 1);
      } else {
        ASSERT_EQ(dec.on_source(em.seq, sources[em.seq]),
                  ref.on_source(em.seq, sources[em.seq]))
            << "source step " << step << " stream " << stream;
        newest = std::max(newest, em.seq);
      }
      ASSERT_TRUE(same_state()) << "step " << step << " stream " << stream;
      if (newest >= W) {
        ASSERT_EQ(dec.give_up_before(newest - W),
                  ref.give_up_before(newest - W));
        ASSERT_TRUE(same_state()) << "give-up step " << step;
      }
    }
    ASSERT_EQ(dec.give_up_before(S), ref.give_up_before(S));
    ASSERT_TRUE(same_state()) << "final give-up, stream " << stream;

    for (std::uint32_t s = 0; s < S; ++s) {
      ASSERT_EQ(dec.is_known(s), ref.is_known(s)) << "source " << s;
      ASSERT_EQ(dec.is_lost(s), ref.is_lost(s)) << "source " << s;
      if (symbol == 0 || !dec.is_known(s)) continue;
      const auto got = dec.symbol(s);
      const auto want = ref.symbol(s);
      ASSERT_TRUE(std::equal(got.begin(), got.end(), want.begin(), want.end()))
          << "source " << s;
      ASSERT_TRUE(std::equal(got.begin(), got.end(), sources[s].begin(),
                             sources[s].end()))
          << "source " << s;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    WindowsModesPayloads, SlidingDifferential,
    ::testing::Combine(::testing::Values(1u, 4u, 16u, 64u, 100u),
                       ::testing::Values(SlidingCoefficients::kRandomGf256,
                                         SlidingCoefficients::kBinary),
                       ::testing::Values(std::size_t{0}, std::size_t{32})),
    [](const ::testing::TestParamInfo<DifferentialParam>& info) {
      const bool binary =
          std::get<1>(info.param) == SlidingCoefficients::kBinary;
      return "W" + std::to_string(std::get<0>(info.param)) +
             (binary ? "_binary" : "_random") +
             (std::get<2>(info.param) == 0 ? "_structure" : "_payload");
    });

// --------------------------------------------------------- delay tracker

TEST(DelayTracker, InvariantsOnRandomisedSchedule) {
  constexpr std::uint32_t kSources = 400;
  Rng rng(31337);
  DelayTracker tracker;
  // Events: every source is sent at t = seq; fate lands at a random later
  // time, 12% lost.  Feed fates in time order.
  std::vector<std::pair<double, std::uint64_t>> fates;  // (time, seq)
  std::vector<bool> lost(kSources);
  for (std::uint32_t s = 0; s < kSources; ++s) {
    tracker.on_sent(s, s);
    lost[s] = rng.bernoulli(0.12);
    fates.emplace_back(s + 60.0 * rng.uniform01(), s);
  }
  std::sort(fates.begin(), fates.end());
  for (const auto& [t, seq] : fates) {
    if (lost[seq])
      tracker.on_lost(seq, t);
    else
      tracker.on_available(seq, t);
  }

  EXPECT_TRUE(tracker.drained());
  EXPECT_EQ(tracker.released_through(), kSources);

  const DelaySummary sum = tracker.summary();
  const ResidualLossStats residual = tracker.residual_loss();
  EXPECT_EQ(sum.delivered + sum.lost, kSources);
  EXPECT_EQ(sum.delivered, tracker.delays().size());

  // delay >= 0 for every delivered source.
  for (double d : tracker.delays()) {
    EXPECT_GE(d, 0.0);
  }

  // HOL accounting: mean delay == mean transport + mean HOL, exactly.
  EXPECT_NEAR(sum.mean, sum.mean_transport + sum.mean_hol, 1e-9);
  EXPECT_GE(sum.mean_transport, 0.0);
  EXPECT_GE(sum.mean_hol, 0.0);

  // Monotone in-order release: delivery order is seq order, and the
  // reconstructed release times never decrease.
  double last_release = 0.0;
  std::size_t j = 0;
  for (std::uint32_t s = 0; s < kSources; ++s) {
    if (lost[s]) continue;
    const double release = s + tracker.delays()[j++];
    EXPECT_GE(release, last_release) << "seq " << s;
    last_release = release;
  }
  EXPECT_EQ(j, tracker.delays().size());

  // Residual run-length accounting sums back to the loss count.
  std::uint64_t expect_lost = 0;
  for (bool l : lost) expect_lost += l ? 1 : 0;
  EXPECT_EQ(residual.lost, expect_lost);
  if (residual.runs > 0) {
    EXPECT_NEAR(residual.mean_run_length * static_cast<double>(residual.runs),
                static_cast<double>(residual.lost), 1e-9);
  }
  EXPECT_LE(residual.max_run_length, residual.lost);
  EXPECT_LE(residual.runs, residual.lost);

  // Percentiles are ordered.
  EXPECT_LE(sum.p50, sum.p95);
  EXPECT_LE(sum.p95, sum.p99);
  EXPECT_LE(sum.p99, sum.max);
}

TEST(DelayTracker, RecoveryBeforeSendIsPinnedToSendTime) {
  DelayTracker tracker;
  tracker.on_sent(0, 0.0);
  tracker.on_sent(1, 10.0);
  // Source 1 "recovered" at t=2 (parity-early schedule): pinned to t=10.
  tracker.on_available(1, 2.0);
  tracker.on_available(0, 3.0);
  ASSERT_EQ(tracker.delays().size(), 2u);
  EXPECT_DOUBLE_EQ(tracker.delays()[0], 3.0);   // seq 0: 3 - 0
  EXPECT_DOUBLE_EQ(tracker.delays()[1], 0.0);   // seq 1: max(3,10,10) - 10
  const DelaySummary sum = tracker.summary();
  EXPECT_NEAR(sum.mean, sum.mean_transport + sum.mean_hol, 1e-9);
}

// ---------------------------------------------------------- stream trial

class StreamTrialSequentialSchemes
    : public ::testing::TestWithParam<StreamScheme> {};

TEST_P(StreamTrialSequentialSchemes, PerfectChannelDeliversAtZeroDelay) {
  StreamTrialConfig cfg;
  cfg.scheme = GetParam();
  cfg.scheduling = StreamScheduling::kSequential;
  cfg.source_count = 500;
  cfg.overhead = 0.25;
  cfg.window = 32;
  cfg.block_k = 50;
  PerfectChannel channel;
  const StreamTrialResult r = run_stream_trial(cfg, channel, 1);
  EXPECT_TRUE(r.all_delivered);
  EXPECT_EQ(r.delay.delivered, cfg.source_count);
  EXPECT_EQ(r.delay.lost, 0u);
  EXPECT_DOUBLE_EQ(r.delay.mean, 0.0);
  EXPECT_DOUBLE_EQ(r.delay.max, 0.0);
  EXPECT_EQ(r.residual.lost, 0u);
  EXPECT_GT(r.overhead_actual, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Schemes, StreamTrialSequentialSchemes,
                         ::testing::Values(StreamScheme::kSlidingWindow,
                                           StreamScheme::kReplication,
                                           StreamScheme::kBlockRse,
                                           StreamScheme::kLdgm));

TEST(StreamTrial, AccountsEverySourceExactlyOnce) {
  for (const StreamScheme scheme :
       {StreamScheme::kSlidingWindow, StreamScheme::kReplication,
        StreamScheme::kBlockRse, StreamScheme::kLdgm}) {
    for (const StreamScheduling sched :
         {StreamScheduling::kSequential, StreamScheduling::kInterleaved,
          StreamScheduling::kCarousel}) {
      StreamTrialConfig cfg;
      cfg.scheme = scheme;
      cfg.scheduling = sched;
      cfg.source_count = 400;
      cfg.overhead = 0.25;
      cfg.window = 40;
      cfg.block_k = 40;
      GilbertModel channel(0.02, 0.25);  // 7.4% loss, mean burst 4
      const StreamTrialResult r = run_stream_trial(cfg, channel, 99);
      EXPECT_EQ(r.delay.delivered + r.delay.lost, cfg.source_count)
          << to_string(scheme) << "/" << to_string(sched);
      EXPECT_EQ(r.delay.delivered, r.delays.size());
      EXPECT_GE(r.packets_sent, cfg.source_count);
      EXPECT_LE(r.packets_received, r.packets_sent);
      for (double d : r.delays) {
        EXPECT_GE(d, 0.0);
      }
      EXPECT_NEAR(r.delay.mean, r.delay.mean_transport + r.delay.mean_hol,
                  1e-9);
    }
  }
}

TEST(StreamTrial, DeterministicForSeed) {
  StreamTrialConfig cfg;
  cfg.scheme = StreamScheme::kSlidingWindow;
  cfg.source_count = 600;
  cfg.window = 48;
  GilbertModel a(0.01, 0.2), b(0.01, 0.2);
  const StreamTrialResult r1 = run_stream_trial(cfg, a, 4242);
  const StreamTrialResult r2 = run_stream_trial(cfg, b, 4242);
  EXPECT_EQ(r1.delays, r2.delays);
  EXPECT_EQ(r1.packets_sent, r2.packets_sent);
  EXPECT_EQ(r1.packets_received, r2.packets_received);
  EXPECT_EQ(r1.residual.lost, r2.residual.lost);
}

TEST(StreamTrial, CarouselRecoversWhatSequentialLoses) {
  // A harsh channel: the carousel's extra cycles must strictly reduce the
  // undelivered fraction of the plain sequential block schedule.
  StreamTrialConfig cfg;
  cfg.scheme = StreamScheme::kBlockRse;
  cfg.source_count = 400;
  cfg.overhead = 0.25;
  cfg.block_k = 40;
  cfg.max_cycles = 4;
  std::uint64_t seq_lost = 0, carousel_lost = 0;
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    GilbertModel channel(0.05, 0.2);  // 20% loss, mean burst 5
    cfg.scheduling = StreamScheduling::kSequential;
    seq_lost += run_stream_trial(cfg, channel, seed).residual.lost;
    cfg.scheduling = StreamScheduling::kCarousel;
    carousel_lost += run_stream_trial(cfg, channel, seed).residual.lost;
  }
  EXPECT_LT(carousel_lost, seq_lost);
}

// The LDGM receiver releases what each packet solved in ascending source
// id, the order a rescan of the unknown sources would visit them.  On the
// sequential schedule every source is sent before any parity, so a
// decoded event's slot is the slot of the packet that solved it: events
// sharing a slot come from one decoder call.
TEST(StreamTrial, LdgmDecodedEventsAscendWithinEachSlot) {
  StreamTrialConfig cfg;
  cfg.scheme = StreamScheme::kLdgm;
  cfg.scheduling = StreamScheduling::kSequential;
  cfg.source_count = 1500;
  cfg.overhead = 0.5;
  std::uint64_t multi_source_slots = 0;
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    obs::Session session(obs::Config{.trace = true});
    StreamTrialResult result;
    {
      const obs::TrialScope scope(seed);
      GilbertModel channel(0.03, 0.2);  // 13% loss, mean burst 5
      result = run_stream_trial(cfg, channel, seed);
    }
    const obs::Report report = session.finish();
    std::uint64_t decoded = 0;
    const obs::TraceEvent* prev = nullptr;
    for (const obs::TraceEvent& ev : report.events) {
      if (ev.kind != obs::EventKind::kDecoded) continue;
      ++decoded;
      if (prev != nullptr) {
        ASSERT_LE(prev->slot, ev.slot) << "seed " << seed;
        if (prev->slot == ev.slot) {
          ASSERT_LT(prev->id, ev.id) << "seed " << seed << ", slot " << ev.slot;
          ++multi_source_slots;
        }
      }
      prev = &ev;
    }
    EXPECT_EQ(decoded, result.delay.delivered) << "seed " << seed;
  }
  EXPECT_GT(multi_source_slots, 0u) << "no cascade recovered two sources";
}

TEST(StreamReceiver, ReusedAcrossTrialsDecodesAtEachTrialsPayloadSize) {
  // One receiver, as a workspace keeps it: a structure-only sliding trial,
  // a payload-mode LDGM trial, then a payload-mode sliding trial, which
  // must not inherit the first trial's structure-only decoder.
  StreamTrialConfig cfg;
  cfg.source_count = 20;
  cfg.window = 8;
  const StreamCode sliding(cfg, 1);
  cfg.scheme = StreamScheme::kLdgm;
  const StreamCode ldgm(cfg, 1);
  const obs::Hook hook;
  StreamReceiver rx;
  rx.reset(sliding, hook);
  rx.reset(ldgm, hook, 16, [](std::uint64_t, std::span<const std::uint8_t>) {});
  std::vector<std::size_t> released_bytes;
  rx.reset(sliding, hook, 16,
           [&](std::uint64_t, std::span<const std::uint8_t> bytes) {
             released_bytes.push_back(bytes.size());
           });
  const std::vector<std::uint8_t> payload(16, 7);
  rx.on_packet(Emission{0}, payload, 0.0);
  EXPECT_EQ(released_bytes, std::vector<std::size_t>{16});
}

// ------------------------------------------------------ delay grid / hook

TEST(StreamDelayGrid, AggregatesAndIsThreadCountIndependent) {
  StreamGridConfig cfg;
  cfg.overheads = {0.25};
  cfg.base.source_count = 300;
  cfg.base.window = 32;
  cfg.base.block_k = 40;
  cfg.variants = {
      {"sliding", StreamScheme::kSlidingWindow, StreamScheduling::kSequential},
      {"rse", StreamScheme::kBlockRse, StreamScheduling::kSequential},
  };
  const std::vector<ChannelPoint> points = {gilbert_point(0.02, 3.0),
                                            gilbert_point(0.05, 3.0)};
  GridRunOptions opt;
  opt.trials_per_cell = 4;
  opt.threads = 1;
  const StreamGridResult r1 = run_stream_delay_grid(points, cfg, opt);
  opt.threads = 4;
  const StreamGridResult r2 = run_stream_delay_grid(points, cfg, opt);
  ASSERT_EQ(r1.stats.size(), points.size() * 2);
  for (std::size_t i = 0; i < r1.stats.size(); ++i) {
    EXPECT_EQ(r1.stats[i].trials, 4u);
    EXPECT_EQ(r1.stats[i].mean_delay.mean(), r2.stats[i].mean_delay.mean());
    EXPECT_EQ(r1.stats[i].undelivered_fraction.mean(),
              r2.stats[i].undelivered_fraction.mean());
  }
}

TEST(GilbertPoint, RoundTripsStationaryLossAndBurst) {
  const ChannelPoint pt = gilbert_point(0.1, 5.0);
  const GilbertModel model(pt.p, pt.q);
  EXPECT_NEAR(model.global_loss_probability(), 0.1, 1e-12);
  EXPECT_NEAR(1.0 / pt.q, 5.0, 1e-12);
  const ChannelPoint bursty = gilbert_point(0.1, 4.0);
  EXPECT_NEAR(bursty.p / (bursty.p + bursty.q), 0.1, 1e-12);
  EXPECT_NEAR(1.0 / bursty.q, 4.0, 1e-12);
  EXPECT_THROW((void)gilbert_point(-0.1, 2.0), std::invalid_argument);
  EXPECT_THROW((void)gilbert_point(1.0, 4.0), std::invalid_argument);
  EXPECT_THROW((void)gilbert_point(0.2, 0.5), std::invalid_argument);
  // p_global 0.9 at burst 1 needs p = 9: rejected up front, naming both
  // coordinates.
  try {
    (void)gilbert_point(0.9, 1.0);
    FAIL() << "gilbert_point accepted p = 9";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("not a Gilbert channel"), std::string::npos) << what;
    EXPECT_NE(what.find("0.9"), std::string::npos) << what;
  }
}

TEST(RecommendWindow, GrowsWithBurstLengthAndLossRate) {
  AdaptiveController controller;
  ChannelEstimate est;
  est.confidence = 1.0;
  est.p_global = 0.05;

  est.mean_burst = 2.0;
  const std::uint32_t w2 =
      controller.recommend_window(est, 0.25).window;
  est.mean_burst = 8.0;
  const std::uint32_t w8 =
      controller.recommend_window(est, 0.25).window;
  EXPECT_GT(w8, w2);

  est.mean_burst = 4.0;
  est.p_global = 0.02;
  const std::uint32_t w_low =
      controller.recommend_window(est, 0.25).window;
  est.p_global = 0.15;
  const std::uint32_t w_high =
      controller.recommend_window(est, 0.25).window;
  EXPECT_GT(w_high, w_low);

  // Loss rate at/above the repair budget: defensive maximum.
  est.p_global = 0.30;
  EXPECT_EQ(controller.recommend_window(est, 0.25).window, 1024u);

  // Cold start (no confidence): the default window.
  est.confidence = 0.0;
  EXPECT_EQ(controller.recommend_window(est, 0.25).window, 64u);

  // The pacing always realises the overhead budget.
  est.confidence = 1.0;
  est.p_global = 0.01;
  EXPECT_EQ(controller.recommend_window(est, 0.25).repair_interval, 4u);
  EXPECT_EQ(controller.recommend_window(est, 0.125).repair_interval, 8u);
}

}  // namespace
}  // namespace fecsched
