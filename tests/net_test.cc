// Net subsystem (src/net/): wire-format round trips and strict rejection,
// transport pairs, impairment substream fidelity, sim-vs-wire parity of
// the lockstep trial across every scheme, the LossReport reverse path,
// and the net.send / net.recv fault points.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <exception>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "channel/gilbert.h"
#include "net/impairment.h"
#include "net/net_trial.h"
#include "net/receiver.h"
#include "net/sender.h"
#include "net/transport.h"
#include "net/wire.h"
#include "util/crc32.h"
#include "util/faultpoint.h"
#include "util/rng.h"

namespace fecsched::net {
namespace {

DataFrame random_data_frame(Rng& rng) {
  DataFrame f;
  f.scheme = static_cast<std::uint8_t>(rng.below(4));
  f.repair = rng.below(2) == 1;
  f.object_id = static_cast<std::uint32_t>(rng());
  f.symbol_id = rng();
  f.coding_seed = rng();
  f.span_first = rng.below(1 << 20);
  f.span_last = f.span_first + rng.below(1 << 10);
  f.payload.resize(rng.below(kMaxPayload + 1));
  for (auto& b : f.payload) b = static_cast<std::uint8_t>(rng());
  return f;
}

// ------------------------------------------------------------ wire format

TEST(NetWire, DataRoundTripRandomGeometry) {
  Rng rng(0x517eu);
  std::vector<std::uint8_t> buf;
  ParsedFrame parsed;
  for (int round = 0; round < 300; ++round) {
    const DataFrame f = random_data_frame(rng);
    pack(f, buf);
    ASSERT_EQ(buf.size(), kDataOverhead + f.payload.size());
    ASSERT_EQ(parse(buf, parsed), WireError::kOk);
    ASSERT_EQ(parsed.type, FrameType::kData);
    EXPECT_EQ(parsed.data, f);
  }
}

TEST(NetWire, ReportRoundTrip) {
  Rng rng(7);
  std::vector<std::uint8_t> buf;
  ParsedFrame parsed;
  for (int round = 0; round < 100; ++round) {
    ReportFrame f;
    f.object_id = static_cast<std::uint32_t>(rng());
    f.report.ok_to_ok = rng();
    f.report.ok_to_loss = rng();
    f.report.loss_to_ok = rng();
    f.report.loss_to_loss = rng();
    f.report.first_lost = rng.below(2) == 1;
    f.report.has_events = rng.below(2) == 1;
    pack(f, buf);
    ASSERT_EQ(buf.size(), kReportSize);
    ASSERT_EQ(parse(buf, parsed), WireError::kOk);
    ASSERT_EQ(parsed.type, FrameType::kReport);
    EXPECT_EQ(parsed.report.object_id, f.object_id);
    EXPECT_EQ(parsed.report.report.ok_to_ok, f.report.ok_to_ok);
    EXPECT_EQ(parsed.report.report.ok_to_loss, f.report.ok_to_loss);
    EXPECT_EQ(parsed.report.report.loss_to_ok, f.report.loss_to_ok);
    EXPECT_EQ(parsed.report.report.loss_to_loss, f.report.loss_to_loss);
    EXPECT_EQ(parsed.report.report.first_lost, f.report.first_lost);
    EXPECT_EQ(parsed.report.report.has_events, f.report.has_events);
  }
}

TEST(NetWire, EveryTruncationRejectedWithNamedReason) {
  Rng rng(11);
  DataFrame f = random_data_frame(rng);
  f.payload.resize(97);
  const std::vector<std::uint8_t> buf = pack(f);
  ParsedFrame parsed;
  for (std::size_t len = 0; len < buf.size(); ++len) {
    const WireError err = parse({buf.data(), len}, parsed);
    ASSERT_NE(err, WireError::kOk) << "accepted a " << len << "-byte prefix";
    ASSERT_NE(to_string(err), "?");
  }
}

TEST(NetWire, EverySingleBitFlipRejected) {
  Rng rng(13);
  DataFrame f = random_data_frame(rng);
  f.payload.resize(64);
  const std::vector<std::uint8_t> good = pack(f);
  ParsedFrame parsed;
  ASSERT_EQ(parse(good, parsed), WireError::kOk);
  for (std::size_t bit = 0; bit < good.size() * 8; ++bit) {
    std::vector<std::uint8_t> bad = good;
    bad[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    const WireError err = parse(bad, parsed);
    EXPECT_NE(err, WireError::kOk) << "bit " << bit << " flip accepted";
    EXPECT_NE(to_string(err), "?");
  }
}

TEST(NetWire, NamedRejectionReasons) {
  DataFrame f;
  f.payload = {1, 2, 3};
  const std::vector<std::uint8_t> good = pack(f);
  ParsedFrame parsed;
  const auto reseal = [](std::vector<std::uint8_t> b) {
    const std::uint32_t crc = crc32({b.data(), 44});
    for (int i = 0; i < 4; ++i)
      b[44 + static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(crc >> (8 * i));
    return b;
  };

  auto bad = good;
  bad[0] = 0x00;
  EXPECT_EQ(parse(bad, parsed), WireError::kBadMagic);
  bad = good;
  bad[2] = kWireVersion + 1;
  EXPECT_EQ(parse(bad, parsed), WireError::kBadVersion);
  bad = good;
  bad[3] = 9;
  EXPECT_EQ(parse(bad, parsed), WireError::kUnknownType);
  bad = good;
  bad[4] = 7;  // scheme tag beyond StreamScheme
  EXPECT_EQ(parse(bad, parsed), WireError::kUnknownScheme);
  bad = good;
  bad[5] = 0x82;  // reserved flag bit
  EXPECT_EQ(parse(bad, parsed), WireError::kBadPadding);
  bad = good;
  bad[6] = 0xFF;
  bad[7] = 0xFF;  // payload_len 65535 > kMaxPayload
  EXPECT_EQ(parse(bad, parsed), WireError::kOversizedPayload);
  bad = good;
  bad.push_back(0);
  EXPECT_EQ(parse(bad, parsed), WireError::kTrailingBytes);
  bad = good;
  bad[20] ^= 0x40;  // coding_seed byte: only the header CRC notices
  EXPECT_EQ(parse(bad, parsed), WireError::kHeaderCrcMismatch);
  bad = good;
  bad[28] = 9;  // span_first = 9 > span_last = 0, CRC recomputed
  EXPECT_EQ(parse(reseal(bad), parsed), WireError::kBadSpan);
  bad = good;
  bad[kHeaderSize] ^= 0x01;  // payload byte
  EXPECT_EQ(parse(bad, parsed), WireError::kPayloadCrcMismatch);

  const std::vector<std::uint8_t> report = pack(ReportFrame{});
  bad = report;
  bad[5] = 1;  // reserved byte
  EXPECT_EQ(parse(bad, parsed), WireError::kBadPadding);
}

TEST(NetWire, RandomGarbageNeverCrashes) {
  Rng rng(17);
  ParsedFrame parsed;
  std::vector<std::uint8_t> buf;
  for (int round = 0; round < 2000; ++round) {
    buf.resize(rng.below(2 * kDataOverhead + kMaxPayload));
    for (auto& b : buf) b = static_cast<std::uint8_t>(rng());
    const WireError err = parse(buf, parsed);
    ASSERT_NE(to_string(err), "?");
  }
}

TEST(NetWire, PackRejectsUnrepresentableFrames) {
  std::vector<std::uint8_t> buf;
  DataFrame f;
  f.payload.resize(kMaxPayload + 1);
  EXPECT_THROW(pack(f, buf), std::invalid_argument);
  f.payload.clear();
  f.scheme = 4;
  EXPECT_THROW(pack(f, buf), std::invalid_argument);
  f.scheme = 0;
  f.span_first = 2;
  f.span_last = 1;
  EXPECT_THROW(pack(f, buf), std::invalid_argument);
}

// -------------------------------------------------------------- transport

void round_trip_pair(std::string_view name) {
  TransportPair pair = make_transport_pair(name);
  const std::vector<std::uint8_t> ping = {1, 2, 3, 4};
  const std::vector<std::uint8_t> pong = {9, 8, 7};
  ASSERT_TRUE(pair.a->send(ping));
  std::uint8_t buf[64];
  ASSERT_EQ(pair.b->recv(buf, 1000), 4);
  EXPECT_TRUE(std::equal(ping.begin(), ping.end(), buf));
  ASSERT_TRUE(pair.b->send(pong));
  ASSERT_EQ(pair.a->recv(buf, 1000), 3);
  EXPECT_TRUE(std::equal(pong.begin(), pong.end(), buf));
  // Nothing queued: a bounded wait, not a hang.
  EXPECT_EQ(pair.a->recv(buf, 10), -1);
}

TEST(NetTransport, MemoryPairRoundTrip) { round_trip_pair("memory"); }

TEST(NetTransport, UdpLoopbackPairRoundTrip) { round_trip_pair("udp"); }

TEST(NetTransport, UnknownNameThrows) {
  EXPECT_THROW(make_transport_pair("tcp"), std::invalid_argument);
}

// ------------------------------------------------------------- impairment

TEST(NetImpairment, ConsumesTheExactChannelSubstream) {
  GilbertModel direct(0.1, 0.4);
  GilbertModel shimmed(0.1, 0.4);
  ImpairmentShim shim(shimmed);
  const std::uint64_t seed = derive_seed(42, {0});
  direct.reset(seed);
  shim.reset(seed);
  std::uint64_t drops = 0;
  for (int i = 0; i < 5000; ++i) {
    const bool expect = direct.lost();
    ASSERT_EQ(shim.drop_next(), expect) << "draw " << i;
    drops += expect ? 1 : 0;
  }
  EXPECT_EQ(shim.drawn(), 5000u);
  EXPECT_EQ(shim.dropped(), drops);
}

// ---------------------------------------------------- sim-vs-wire parity

NetTrialConfig small_config(StreamScheme scheme, StreamScheduling sched) {
  NetTrialConfig cfg;
  cfg.stream.scheme = scheme;
  cfg.stream.scheduling = sched;
  cfg.stream.source_count = 300;
  cfg.stream.overhead = 0.25;
  cfg.stream.window = 24;
  cfg.stream.block_k = 32;
  cfg.stream.max_cycles = 3;
  cfg.payload_bytes = 48;
  cfg.transport = "memory";
  return cfg;
}

void expect_parity(const NetTrialConfig& cfg, std::uint64_t seed) {
  GilbertModel sim_channel(0.05, 0.3);
  GilbertModel net_channel(0.05, 0.3);
  const StreamTrialResult sim = run_stream_trial(cfg.stream, sim_channel, seed);
  const NetTrialResult net = run_net_trial(cfg, net_channel, seed);
  EXPECT_EQ(net.stream.delays, sim.delays);
  EXPECT_EQ(net.stream.packets_sent, sim.packets_sent);
  EXPECT_EQ(net.stream.packets_received, sim.packets_received);
  EXPECT_EQ(net.stream.delay.delivered, sim.delay.delivered);
  EXPECT_EQ(net.stream.residual.lost, sim.residual.lost);
  EXPECT_EQ(net.stream.all_delivered, sim.all_delivered);
  EXPECT_DOUBLE_EQ(net.stream.overhead_actual, sim.overhead_actual);
  // Byte verification: every delivered source matched the ground truth.
  EXPECT_EQ(net.payload_mismatches, 0u);
  EXPECT_EQ(net.sources_verified, net.stream.delay.delivered);
  EXPECT_EQ(net.frames_rejected, 0u);
  EXPECT_EQ(net.datagrams_sent + net.datagrams_dropped,
            net.stream.packets_sent);
}

TEST(NetParity, SlidingWindowMatchesSimulation) {
  expect_parity(small_config(StreamScheme::kSlidingWindow,
                             StreamScheduling::kSequential),
                101);
}

TEST(NetParity, ReplicationMatchesSimulation) {
  expect_parity(
      small_config(StreamScheme::kReplication, StreamScheduling::kSequential),
      102);
}

TEST(NetParity, BlockRseSequentialMatchesSimulation) {
  expect_parity(
      small_config(StreamScheme::kBlockRse, StreamScheduling::kSequential),
      103);
}

TEST(NetParity, BlockRseInterleavedMatchesSimulation) {
  expect_parity(
      small_config(StreamScheme::kBlockRse, StreamScheduling::kInterleaved),
      104);
}

TEST(NetParity, BlockRseCarouselMatchesSimulation) {
  expect_parity(
      small_config(StreamScheme::kBlockRse, StreamScheduling::kCarousel), 105);
}

TEST(NetParity, LdgmSequentialMatchesSimulation) {
  expect_parity(
      small_config(StreamScheme::kLdgm, StreamScheduling::kSequential), 106);
}

TEST(NetParity, LdgmInterleavedMatchesSimulation) {
  expect_parity(
      small_config(StreamScheme::kLdgm, StreamScheduling::kInterleaved), 107);
}

TEST(NetParity, UdpTransportIdenticalToMemory) {
  NetTrialConfig cfg =
      small_config(StreamScheme::kSlidingWindow, StreamScheduling::kSequential);
  GilbertModel ch_mem(0.05, 0.3);
  GilbertModel ch_udp(0.05, 0.3);
  const NetTrialResult mem = run_net_trial(cfg, ch_mem, 55);
  cfg.transport = "udp";
  const NetTrialResult udp = run_net_trial(cfg, ch_udp, 55);
  EXPECT_EQ(udp.stream.delays, mem.stream.delays);
  EXPECT_EQ(udp.bytes_sent, mem.bytes_sent);
  EXPECT_EQ(udp.datagrams_sent, mem.datagrams_sent);
  EXPECT_EQ(udp.payload_mismatches, 0u);
}

// ----------------------------------------------------- reverse-path loop

TEST(NetReport, ClosesTheEstimatorLoopOverTheWire) {
  NetTrialConfig cfg =
      small_config(StreamScheme::kSlidingWindow, StreamScheduling::kSequential);
  cfg.stream.source_count = 2000;
  cfg.stream.window = 32;
  cfg.report_interval = 128;
  GilbertModel channel(0.08, 0.25);
  const NetTrialResult r = run_net_trial(cfg, channel, 77);
  EXPECT_GE(r.reports_received, 10u);
  EXPECT_EQ(r.reports_received, r.reports_sent);
  // Every slot crossed the reverse path exactly once.
  EXPECT_EQ(r.estimate.observations, r.stream.packets_sent);
  // The wire-fed estimate sees the true loss rate (loose tolerance: one
  // trial's worth of evidence).
  const double truth = 0.08 / (0.08 + 0.25);
  EXPECT_NEAR(r.estimate.p_global, truth, 0.1);
}

TEST(NetReport, EndOfStreamReportAlwaysSent) {
  NetTrialConfig cfg =
      small_config(StreamScheme::kBlockRse, StreamScheduling::kSequential);
  GilbertModel channel(0.05, 0.3);
  const NetTrialResult r = run_net_trial(cfg, channel, 5);
  EXPECT_EQ(r.reports_sent, 1u);
  EXPECT_EQ(r.reports_received, 1u);
  EXPECT_EQ(r.estimate.observations, r.stream.packets_sent);
}

// ------------------------------------------------------------ validation

TEST(NetConfig, ValidateRejectsBadParameters) {
  NetTrialConfig cfg =
      small_config(StreamScheme::kSlidingWindow, StreamScheduling::kSequential);
  cfg.payload_bytes = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.payload_bytes = kMaxPayload + 1;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.payload_bytes = 64;
  cfg.transport = "carrier-pigeon";
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

// A frame with a valid CRC and this stream's object, scheme and seed can
// still carry an id or span the sender never emits.  The receiver counts
// it as a reject instead of handing it on: a source past S would throw
// from the delay tracker, a repair spanning 2^34 seqs would hash a
// coefficient for each, and a block id would narrow to 32 bits and index
// past the plan.
TEST(NetReceiverValidation, RefusesOutOfRangeIdsAndSpans) {
  constexpr std::uint64_t kSeed = 11;
  const auto verdict = [&](const NetTrialConfig& cfg,
                           const DataFrame& frame) -> std::string {
    NetReceiver rx(cfg.stream, cfg.payload_bytes, kSeed, 0);
    ParsedFrame parsed;
    parsed.data = frame;
    try {
      rx.on_slot(&parsed, 0);
    } catch (const std::exception& e) {
      return std::string("threw: ") + e.what();
    }
    return rx.frames_rejected() == 1 ? "rejected" : "accepted";
  };
  const auto start = std::chrono::steady_clock::now();

  NetTrialConfig sliding =
      small_config(StreamScheme::kSlidingWindow, StreamScheduling::kSequential);
  sliding.stream.source_count = 100;
  const std::uint64_t S = 100, W = sliding.stream.window;
  DataFrame source, repair;
  {
    NetSender tx(sliding.stream, sliding.payload_bytes, kSeed, 0);
    tx.source_frame(0, source);
    tx.repair_frame(1, repair);
  }
  EXPECT_EQ(verdict(sliding, source), "accepted");
  EXPECT_EQ(verdict(sliding, repair), "accepted");
  DataFrame bad = source;
  for (const std::uint64_t id : {S, std::uint64_t{1000}}) {
    bad.symbol_id = id;
    EXPECT_EQ(verdict(sliding, bad), "rejected") << "source id " << id;
  }
  bad = source;
  bad.payload.pop_back();
  EXPECT_EQ(verdict(sliding, bad), "rejected") << "short payload";
  const struct {
    std::uint64_t id, first, last;
  } spans[] = {
      {S, 0, std::uint64_t{1} << 34},  // 2^34 seqs
      {5, 0, 1},                       // a source id on a repair
      {S, 3, 3},                       // empty
      {S, S + 1 - W, S + 1},           // past the last source
      {S, 0, W + 1},                   // wider than the window
  };
  for (const auto& span : spans) {
    bad = repair;
    bad.symbol_id = span.id;
    bad.span_first = span.first;
    bad.span_last = span.last;
    EXPECT_EQ(verdict(sliding, bad), "rejected")
        << "repair " << span.id << " [" << span.first << ", " << span.last
        << ")";
  }

  NetTrialConfig replication =
      small_config(StreamScheme::kReplication, StreamScheduling::kSequential);
  {
    NetSender tx(replication.stream, replication.payload_bytes, kSeed, 0);
    tx.source_frame(0, source);
    tx.repair_frame(1, repair);
  }
  EXPECT_EQ(verdict(replication, repair), "accepted");
  bad = repair;
  bad.span_first = bad.span_last = replication.stream.source_count;
  EXPECT_EQ(verdict(replication, bad), "rejected") << "duplicate of S";
  bad = source;
  bad.symbol_id = replication.stream.source_count;
  EXPECT_EQ(verdict(replication, bad), "rejected") << "source id S";

  for (const StreamScheme scheme :
       {StreamScheme::kBlockRse, StreamScheme::kLdgm}) {
    const NetTrialConfig block =
        small_config(scheme, StreamScheduling::kSequential);
    DataFrame packet;
    NetSender(block.stream, block.payload_bytes, kSeed, 0)
        .packet_frame(1, packet);
    EXPECT_EQ(verdict(block, packet), "accepted");
    // 2^32 + 1 narrows to the valid id 1.
    for (const std::uint64_t id :
         {std::uint64_t{1'000'000}, (std::uint64_t{1} << 32) + 1}) {
      bad = packet;
      bad.symbol_id = id;
      EXPECT_EQ(verdict(block, bad), "rejected") << "block id " << id;
    }
  }
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(5));
}

TEST(NetSenderTest, PayloadsAreDeterministicPerSourceAndSeed) {
  std::vector<std::uint8_t> a, b;
  NetSender::source_payload(9, 4, 32, a);
  NetSender::source_payload(9, 4, 32, b);
  EXPECT_EQ(a, b);
  NetSender::source_payload(9, 5, 32, b);
  EXPECT_NE(a, b);
  NetSender::source_payload(10, 4, 32, b);
  EXPECT_NE(a, b);
}

// ------------------------------------------------------------ faultpoints

TEST(NetFault, SendAndRecvPointsFire) {
  NetTrialConfig cfg =
      small_config(StreamScheme::kSlidingWindow, StreamScheduling::kSequential);
  for (const char* point : {"net.send", "net.recv"}) {
    fault::arm(point, 1);
    GilbertModel channel(0.05, 0.3);
    EXPECT_THROW((void)run_net_trial(cfg, channel, 3), fault::FaultInjected)
        << point;
    fault::disarm();
  }
}

}  // namespace
}  // namespace fecsched::net
