// Net subsystem (src/net/): wire-format round trips and strict rejection,
// transport pairs and segmented UDP sends, impairment substream fidelity,
// sim-vs-wire parity of the batched trial across every scheme, the
// LossReport reverse path, and the net.send / net.recv fault points.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <exception>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "channel/gilbert.h"
#include "net/impairment.h"
#include "net/net_trial.h"
#include "net/receiver.h"
#include "net/sender.h"
#include "net/transport.h"
#include "net/udp_endpoint.h"
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

TEST(NetWire, RoundTripAtEveryPayloadLength) {
  // Every payload length puts the payload CRC through each split between
  // the CRC's 64-byte, 16-byte and byte-at-a-time steps.
  Rng rng(19);
  DataFrame f = random_data_frame(rng);
  std::vector<std::uint8_t> buf;
  ParsedFrame parsed;
  for (std::size_t len = 0; len <= kMaxPayload; ++len) {
    f.payload.resize(len);
    for (auto& b : f.payload) b = static_cast<std::uint8_t>(rng());
    pack(f, buf);
    ASSERT_EQ(parse(buf, parsed), WireError::kOk) << "length " << len;
    ASSERT_EQ(parsed.data, f) << "length " << len;
  }
  for (const std::size_t len : std::initializer_list<std::size_t>{
           1, 15, 16, 17, 63, 64, 65, 1024, kMaxPayload}) {
    f.payload.resize(len);
    pack(f, buf);
    for (const std::size_t at : {std::size_t{0}, len / 2, len - 1}) {
      std::vector<std::uint8_t> bad = buf;
      bad[kHeaderSize + at] ^= 0x10;
      EXPECT_EQ(parse(bad, parsed), WireError::kPayloadCrcMismatch)
          << "length " << len << " byte " << at;
    }
  }
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
  ASSERT_TRUE(pair.a->send(ping, ping.size()));
  std::uint8_t buf[64];
  Segments got = pair.b->recv(buf, 1000);
  ASSERT_EQ(got.bytes, 4);
  EXPECT_EQ(got.segment, 4u);
  EXPECT_TRUE(std::equal(ping.begin(), ping.end(), buf));
  ASSERT_TRUE(pair.b->send(pong, pong.size()));
  got = pair.a->recv(buf, 1000);
  ASSERT_EQ(got.bytes, 3);
  EXPECT_TRUE(std::equal(pong.begin(), pong.end(), buf));
  // Three 2-byte datagrams in one send, without coalesced reads: one
  // datagram per recv, in send order.
  const std::vector<std::uint8_t> three = {1, 2, 3, 4, 5, 6};
  ASSERT_TRUE(pair.a->send(three, 2));
  for (std::uint8_t i = 0; i < 3; ++i) {
    got = pair.b->recv(buf, 1000);
    ASSERT_EQ(got.bytes, 2) << "datagram " << int{i};
    EXPECT_EQ(got.segment, 2u);
    EXPECT_EQ(buf[0], 2 * i + 1);
    EXPECT_EQ(buf[1], 2 * i + 2);
  }
  // Nothing queued: a bounded wait, not a hang.
  EXPECT_EQ(pair.a->recv(buf, 10).bytes, -1);
  EXPECT_EQ(pair.b->recv(buf, 10).bytes, -1);
}

TEST(NetTransport, MemoryPairRoundTrip) { round_trip_pair("memory"); }

TEST(NetTransport, UdpLoopbackPairRoundTrip) { round_trip_pair("udp"); }

TEST(NetTransport, UnknownNameThrows) {
  EXPECT_THROW(make_transport_pair("tcp"), std::invalid_argument);
}

/// A connected loopback pair of bare endpoints.
struct EndpointPair {
  UdpEndpoint a, b;
  EndpointPair() {
    a.connect_to(b.port());
    b.connect_to(a.port());
  }
};

/// Datagram `i` of a test burst: `bytes` bytes that name it.
std::vector<std::uint8_t> numbered_datagram(std::size_t i, std::size_t bytes) {
  std::vector<std::uint8_t> d(bytes);
  for (std::size_t j = 0; j < bytes; ++j)
    d[j] = static_cast<std::uint8_t>(i * 31 + j);
  return d;
}

/// Reads at `end` until `count` datagrams arrived, checking each against
/// numbered_datagram; returns how many reads it took.
std::size_t read_datagrams(UdpEndpoint& end, std::size_t count,
                           std::size_t segment, std::size_t last_bytes) {
  std::vector<std::uint8_t> buf(kMaxSegmentBytes);
  std::size_t reads = 0, seen = 0;
  while (seen < count) {
    Segments got = end.try_recv(buf);
    if (got.bytes < 0) {
      if (!end.wait_readable(1000)) {
        ADD_FAILURE() << "datagram " << seen << " lost";
        return reads;
      }
      got = end.try_recv(buf);
    }
    if (got.bytes < 0) continue;
    ++reads;
    if (got.segment == 0) {
      ADD_FAILURE() << "read " << reads << " reports no segment size";
      return reads;
    }
    for (std::size_t off = 0; off < static_cast<std::size_t>(got.bytes);
         off += got.segment, ++seen) {
      const std::size_t n =
          std::min(got.segment, static_cast<std::size_t>(got.bytes) - off);
      const std::size_t want = seen + 1 == count ? last_bytes : segment;
      EXPECT_EQ(n, want) << "datagram " << seen;
      const std::vector<std::uint8_t> expect = numbered_datagram(seen, want);
      EXPECT_TRUE(std::equal(expect.begin(), expect.end(), buf.begin() + off))
          << "datagram " << seen;
    }
  }
  EXPECT_EQ(seen, count);
  EXPECT_EQ(end.try_recv(buf).bytes, -1) << "more datagrams than sent";
  return reads;
}

// One segmented send of N equal datagrams (the net link's batch, here
// the largest 1024-byte-payload one) arrives whole and in order: in
// fewer reads than datagrams once the receiving end coalesces, one
// datagram per read when it does not.  A one-segment buffer, and one
// shorter than its segment size, go out as a single datagram.
TEST(NetUdpEndpoint, SegmentedSendArrivesInOrderWithAndWithoutGro) {
  constexpr std::size_t kSegment = kDataOverhead + 1024;
  constexpr std::size_t kCount = kMaxSegmentBytes / kSegment;
  std::vector<std::uint8_t> burst;
  for (std::size_t i = 0; i < kCount; ++i) {
    const std::vector<std::uint8_t> d = numbered_datagram(i, kSegment);
    burst.insert(burst.end(), d.begin(), d.end());
  }
  for (const bool gro : {false, true}) {
    SCOPED_TRACE(gro ? "GRO on" : "GRO off");
    EndpointPair pair;
    if (gro && !pair.b.enable_gro())
      GTEST_SKIP() << "the kernel refuses UDP_GRO";
    ASSERT_TRUE(pair.a.try_send(burst, kSegment));
    const std::size_t reads =
        read_datagrams(pair.b, kCount, kSegment, kSegment);
    if (gro)
      EXPECT_LT(reads, kCount);
    else
      EXPECT_EQ(reads, kCount);

    // A last datagram shorter than the rest.
    ASSERT_TRUE(pair.a.try_send({burst.data(), 3 * kSegment - 100}, kSegment));
    (void)read_datagrams(pair.b, 3, kSegment, kSegment - 100);

    // One segment, and one datagram shorter than its segment size.
    ASSERT_TRUE(pair.a.try_send({burst.data(), kSegment}, kSegment));
    EXPECT_EQ(read_datagrams(pair.b, 1, kSegment, kSegment), 1u);
    ASSERT_TRUE(pair.a.try_send({burst.data(), 40}, kSegment));
    EXPECT_EQ(read_datagrams(pair.b, 1, 40, 40), 1u);
  }
}

TEST(NetUdpEndpoint, SendsOverTheSegmentLimitsThrow) {
  EndpointPair pair;
  const std::vector<std::uint8_t> data(kMaxSegments + 1);
  EXPECT_THROW((void)pair.a.try_send(data, 0), std::invalid_argument);
  EXPECT_THROW((void)pair.a.try_send(data, 1), std::invalid_argument);
  const std::vector<std::uint8_t> big(kMaxSegmentBytes + 1);
  EXPECT_THROW((void)pair.a.try_send(big, big.size()), std::invalid_argument);
  // Nothing went out.
  std::uint8_t buf[8];
  EXPECT_EQ(pair.b.try_recv(buf).bytes, -1);
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

/// Every field of two trial results is identical.
void expect_same_result(const NetTrialResult& a, const NetTrialResult& b) {
  const StreamTrialResult &x = a.stream, &y = b.stream;
  EXPECT_EQ(x.delay.delivered, y.delay.delivered);
  EXPECT_EQ(x.delay.lost, y.delay.lost);
  EXPECT_EQ(x.delay.mean, y.delay.mean);
  EXPECT_EQ(x.delay.p50, y.delay.p50);
  EXPECT_EQ(x.delay.p95, y.delay.p95);
  EXPECT_EQ(x.delay.p99, y.delay.p99);
  EXPECT_EQ(x.delay.max, y.delay.max);
  EXPECT_EQ(x.delay.mean_transport, y.delay.mean_transport);
  EXPECT_EQ(x.delay.mean_hol, y.delay.mean_hol);
  EXPECT_EQ(x.residual.lost, y.residual.lost);
  EXPECT_EQ(x.residual.runs, y.residual.runs);
  EXPECT_EQ(x.residual.max_run_length, y.residual.max_run_length);
  EXPECT_EQ(x.residual.mean_run_length, y.residual.mean_run_length);
  EXPECT_EQ(x.delays, y.delays);
  EXPECT_EQ(x.packets_sent, y.packets_sent);
  EXPECT_EQ(x.packets_received, y.packets_received);
  EXPECT_EQ(x.overhead_actual, y.overhead_actual);
  EXPECT_EQ(x.all_delivered, y.all_delivered);
  EXPECT_EQ(a.datagrams_sent, b.datagrams_sent);
  EXPECT_EQ(a.datagrams_dropped, b.datagrams_dropped);
  EXPECT_EQ(a.bytes_sent, b.bytes_sent);
  EXPECT_EQ(a.sources_verified, b.sources_verified);
  EXPECT_EQ(a.payload_mismatches, b.payload_mismatches);
  EXPECT_EQ(a.frames_rejected, b.frames_rejected);
  EXPECT_EQ(a.reports_sent, b.reports_sent);
  EXPECT_EQ(a.reports_received, b.reports_received);
  const ChannelEstimate &e = a.estimate, &f = b.estimate;
  EXPECT_EQ(e.p, f.p);
  EXPECT_EQ(e.q, f.q);
  EXPECT_EQ(e.p_global, f.p_global);
  EXPECT_EQ(e.mean_burst, f.mean_burst);
  EXPECT_EQ(e.bursty, f.bursty);
  EXPECT_EQ(e.burst_z, f.burst_z);
  EXPECT_EQ(e.observations, f.observations);
  EXPECT_EQ(e.confidence, f.confidence);
}

void expect_udp_identical_to_memory(NetTrialConfig cfg, std::uint64_t seed) {
  cfg.transport = "memory";
  GilbertModel ch_mem(0.05, 0.3);
  const NetTrialResult mem = run_net_trial(cfg, ch_mem, seed);
  cfg.transport = "udp";
  GilbertModel ch_udp(0.05, 0.3);
  const NetTrialResult udp = run_net_trial(cfg, ch_udp, seed);
  expect_same_result(udp, mem);
  EXPECT_EQ(udp.payload_mismatches, 0u);
  EXPECT_EQ(udp.frames_rejected, 0u);
  EXPECT_GT(udp.reports_received, 1u);
}

// Every plan the memory parity tests take, over real sockets.
TEST(NetParity, UdpTransportIdenticalToMemory) {
  const struct {
    StreamScheme scheme;
    StreamScheduling sched;
  } plans[] = {
      {StreamScheme::kSlidingWindow, StreamScheduling::kSequential},
      {StreamScheme::kReplication, StreamScheduling::kSequential},
      {StreamScheme::kBlockRse, StreamScheduling::kSequential},
      {StreamScheme::kBlockRse, StreamScheduling::kInterleaved},
      {StreamScheme::kBlockRse, StreamScheduling::kCarousel},
      {StreamScheme::kLdgm, StreamScheduling::kSequential},
      {StreamScheme::kLdgm, StreamScheduling::kInterleaved},
  };
  std::uint64_t seed = 55;
  for (const auto& plan : plans) {
    SCOPED_TRACE(std::string(to_string(plan.scheme)) + " " +
                 std::string(to_string(plan.sched)));
    NetTrialConfig cfg = small_config(plan.scheme, plan.sched);
    cfg.report_interval = 50;
    expect_udp_identical_to_memory(cfg, seed++);
  }
}

// The batch edges: the largest payload (the fewest datagrams per send), a
// stream that ends in a partial batch, and reports due mid-batch.
TEST(NetParity, UdpBatchEdgesIdenticalToMemoryAndSimulation) {
  NetTrialConfig cfg =
      small_config(StreamScheme::kSlidingWindow, StreamScheduling::kSequential);
  cfg.payload_bytes = kMaxPayload;
  cfg.stream.source_count = 1000;
  cfg.report_interval = 100;
  const std::size_t batch = kMaxSegmentBytes / (kDataOverhead + kMaxPayload);
  ASSERT_EQ(batch, 45u);
  ASSERT_NE(cfg.report_interval % batch, 0u);
  expect_parity(cfg, 56);
  GilbertModel channel(0.05, 0.3);
  ASSERT_NE(run_net_trial(cfg, channel, 56).stream.packets_sent % batch, 0u)
      << "the last batch must be partial";
  expect_udp_identical_to_memory(cfg, 56);
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
    // What the net trial does with a delivered frame: validate it, and
    // hand an accepted one to the payload-mode decoders.
    const StreamCode code(cfg.stream, kSeed);
    NetReceiver rx(code, cfg.payload_bytes, kSeed, 0);
    StreamReceiver decoders;
    decoders.reset(code, obs::Hook(), cfg.payload_bytes,
                   [&](std::uint64_t s, std::span<const std::uint8_t> bytes) {
                     rx.verify(s, bytes);
                   });
    ParsedFrame parsed;
    parsed.data = frame;
    try {
      if (rx.on_slot(&parsed))
        decoders.on_packet(to_emission(frame), frame.payload, 0.0);
    } catch (const std::exception& e) {
      return std::string("threw: ") + e.what();
    }
    return rx.frames_rejected() == 1 ? "rejected" : "accepted";
  };
  // The frames the sender builds for the first few emissions of the plan.
  const auto first_frames = [&](const NetTrialConfig& cfg) {
    const StreamCode code(cfg.stream, kSeed);
    NetSender tx(code, cfg.payload_bytes, kSeed, 0);
    struct Plan {
      NetSender& tx;
      std::vector<DataFrame> frames;
      void emit(const Emission& e, std::uint64_t slot) {
        if (slot < 8) tx.frame(e, frames.emplace_back());
      }
      void give_up(std::uint64_t, std::uint64_t) {}
      void release_block(std::uint32_t, std::uint64_t) {}
      void step() {}
      bool done() const { return false; }
      void flush(std::uint64_t) {}
    } plan{tx, {}};
    code.walk(plan);
    return plan.frames;
  };
  const auto start = std::chrono::steady_clock::now();

  NetTrialConfig sliding =
      small_config(StreamScheme::kSlidingWindow, StreamScheduling::kSequential);
  sliding.stream.source_count = 100;
  const std::uint64_t S = 100, W = sliding.stream.window;
  // Window 24, one repair after every 4th source: slot 4 is repair 0.
  std::vector<DataFrame> frames = first_frames(sliding);
  DataFrame source = frames[0], repair = frames[4];
  ASSERT_TRUE(repair.repair);
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
  frames = first_frames(replication);
  source = frames[0];
  repair = frames[4];
  ASSERT_TRUE(repair.repair);
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
    const DataFrame packet = first_frames(block)[1];
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

// FNV-1a (64-bit): a compact pin for a generated byte string.
std::uint64_t fnv1a(std::span<const std::uint8_t> bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  return h;
}

TEST(NetSenderTest, PayloadBytesArePinned) {
  // The sender and the receiver's verification share source_payload, so
  // byte verification, NetParity and the pinned net outputs cannot see a
  // change to the byte stream it generates; these hashes can.  Lengths
  // cover empty, a partial first word, whole words, a partial tail word
  // and the largest payload.
  struct Pin {
    std::uint64_t seed, s;
    std::size_t bytes;
    std::uint64_t fnv;
  };
  static constexpr Pin kPins[] = {
      {1, 0, 0, 0xcbf29ce484222325ull},
      {1, 0, 1, 0xaf645e4c8602c972ull},
      {1, 0, 7, 0x0c76188108939e26ull},
      {1, 0, 8, 0xc04a3c4192d67dfbull},
      {1, 0, 9, 0x94a1636c82766700ull},
      {1, 0, 1024, 0x5de4a2662d5e9f0bull},
      {1, 0, 1031, 0x5b04953b439d26a7ull},
      {1, 0, 1400, 0xd58a8d140bd7a047ull},
      {9, 4, 0, 0xcbf29ce484222325ull},
      {9, 4, 1, 0xaf647e4c8602ffd2ull},
      {9, 4, 7, 0xa55d1e6b1828a476ull},
      {9, 4, 8, 0x25ded3fa0d0ee92cull},
      {9, 4, 9, 0x688c22e430578483ull},
      {9, 4, 1024, 0x8f3580be0a6651acull},
      {9, 4, 1031, 0xbaedbd8f55acdf6full},
      {9, 4, 1400, 0xea03802dfda2c936ull},
      {0x5eed5eed, 799, 0, 0xcbf29ce484222325ull},
      {0x5eed5eed, 799, 1, 0xaf64074c8602359dull},
      {0x5eed5eed, 799, 7, 0x53b2d0e87dd7fabaull},
      {0x5eed5eed, 799, 8, 0x10d3a70dd5fef244ull},
      {0x5eed5eed, 799, 9, 0x96975e82a03612e6ull},
      {0x5eed5eed, 799, 1024, 0xfc7c440ca1e453bbull},
      {0x5eed5eed, 799, 1031, 0x9f3bb1fd48f8dafeull},
      {0x5eed5eed, 799, 1400, 0x113850390e2dbf62ull},
  };
  std::vector<std::uint8_t> payload;
  for (const Pin& pin : kPins) {
    NetSender::source_payload(pin.seed, pin.s, pin.bytes, payload);
    ASSERT_EQ(payload.size(), pin.bytes);
    EXPECT_EQ(fnv1a(payload), pin.fnv)
        << "seed " << pin.seed << " source " << pin.s << " bytes "
        << pin.bytes;
  }
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
