// bench_packetize — wire-format and loopback-transport throughput.
//
// Four measurements, all on the src/net/ hot path:
//
//   pack     DataFrame -> wire bytes (header assembly + two CRC32s)
//   unpack   wire bytes -> ParsedFrame (bounds checks + CRC verification)
//   rtt      one datagram out and back across a loopback pair
//            (udp sockets and the in-process memory transport)
//   burst    one-way frames per second across a udp loopback pair: the
//            net link's batch in one segmented send with coalesced reads,
//            against the same frames one datagram per send
//
// Scale: --k is repurposed as the number of frames per measurement and
// --trials as the number of repetitions (the median is reported).  A
// kind="bench" ledger record (--ledger= / FECSCHED_LEDGER) carries the
// throughput numbers in its extra block so `fecsched_cli compare`
// watches them across runs.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "net/transport.h"
#include "net/wire.h"
#include "util/rng.h"

namespace {

using namespace fecsched;
using bench::Scale;

constexpr std::size_t kPayloadBytes = 1024;

double median(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  return xs.empty() ? 0.0 : xs[xs.size() / 2];
}

net::DataFrame make_frame(Rng& rng) {
  net::DataFrame frame;
  frame.scheme = 0;
  frame.repair = (rng() & 1) != 0;
  frame.object_id = static_cast<std::uint32_t>(rng());
  frame.symbol_id = rng() % 1000000;
  frame.coding_seed = rng();
  frame.span_first = frame.symbol_id;
  frame.span_last = frame.symbol_id + rng() % 64;
  frame.payload.resize(kPayloadBytes);
  for (auto& b : frame.payload) b = static_cast<std::uint8_t>(rng());
  return frame;
}

/// Wall seconds for one fn() run.
template <typename Fn>
double timed(Fn&& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  Scale s = bench::parse_scale(argc, argv);
  const std::uint32_t frames = s.k;
  const std::uint32_t reps = std::max<std::uint32_t>(3, s.trials / 10);
  std::printf("==================================================================\n"
              "bench_packetize — src/net/ wire format + loopback transports\n"
              "%u frames x %u B payload per measurement, %u repetitions "
              "(median)\n"
              "==================================================================\n",
              frames, static_cast<unsigned>(kPayloadBytes), reps);

  Rng rng(s.seed);
  std::vector<net::DataFrame> corpus;
  corpus.reserve(frames);
  for (std::uint32_t i = 0; i < frames; ++i) corpus.push_back(make_frame(rng));
  const double wire_mb =
      static_cast<double>(frames) *
      static_cast<double>(net::kDataOverhead + kPayloadBytes) / 1e6;

  const auto t_bench = std::chrono::steady_clock::now();

  // pack: frame -> bytes, reusing one output buffer like the sender does.
  std::vector<std::uint8_t> buf;
  std::uint64_t sink = 0;
  std::vector<double> pack_runs;
  for (std::uint32_t r = 0; r < reps; ++r)
    pack_runs.push_back(timed([&] {
      for (const net::DataFrame& frame : corpus) {
        net::pack(frame, buf);
        sink += buf.size();
      }
    }));
  const double pack_s = median(pack_runs);

  // unpack: bytes -> frame, CRC checks included.
  std::vector<std::vector<std::uint8_t>> packed;
  packed.reserve(frames);
  for (const net::DataFrame& frame : corpus) packed.push_back(net::pack(frame));
  net::ParsedFrame parsed;
  std::vector<double> unpack_runs;
  for (std::uint32_t r = 0; r < reps; ++r)
    unpack_runs.push_back(timed([&] {
      for (const auto& bytes : packed) {
        if (net::parse(bytes, parsed) != net::WireError::kOk) std::abort();
        sink += parsed.data.payload.size();
      }
    }));
  const double unpack_s = median(unpack_runs);

  std::printf("\n%-22s %12s %14s\n", "measurement", "ns/frame", "MB/s");
  std::printf("%-22s %12.0f %14.1f\n", "pack",
              pack_s / frames * 1e9, wire_mb / pack_s);
  std::printf("%-22s %12.0f %14.1f\n", "unpack",
              unpack_s / frames * 1e9, wire_mb / unpack_s);

  // Loopback RTT: ping-pong one packed frame, both transports.
  double rtt_us[2] = {0.0, 0.0};
  const char* names[2] = {"udp", "memory"};
  for (int t = 0; t < 2; ++t) {
    net::TransportPair pair = net::make_transport_pair(names[t]);
    std::vector<std::uint8_t> rx(net::kDataOverhead + net::kMaxPayload);
    const std::uint32_t pings = std::min<std::uint32_t>(frames, 2000);
    std::vector<double> rtt_runs;
    for (std::uint32_t r = 0; r < reps; ++r)
      rtt_runs.push_back(timed([&] {
        for (std::uint32_t i = 0; i < pings; ++i) {
          const std::vector<std::uint8_t>& frame = packed[i % packed.size()];
          if (!pair.a->send(frame, frame.size())) std::abort();
          if (pair.b->recv(rx, 1000).bytes < 0) std::abort();
          if (!pair.b->send(frame, frame.size())) std::abort();
          if (pair.a->recv(rx, 1000).bytes < 0) std::abort();
        }
      }));
    rtt_us[t] = median(rtt_runs) / pings * 1e6;
    std::printf("%-22s %12.1f %14s\n",
                (std::string("rtt ") + names[t]).c_str(), rtt_us[t] * 1000.0,
                "-");
  }

  // One-way burst over one udp pair whose receiving end coalesces reads:
  // `batch` frames in one segmented send against one datagram per send,
  // each burst drained before the next, the two paths alternating in
  // every repetition.  `batch` is the net link's for this frame size.
  const std::size_t frame_bytes = net::kDataOverhead + kPayloadBytes;
  const std::size_t batch =
      std::min(net::kMaxSegments, net::kMaxSegmentBytes / frame_bytes);
  std::vector<std::uint8_t> burst;
  for (std::size_t i = 0; i < batch; ++i)
    burst.insert(burst.end(), packed[i % packed.size()].begin(),
                 packed[i % packed.size()].end());
  const std::uint32_t bursts =
      std::max<std::uint32_t>(1, frames / static_cast<std::uint32_t>(batch));
  const double burst_frames = static_cast<double>(bursts) *
                              static_cast<double>(batch);
  net::TransportPair pair = net::make_transport_pair("udp");
  const bool coalesced = pair.b->coalesce();
  std::vector<std::uint8_t> rx(net::kMaxSegmentBytes);
  const auto drain = [&] {
    for (std::size_t got = 0; got < burst.size();) {
      const net::Segments read = pair.b->recv(rx, 1000);
      if (read.bytes < 0) std::abort();
      got += static_cast<std::size_t>(read.bytes);
    }
  };
  std::vector<double> segmented_runs, datagram_runs;
  for (std::uint32_t r = 0; r < reps; ++r) {
    segmented_runs.push_back(timed([&] {
      for (std::uint32_t b = 0; b < bursts; ++b) {
        if (!pair.a->send(burst, frame_bytes)) std::abort();
        drain();
      }
    }));
    datagram_runs.push_back(timed([&] {
      for (std::uint32_t b = 0; b < bursts; ++b) {
        for (std::size_t off = 0; off < burst.size(); off += frame_bytes)
          if (!pair.a->send({burst.data() + off, frame_bytes}, frame_bytes))
            std::abort();
        drain();
      }
    }));
  }
  const double segmented_fps = burst_frames / median(segmented_runs);
  const double datagram_fps = burst_frames / median(datagram_runs);
  const double burst_mb = burst_frames * static_cast<double>(frame_bytes) / 1e6;
  std::printf("%-22s %12.0f %14.1f\n",
              ("burst udp x" + std::to_string(batch) + " seg").c_str(),
              1e9 / segmented_fps, burst_mb / median(segmented_runs));
  std::printf("%-22s %12.0f %14.1f\n", "burst udp 1/call",
              1e9 / datagram_fps, burst_mb / median(datagram_runs));
  std::printf("\n(rtt in ns/round trip; burst in ns/frame one way, %s "
              "reads; sink=%llu keeps the loops live)\n",
              coalesced ? "coalesced" : "uncoalesced",
              static_cast<unsigned long long>(sink));

  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t_bench)
          .count();
  api::Json extra = api::Json::object();
  extra.set("pack_mb_s", api::Json(wire_mb / pack_s));
  extra.set("unpack_mb_s", api::Json(wire_mb / unpack_s));
  extra.set("rtt_udp_us", api::Json(rtt_us[0]));
  extra.set("rtt_memory_us", api::Json(rtt_us[1]));
  extra.set("burst_segmented_fps", api::Json(segmented_fps));
  extra.set("burst_datagram_fps", api::Json(datagram_fps));
  extra.set("burst_batch", api::Json::integer(std::uint64_t{batch}));
  extra.set("burst_coalesced", api::Json(coalesced));
  extra.set("payload_bytes", api::Json::integer(std::uint64_t{kPayloadBytes}));
  extra.set("frames", api::Json::integer(std::uint64_t{frames}));
  bench::append_bench_record(s, "bench_packetize", 1, wall, std::move(extra));
  return 0;
}
