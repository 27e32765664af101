#include "net/net_trial.h"

#include <array>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/impairment.h"
#include "net/receiver.h"
#include "net/sender.h"
#include "net/transport.h"
#include "net/wire.h"
#include "obs/obs.h"
#include "sched/carousel.h"
#include "util/faultpoint.h"
#include "util/rng.h"

namespace fecsched::net {

void NetTrialConfig::validate() const {
  stream.validate();
  if (payload_bytes == 0 || payload_bytes > kMaxPayload)
    throw std::invalid_argument(
        "NetTrialConfig: payload_bytes must be in [1, " +
        std::to_string(kMaxPayload) + "]");
  if (transport != "udp" && transport != "memory")
    throw std::invalid_argument("NetTrialConfig: unknown transport \"" +
                                transport + "\" (udp, memory)");
}

namespace {

/// Everything one direction of the lockstep exchange needs.
struct Wires {
  Transport& tx;                      ///< sender -> receiver
  Transport& rx;                      ///< same pipe, receiver end
  std::vector<std::uint8_t> pack_buf;
  std::array<std::uint8_t, kDataOverhead + kMaxPayload> recv_buf{};
  ParsedFrame parsed;
};

}  // namespace

NetTrialResult run_net_trial(const NetTrialConfig& cfg, LossModel& channel,
                             std::uint64_t seed, std::uint32_t object_id) {
  cfg.validate();
  const obs::Hook hook;
  const std::uint32_t S = cfg.stream.source_count;

  TransportPair pair = make_transport_pair(cfg.transport);
  Wires wires{*pair.a, *pair.b, {}, {}, {}};
  ImpairmentShim shim(channel);
  ChannelEstimator estimator;

  std::optional<NetSender> sender;
  std::optional<NetReceiver> receiver;
  hook.timed(obs::Phase::kEncode, [&] {
    sender.emplace(cfg.stream, cfg.payload_bytes, seed, object_id);
    receiver.emplace(cfg.stream, cfg.payload_bytes, seed, object_id);
  });

  NetTrialResult result;
  std::uint64_t slot = 0, sent = 0, received = 0;
  const int timeout = static_cast<int>(cfg.recv_timeout_ms);
  DataFrame frame;

  // One channel slot: emulated channel draw at the sender, then — for a
  // surviving frame — the full wire round: pack, socket, parse, decode.
  const auto transmit = [&] {
    ++sent;
    hook.sent(static_cast<double>(slot), frame.symbol_id, frame.repair);
    const bool delivered = hook.timed(obs::Phase::kChannelDraw,
                                      [&] { return !shim.drop_next(); });
    if (!delivered) {
      hook.lost(static_cast<double>(slot), frame.symbol_id, frame.repair);
      receiver->on_slot(nullptr, slot);
      return;
    }
    hook.timed(obs::Phase::kNetPack, [&] { pack(frame, wires.pack_buf); });
    if (fault::point("net.send")) throw fault::FaultInjected("net.send");
    const bool queued =
        hook.timed(obs::Phase::kNetSend, [&] { return wires.tx.send(wires.pack_buf); });
    if (!queued)
      throw std::runtime_error("net: loopback send backpressure at slot " +
                               std::to_string(slot));
    ++result.datagrams_sent;
    result.bytes_sent += wires.pack_buf.size();
    if (fault::point("net.recv")) throw fault::FaultInjected("net.recv");
    const std::ptrdiff_t n = hook.timed(obs::Phase::kNetRecv, [&] {
      return wires.rx.recv({wires.recv_buf.data(), wires.recv_buf.size()},
                           timeout);
    });
    // The shim passed this frame, so the lossless transport owes it to us.
    if (n < 0)
      throw std::runtime_error(
          "net: datagram lost on the lossless transport (slot " +
          std::to_string(slot) + ", symbol " +
          std::to_string(frame.symbol_id) + ")");
    const WireError err = hook.timed(obs::Phase::kNetUnpack, [&] {
      return parse({wires.recv_buf.data(), static_cast<std::size_t>(n)},
                   wires.parsed);
    });
    if (err != WireError::kOk)
      throw std::runtime_error("net: frame rejected on loopback: " +
                               std::string(to_string(err)));
    ++received;
    hook.received(static_cast<double>(slot), wires.parsed.data.symbol_id,
                  wires.parsed.data.repair);
    receiver->on_slot(&wires.parsed, slot);
  };

  // Reverse path: receiver compresses the slot trace into a LossReport
  // frame; the sender parses it into the live channel estimator.
  const auto send_report = [&] {
    if (receiver->pending_events() == 0) return;
    const ReportFrame report = receiver->take_report();
    hook.timed(obs::Phase::kNetPack, [&] { pack(report, wires.pack_buf); });
    if (!hook.timed(obs::Phase::kNetSend,
                    [&] { return wires.rx.send(wires.pack_buf); }))
      throw std::runtime_error("net: report send backpressure");
    ++result.reports_sent;
    const std::ptrdiff_t n = hook.timed(obs::Phase::kNetRecv, [&] {
      return wires.tx.recv({wires.recv_buf.data(), wires.recv_buf.size()},
                           timeout);
    });
    if (n < 0) throw std::runtime_error("net: report lost on loopback");
    const WireError err = hook.timed(obs::Phase::kNetUnpack, [&] {
      return parse({wires.recv_buf.data(), static_cast<std::size_t>(n)},
                   wires.parsed);
    });
    if (err != WireError::kOk || wires.parsed.type != FrameType::kReport)
      throw std::runtime_error("net: malformed report on loopback");
    estimator.observe_report(wires.parsed.report.report);
    ++result.reports_received;
  };
  const auto maybe_report = [&] {
    if (cfg.report_interval > 0 &&
        receiver->pending_events() >= cfg.report_interval)
      send_report();
  };

  shim.reset(derive_seed(seed, {0}));
  const bool paced = cfg.stream.scheme == StreamScheme::kSlidingWindow ||
                     cfg.stream.scheme == StreamScheme::kReplication;
  if (paced) {
    // run_paced_trial's pacing, verbatim: one source per slot, one repair
    // every `interval` sources, one tail window of repairs, give-up lines
    // trailing W behind production.
    const std::uint32_t W = cfg.stream.window;
    const std::uint32_t interval = cfg.stream.repair_interval();
    for (std::uint32_t s = 0; s < S; ++s) {
      sender->source_frame(s, frame);
      transmit();
      ++slot;
      const std::uint64_t produced = s + 1;
      if (produced > W) receiver->give_up_before(produced - W, slot);
      if (produced % interval == 0) {
        sender->repair_frame(produced, frame);
        transmit();
        ++slot;
      }
      maybe_report();
    }
    const std::uint64_t tail = (W + interval - 1) / interval;
    for (std::uint64_t i = 0; i < tail; ++i) {
      sender->repair_frame(S, frame);
      transmit();
      ++slot;
    }
    receiver->give_up_before(S, slot);
  } else {
    // run_block_trial's pacing: the carousel spins the schedule, stopping
    // early once the receiver reports completion (the lockstep driver
    // stands in for the receiver's ACK stream; LossReports still cross
    // the real wire below).
    const std::uint64_t cycles =
        cfg.stream.scheduling == StreamScheduling::kCarousel
            ? cfg.stream.max_cycles
            : 1;
    Carousel carousel(sender->schedule());
    const std::uint64_t budget = sender->schedule().size() * cycles;
    while (slot < budget && (cycles == 1 || !receiver->complete())) {
      const PacketId id = carousel.next();
      sender->packet_frame(id, frame);
      transmit();
      ++slot;
      maybe_report();
    }
    receiver->flush(slot);
  }
  send_report();

  result.stream = receiver->finish_stream(sent, received);
  result.datagrams_dropped = shim.dropped();
  result.sources_verified = receiver->sources_verified();
  result.payload_mismatches = receiver->payload_mismatches();
  result.frames_rejected = receiver->frames_rejected();
  result.estimate = estimator.estimate();
  if (hook.counting()) {
    hook.count("net.trials");
    hook.count("net.datagrams_sent", result.datagrams_sent);
    hook.count("net.datagrams_dropped", result.datagrams_dropped);
    hook.count("net.bytes_sent", result.bytes_sent);
    hook.count("net.sources_verified", result.sources_verified);
    hook.count("net.payload_mismatches", result.payload_mismatches);
    hook.count("net.frames_rejected", result.frames_rejected);
    hook.count("net.reports", result.reports_received);
    obs::observe_release_delays(hook.observer()->metrics(),
                                result.stream.delays);
  }
  return result;
}

}  // namespace fecsched::net
