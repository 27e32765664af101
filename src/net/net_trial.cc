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

/// The wire link: every emission is framed, drawn against the emulated
/// channel at the sender and, when it survives, packed, sent over the
/// transport, received, parsed and validated.  Between plan steps the
/// receiver's loss trace goes back as a LossReport frame into the
/// sender's channel estimator.
class WireLink {
 public:
  WireLink(const NetTrialConfig& cfg, Transport& tx, Transport& rx,
           ImpairmentShim& shim, NetSender& sender, NetReceiver& receiver,
           const obs::Hook& hook, NetTrialResult& result)
      : cfg_(cfg), tx_(tx), rx_(rx), shim_(shim), sender_(sender),
        receiver_(receiver), hook_(hook), result_(result) {}

  Arrival transmit(const Emission& e, std::uint64_t slot) {
    sender_.frame(e, frame_);
    const bool delivered = hook_.timed(obs::Phase::kChannelDraw,
                                       [&] { return !shim_.drop_next(); });
    if (!delivered) {
      receiver_.on_slot(nullptr);
      return {};
    }
    hook_.timed(obs::Phase::kNetPack, [&] { pack(frame_, pack_buf_); });
    if (fault::point("net.send")) throw fault::FaultInjected("net.send");
    if (!hook_.timed(obs::Phase::kNetSend, [&] { return tx_.send(pack_buf_); }))
      throw std::runtime_error("net: loopback send backpressure at slot " +
                               std::to_string(slot));
    ++result_.datagrams_sent;
    result_.bytes_sent += pack_buf_.size();
    if (fault::point("net.recv")) throw fault::FaultInjected("net.recv");
    // The shim passed this frame, so the lossless transport owes it to us.
    const std::optional<WireError> err = receive(rx_);
    if (!err)
      throw std::runtime_error(
          "net: datagram lost on the lossless transport (slot " +
          std::to_string(slot) + ", symbol " + std::to_string(e.id) + ")");
    if (*err != WireError::kOk)
      throw std::runtime_error("net: frame rejected on loopback: " +
                               std::string(to_string(*err)));
    packet_ = to_emission(parsed_.data);
    const bool valid = receiver_.on_slot(&parsed_);
    return {&packet_, parsed_.data.payload, valid};
  }

  /// In-stream reports, every `report_interval` slots.
  void step() {
    if (cfg_.report_interval > 0 &&
        receiver_.pending_events() >= cfg_.report_interval)
      send_report();
  }

  /// Reverse path: the receiver compresses its slot trace into a
  /// LossReport frame; the sender parses it into the channel estimator.
  void send_report() {
    if (receiver_.pending_events() == 0) return;
    const ReportFrame report = receiver_.take_report();
    hook_.timed(obs::Phase::kNetPack, [&] { pack(report, pack_buf_); });
    if (!hook_.timed(obs::Phase::kNetSend, [&] { return rx_.send(pack_buf_); }))
      throw std::runtime_error("net: report send backpressure");
    ++result_.reports_sent;
    const std::optional<WireError> err = receive(tx_);
    if (!err) throw std::runtime_error("net: report lost on loopback");
    if (*err != WireError::kOk || parsed_.type != FrameType::kReport)
      throw std::runtime_error("net: malformed report on loopback");
    estimator_.observe_report(parsed_.report.report);
    ++result_.reports_received;
  }

  [[nodiscard]] ChannelEstimate estimate() const {
    return estimator_.estimate();
  }

 private:
  /// Receives one datagram at `end` and parses it: nullopt when nothing
  /// arrived before the timeout, else the parse verdict.
  std::optional<WireError> receive(Transport& end) {
    const std::ptrdiff_t n = hook_.timed(obs::Phase::kNetRecv, [&] {
      return end.recv({recv_buf_.data(), recv_buf_.size()},
                      static_cast<int>(cfg_.recv_timeout_ms));
    });
    if (n < 0) return std::nullopt;
    return hook_.timed(obs::Phase::kNetUnpack, [&] {
      return parse({recv_buf_.data(), static_cast<std::size_t>(n)}, parsed_);
    });
  }

  const NetTrialConfig& cfg_;
  Transport& tx_;  ///< sender -> receiver
  Transport& rx_;  ///< same pipe, receiver end
  ImpairmentShim& shim_;
  NetSender& sender_;
  NetReceiver& receiver_;
  const obs::Hook& hook_;
  NetTrialResult& result_;
  ChannelEstimator estimator_;

  DataFrame frame_;
  std::vector<std::uint8_t> pack_buf_;
  std::array<std::uint8_t, kDataOverhead + kMaxPayload> recv_buf_{};
  ParsedFrame parsed_;
  Emission packet_;
};

}  // namespace

NetTrialResult run_net_trial(const NetTrialConfig& cfg, LossModel& channel,
                             std::uint64_t seed, std::uint32_t object_id) {
  cfg.validate();
  const obs::Hook hook;
  TransportPair pair = make_transport_pair(cfg.transport);
  ImpairmentShim shim(channel);

  StreamCode code;
  StreamReceiver decoders;
  std::optional<NetSender> sender;
  std::optional<NetReceiver> receiver;
  hook.timed(obs::Phase::kEncode, [&] {
    code.build(cfg.stream, seed);
    code.schedule();
    sender.emplace(code, cfg.payload_bytes, seed, object_id);
    receiver.emplace(code, cfg.payload_bytes, seed, object_id);
    decoders.reset(code, hook, cfg.payload_bytes,
                   [&](std::uint64_t s, std::span<const std::uint8_t> bytes) {
                     receiver->verify(s, bytes);
                   });
  });

  NetTrialResult result;
  WireLink link(cfg, *pair.a, *pair.b, shim, *sender, *receiver, hook, result);
  shim.reset(derive_seed(seed, {0}));
  result.stream = run_slots(code, decoders, link, hook);
  link.send_report();
  result.datagrams_dropped = shim.dropped();
  result.sources_verified = receiver->sources_verified();
  result.payload_mismatches = receiver->payload_mismatches();
  result.frames_rejected = receiver->frames_rejected();
  result.estimate = link.estimate();
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
