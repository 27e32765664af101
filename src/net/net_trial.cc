#include "net/net_trial.h"

#include <algorithm>
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

/// Records the emission plan, one entry per slot.  A carousel's plan runs
/// to its last cycle; the trial itself may stop earlier.
struct PlanRecorder {
  std::vector<Emission>& plan;

  void emit(const Emission& e, std::uint64_t /*slot*/) { plan.push_back(e); }
  void give_up(std::uint64_t /*horizon*/, std::uint64_t /*slot*/) {}
  void release_block(std::uint32_t /*b*/, std::uint64_t /*slot*/) {}
  void step() {}
  [[nodiscard]] bool done() const { return false; }
  void flush(std::uint64_t /*slot*/) {}
};

[[nodiscard]] bool same_emission(const Emission& a, const Emission& b) {
  return a.id == b.id && a.repair == b.repair && a.first == b.first &&
         a.last == b.last && a.dup == b.dup;
}

/// The wire link.  On reaching a slot it has not fetched, it frames the
/// next `batch` emissions of the recorded plan, draws each against the
/// emulated channel at the sender, packs the survivors end to end, sends
/// them in one transport call and parses every datagram the receiving
/// end reads back.  transmit() then hands the receiver one frame (or
/// drop) per slot, in slot order, so the slot loop sees the arrivals it
/// would see with one datagram per call.  Between plan steps the
/// receiver's loss trace goes back as a LossReport frame into the
/// sender's channel estimator.
class WireLink {
 public:
  WireLink(const NetTrialConfig& cfg, const std::vector<Emission>& plan,
           std::size_t batch, Transport& tx, Transport& rx,
           ImpairmentShim& shim, NetSender& sender, NetReceiver& receiver,
           const obs::Hook& hook, NetTrialResult& result)
      : cfg_(cfg), plan_(plan), batch_(batch),
        frame_bytes_(kDataOverhead + cfg.payload_bytes), tx_(tx), rx_(rx),
        shim_(shim), sender_(sender), receiver_(receiver), hook_(hook),
        result_(result), slots_(batch), recv_buf_(kMaxSegmentBytes) {
    // Coalesced reads are only worth their set-up cost when sends carry
    // several datagrams; either way every read is split the same way.
    if (batch_ > 1) rx_.coalesce();
  }

  Arrival transmit(const Emission& e, std::uint64_t slot) {
    if (slot != next_ || slot >= plan_.size() ||
        !same_emission(e, plan_[slot]))
      throw std::logic_error("net: slot " + std::to_string(slot) +
                             " is not the recorded plan's next emission");
    if (slot == fetched_) fetch();
    ++next_;
    Slot& s = slots_[slot - first_];
    if (!s.delivered) {
      receiver_.on_slot(nullptr);
      return {};
    }
    packet_ = to_emission(s.frame.data);
    const bool valid = receiver_.on_slot(&s.frame);
    return {&packet_, s.frame.data.payload, valid};
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
    if (!hook_.timed(obs::Phase::kNetSend,
                     [&] { return rx_.send(pack_buf_, pack_buf_.size()); }))
      throw std::runtime_error("net: report send backpressure");
    ++result_.reports_sent;
    const Segments got = receive(tx_);
    if (got.bytes < 0) throw std::runtime_error("net: report lost on loopback");
    const WireError err = hook_.timed(obs::Phase::kNetUnpack, [&] {
      return parse({recv_buf_.data(), static_cast<std::size_t>(got.bytes)},
                   report_);
    });
    if (err != WireError::kOk || report_.type != FrameType::kReport)
      throw std::runtime_error("net: malformed report on loopback");
    estimator_.observe_report(report_.report.report);
    ++result_.reports_received;
  }

  [[nodiscard]] ChannelEstimate estimate() const {
    return estimator_.estimate();
  }

 private:
  /// One slot of the fetched batch.
  struct Slot {
    bool delivered = false;  ///< the shim passed it
    ParsedFrame frame;       ///< what the receiving end parsed
  };

  /// Frames, draws, packs, sends and receives the batch after the last
  /// fetched slot.
  void fetch() {
    first_ = fetched_;
    fetched_ = std::min<std::uint64_t>(first_ + batch_, plan_.size());
    wire_.clear();
    std::size_t survivors = 0;
    for (std::uint64_t slot = first_; slot < fetched_; ++slot) {
      Slot& s = slots_[slot - first_];
      hook_.timed(obs::Phase::kNetPack,
                  [&] { sender_.frame(plan_[slot], frame_); });
      s.delivered = hook_.timed(obs::Phase::kChannelDraw,
                                [&] { return !shim_.drop_next(); });
      if (!s.delivered) continue;
      hook_.timed(obs::Phase::kNetPack, [&] { pack(frame_, pack_buf_); });
      if (pack_buf_.size() != frame_bytes_)
        throw std::logic_error("net: slot " + std::to_string(slot) + " packs " +
                               std::to_string(pack_buf_.size()) +
                               " bytes, not " + std::to_string(frame_bytes_));
      wire_.insert(wire_.end(), pack_buf_.begin(), pack_buf_.end());
      ++survivors;
    }
    if (survivors == 0) return;
    if (fault::point("net.send")) throw fault::FaultInjected("net.send");
    if (!hook_.timed(obs::Phase::kNetSend,
                     [&] { return tx_.send(wire_, frame_bytes_); }))
      throw std::runtime_error("net: loopback send backpressure at slot " +
                               std::to_string(first_));
    result_.datagrams_sent += survivors;
    result_.bytes_sent += wire_.size();
    if (fault::point("net.recv")) throw fault::FaultInjected("net.recv");
    drain(survivors);
  }

  /// Reads back the batch's `survivors` datagrams, in send order, into
  /// the slots the shim passed.  The lossless transport owes us each one.
  void drain(std::size_t survivors) {
    std::uint64_t slot = first_;
    for (std::size_t got = 0; got < survivors;) {
      const Segments read = receive(rx_);
      if (read.bytes < 0)
        throw std::runtime_error(
            "net: datagram lost on the lossless transport (" +
            std::to_string(survivors - got) + " of " +
            std::to_string(survivors) + " missing from the batch at slot " +
            std::to_string(first_) + ")");
      const auto bytes = static_cast<std::size_t>(read.bytes);
      std::size_t off = 0;
      do {
        if (got == survivors)
          throw std::runtime_error("net: more datagrams than sent at slot " +
                                   std::to_string(first_));
        while (!slots_[slot - first_].delivered) ++slot;
        const std::size_t n = std::min(read.segment, bytes - off);
        ParsedFrame& frame = slots_[slot - first_].frame;
        const WireError err = hook_.timed(obs::Phase::kNetUnpack, [&] {
          return parse({recv_buf_.data() + off, n}, frame);
        });
        if (err != WireError::kOk)
          throw std::runtime_error("net: frame rejected on loopback: " +
                                   std::string(to_string(err)));
        if (frame.type == FrameType::kData &&
            frame.data.symbol_id != plan_[slot].id)
          throw std::runtime_error("net: slot " + std::to_string(slot) +
                                   " received symbol " +
                                   std::to_string(frame.data.symbol_id) +
                                   " out of order");
        off += n;
        ++got;
        ++slot;
      } while (off < bytes);
    }
  }

  /// One read at `end`, waiting up to the configured timeout.
  Segments receive(Transport& end) {
    return hook_.timed(obs::Phase::kNetRecv, [&] {
      return end.recv(recv_buf_, static_cast<int>(cfg_.recv_timeout_ms));
    });
  }

  const NetTrialConfig& cfg_;
  const std::vector<Emission>& plan_;
  const std::size_t batch_;
  const std::size_t frame_bytes_;
  Transport& tx_;  ///< sender -> receiver
  Transport& rx_;  ///< same pipe, receiver end
  ImpairmentShim& shim_;
  NetSender& sender_;
  NetReceiver& receiver_;
  const obs::Hook& hook_;
  NetTrialResult& result_;
  ChannelEstimator estimator_;

  std::uint64_t next_ = 0;     ///< the slot transmit() serves next
  std::uint64_t first_ = 0;    ///< first slot of the fetched batch
  std::uint64_t fetched_ = 0;  ///< first slot not yet fetched
  std::vector<Slot> slots_;
  DataFrame frame_;
  std::vector<std::uint8_t> pack_buf_;
  std::vector<std::uint8_t> wire_;  ///< the batch's datagrams end to end
  std::vector<std::uint8_t> recv_buf_;
  ParsedFrame report_;
  Emission packet_;  ///< the frame transmit() hands on, as an emission
};

/// Datagrams per send: as many frames as one segmented send takes.  A
/// block carousel stops on the receiver's state, which only the slot
/// loop sees, so it moves one datagram per call: nothing is drawn or
/// sent past its last slot.
[[nodiscard]] std::size_t batch_size(const NetTrialConfig& cfg,
                                     const StreamCode& code) {
  if (!code.paced() && cfg.stream.scheduling == StreamScheduling::kCarousel)
    return 1;
  return std::min(kMaxSegments,
                  kMaxSegmentBytes / (kDataOverhead + cfg.payload_bytes));
}

}  // namespace

NetTrialResult run_net_trial(const NetTrialConfig& cfg, LossModel& channel,
                             std::uint64_t seed, std::uint32_t object_id) {
  cfg.validate();
  const obs::Hook hook;
  TransportPair pair = make_transport_pair(cfg.transport);
  ImpairmentShim shim(channel);

  StreamCode code;
  StreamReceiver decoders;
  std::vector<Emission> plan;
  std::optional<NetSender> sender;
  std::optional<NetReceiver> receiver;
  hook.timed(obs::Phase::kEncode, [&] {
    code.build(cfg.stream, seed);
    code.schedule();
    PlanRecorder recorder{plan};
    code.walk(recorder);
    sender.emplace(code, cfg.payload_bytes, seed, object_id);
    receiver.emplace(code, cfg.payload_bytes, seed, object_id);
    decoders.reset(code, hook, cfg.payload_bytes,
                   [&](std::uint64_t s, std::span<const std::uint8_t> bytes) {
                     receiver->verify(s, bytes);
                   });
  });

  NetTrialResult result;
  WireLink link(cfg, plan, batch_size(cfg, code), *pair.a, *pair.b, shim,
                *sender, *receiver, hook, result);
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
