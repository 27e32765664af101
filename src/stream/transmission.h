// The transmission core of the streaming engines: what a paced source
// stream protected by FEC sends in which slot, and what its receiver
// makes of whatever arrives.  The stream (stream/stream_trial), multipath
// (mpath/mpath_trial) and net (net/net_trial) engines are drivers over
// this one core, so a scheduling or give-up rule cannot differ between
// the single-path, multipath and wire views of one experiment.
//
// Four protection schemes at matched repair overhead:
//
//  * kSlidingWindow — stream/sliding_window: sources go out as produced,
//    one repair over the last W sources every `1/overhead` sources.
//  * kReplication  — same pacing, but every repair slot re-sends one of
//    the last W sources round-robin (the no-FEC baseline).
//  * kBlockRse     — blocked Reed-Solomon (fec/block_partition geometry,
//    MDS completion rule as in sim/tracker): a block's missing sources
//    are recovered when k_b distinct packets of the block arrived.
//  * kLdgm         — one large-block LDGM code over the whole stream
//    (LdgmParams' defaults: Staircase, left degree 3) with the iterative
//    peeling decoder (fec/peeling_decoder).
//
// Block schemes take a scheduling axis (the paper's Sec. 4 knob, via
// sched/): per-block sequential, interleaved (Tx_model_5 order), or a
// block carousel (the sequential schedule looped up to max_cycles until
// everything is delivered).  Time is discrete: one packet per slot, and
// all delays are measured in slots from the source's own send slot.
//
// The core has three parts:
//
//  * StreamCode builds, from (StreamTrialConfig, seed), everything sender
//    and receiver agree on out of band: the sliding-window configuration
//    (seed substream {2}), the RsePlan or LDGM graph ({3}), the block
//    schedule ({1}) and every source's send slot.
//  * StreamCode::walk() is the emission plan.  Paced schemes send their
//    sources in order with one repair after every `interval`-th source,
//    then a tail of one window's repairs, and draw a give-up line W
//    behind production after every source.  Block schemes send their
//    schedule once, giving each RSE block up in the slot of its last
//    packet, or loop it as a carousel until the receiver completes.
//  * StreamReceiver owns the decoders, the DelayTracker and the give-up,
//    block-deadline and flush rules, and produces the StreamTrialResult.
//    It decodes structure-only, or byte-exact when given payload_bytes
//    (then every released source's bytes go to a sink).
//
// run_slots() drives the plan one slot at a time through a link (a
// channel draw for stream; shim, pack, send, recv and parse for net)
// into the receiver.  The multipath engine records the plan instead,
// resolves every emission over its paths first, and replays arrivals
// and deadlines into the same receiver.

#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "fec/block_partition.h"
#include "fec/ldgm.h"
#include "fec/peeling_decoder.h"
#include "fec/rse_object.h"
#include "obs/obs.h"
#include "stream/delay_tracker.h"
#include "stream/sliding_window.h"

namespace fecsched {

/// FEC protection applied to the stream.
enum class StreamScheme { kSlidingWindow, kReplication, kBlockRse, kLdgm };

[[nodiscard]] constexpr std::string_view to_string(StreamScheme s) noexcept {
  switch (s) {
    case StreamScheme::kSlidingWindow: return "sliding-window";
    case StreamScheme::kReplication: return "replication";
    case StreamScheme::kBlockRse: return "block-rse";
    case StreamScheme::kLdgm: return "ldgm";
  }
  return "?";
}

/// Packet scheduling for the block schemes (ignored by kSlidingWindow and
/// kReplication, which are inherently sequential).
enum class StreamScheduling {
  kSequential,   ///< each block: its sources, then its parity
  kInterleaved,  ///< Tx_model_5 order (sched/tx_models)
  kCarousel,     ///< sequential schedule looped
};

[[nodiscard]] constexpr std::string_view to_string(
    StreamScheduling s) noexcept {
  switch (s) {
    case StreamScheduling::kSequential: return "sequential";
    case StreamScheduling::kInterleaved: return "interleaved";
    case StreamScheduling::kCarousel: return "carousel";
  }
  return "?";
}

/// Everything that defines one streaming trial.
struct StreamTrialConfig {
  StreamScheme scheme = StreamScheme::kSlidingWindow;
  StreamScheduling scheduling = StreamScheduling::kSequential;
  std::uint32_t source_count = 2000;  ///< stream length in source packets
  /// Repair overhead (n-k)/k.  The sliding/replication schemes realise it
  /// as one repair every round(1/overhead) sources; the block schemes as
  /// the expansion ratio 1 + overhead.
  double overhead = 0.25;
  std::uint32_t window = 64;   ///< sliding window W / replication span
  std::uint32_t block_k = 64;  ///< target sources per RSE block
  std::uint32_t max_cycles = 4;  ///< kCarousel repetitions
  SlidingCoefficients coefficients = SlidingCoefficients::kRandomGf256;

  /// Throws std::invalid_argument on inconsistent parameters.
  void validate() const;
  /// round(1/overhead), the sliding/replication repair pacing.
  [[nodiscard]] std::uint32_t repair_interval() const;
};

/// Outcome of one streaming trial.
struct StreamTrialResult {
  DelaySummary delay;
  ResidualLossStats residual;
  /// Release-time delay (slots) of every delivered source, release order —
  /// the full distribution, kept for the CLI's JSON output.
  std::vector<double> delays;
  std::uint64_t packets_sent = 0;
  std::uint64_t packets_received = 0;
  double overhead_actual = 0.0;  ///< repair packets actually sent / sources
  bool all_delivered = false;    ///< no source was released as lost
};

/// One packet of the emission plan: the id, kind and coverage a wire
/// frame carries (a replication frame names `dup` in its span).
struct Emission {
  /// Source seq; S + repair seq for a paced repair; the code's PacketId
  /// (sources [0, S), parity from S up) for the block schemes.
  std::uint64_t id = 0;
  bool repair = false;
  /// Paced repair: the window [first, last) it was built over, the last
  /// min(W, produced) sources.
  std::uint64_t first = 0;
  std::uint64_t last = 0;
  /// Replication repair: the source it re-sends (round-robin over the
  /// window).
  std::uint64_t dup = 0;
};

/// The code and schedule of one trial (see the file comment).  Buffers
/// are reused across build() calls, so a workspace keeps one.
class StreamCode {
 public:
  StreamCode() = default;
  /// build() then schedule().
  StreamCode(const StreamTrialConfig& cfg, std::uint64_t seed);

  /// Builds the code for a trial of `cfg` (which must be valid) under
  /// `seed`: the sliding configuration and send slots (paced schemes) or
  /// the RsePlan / LDGM graph (block schemes).
  void build(const StreamTrialConfig& cfg, std::uint64_t seed);
  /// Block schemes: draws the one-cycle schedule, and the send slots and
  /// RSE block ends that follow from it.  Does nothing for paced schemes.
  void schedule();

  [[nodiscard]] const StreamTrialConfig& config() const noexcept {
    return cfg_;
  }
  [[nodiscard]] bool paced() const noexcept { return paced_; }
  /// The sliding-window configuration (paced schemes).
  [[nodiscard]] const SlidingWindowConfig& sliding() const noexcept {
    return sliding_;
  }
  [[nodiscard]] const std::shared_ptr<const RsePlan>& rse() const noexcept {
    return rse_;
  }
  [[nodiscard]] const LdgmCode* ldgm() const noexcept { return ldgm_.get(); }
  /// The seed tag frames carry: the sliding seed, the LDGM graph seed, or
  /// 0 for the seedless schemes.
  [[nodiscard]] std::uint64_t coding_seed() const noexcept {
    return coding_seed_;
  }
  /// Packet ids of the block code (sources and parity); 0 when paced.
  [[nodiscard]] std::uint64_t block_ids() const noexcept;
  /// Slot of every source's first transmission.
  [[nodiscard]] const std::vector<std::uint64_t>& send_slots() const noexcept {
    return send_slot_;
  }

  /// Walks the emission plan in slot order, calling on `plan`:
  ///   emit(const Emission&, slot)    once per slot;
  ///   give_up(horizon, slot)         paced: the window slid past every
  ///                                  source below `horizon`;
  ///   release_block(b, slot)         single-cycle RSE: block b's last
  ///                                  packet went out in `slot`;
  ///   step()                         after each source and its repair
  ///                                  (paced) or each packet (block), not
  ///                                  during the paced tail;
  ///   done()                         carousel: polled before each slot,
  ///                                  true stops the loop;
  ///   flush(slot)                    once, after the last emission.
  template <typename Plan>
  void walk(Plan& plan) const;

 private:
  static constexpr std::uint32_t kNoBlock = ~std::uint32_t{0};

  StreamTrialConfig cfg_;
  std::uint64_t seed_ = 0;
  bool paced_ = true;
  std::uint64_t interval_ = 1;
  std::uint64_t cycles_ = 1;
  SlidingWindowConfig sliding_;
  std::shared_ptr<const RsePlan> rse_;
  std::shared_ptr<const LdgmCode> ldgm_;
  std::uint64_t coding_seed_ = 0;
  std::vector<PacketId> schedule_;
  std::vector<std::uint64_t> send_slot_;
  /// Single-cycle RSE: the block whose last packet goes out in each slot.
  std::vector<std::uint32_t> block_end_;
};

template <typename Plan>
void StreamCode::walk(Plan& plan) const {
  const std::uint64_t S = cfg_.source_count;
  std::uint64_t slot = 0;
  if (paced_) {
    const std::uint64_t W = cfg_.window;
    std::uint64_t repairs = 0;
    const auto repair = [&](std::uint64_t produced) {
      const std::uint64_t span = std::min(W, produced);
      plan.emit(Emission{S + repairs, true, produced - span, produced,
                         produced - 1 - repairs % span},
                slot++);
      ++repairs;
    };
    for (std::uint64_t s = 0; s < S; ++s) {
      plan.emit(Emission{s}, slot++);
      const std::uint64_t produced = s + 1;
      if (produced > W) plan.give_up(produced - W, slot);
      if (produced % interval_ == 0) repair(produced);
      plan.step();
    }
    // End-of-stream flush: one extra window's worth of repairs protects
    // the tail, then everything still missing is final.
    for (std::uint64_t i = 0; i < (W + interval_ - 1) / interval_; ++i)
      repair(S);
  } else {
    // No back channel: a single pass emits its whole schedule; only a
    // carousel stops once everything has been delivered.
    const std::uint64_t n = schedule_.size();
    for (; slot < n * cycles_ && (cycles_ == 1 || !plan.done()); ++slot) {
      const PacketId id = schedule_[slot % n];
      plan.emit(Emission{id, id >= S}, slot);
      if (!block_end_.empty() && block_end_[slot] != kNoBlock)
        plan.release_block(block_end_[slot], slot);
      plan.step();
    }
  }
  plan.flush(slot);
}

/// The receiving end of a trial (see the file comment).  Reusable: every
/// member is re-initialised by reset(), so a workspace keeps one.
class StreamReceiver {
 public:
  /// Payload mode's consumer of every released source's bytes.
  using Sink =
      std::function<void(std::uint64_t, std::span<const std::uint8_t>)>;

  /// Starts a trial of `code`, which must stay alive and unchanged until
  /// the trial ends: every source sent at its send slot, fresh decoders.
  /// `payload_bytes` 0 decodes structure-only; otherwise packets carry
  /// that many bytes and `sink` receives each released source's bytes.
  void reset(const StreamCode& code, const obs::Hook& hook,
             std::size_t payload_bytes = 0, Sink sink = {});

  /// `packet` arrived at time `t` (with its bytes in payload mode).
  void on_packet(const Emission& packet, std::span<const std::uint8_t> payload,
                 double t);
  /// Paced schemes: no packet still to come can recover a source below
  /// `horizon`; they are released as lost.
  void give_up_before(std::uint64_t horizon, double t);
  /// RSE: no packet of block `b` is still to come; an unsolved block's
  /// missing sources are released as lost.
  void release_block(std::uint32_t b, double t);
  /// End of stream: every source still missing is released as lost.
  void flush(double t);

  /// Block schemes: has every source been released?  The carousel's stop
  /// rule (standing in for the receiver's ACK stream).
  [[nodiscard]] bool complete() const noexcept {
    return released_ == sources_;
  }

  /// The tracker's summary plus the link's packet counts.
  [[nodiscard]] StreamTrialResult result(std::uint64_t sent,
                                         std::uint64_t received) const;

 private:
  void available(std::uint64_t s, double t,
                 std::span<const std::uint8_t> bytes);
  void rse_packet(PacketId id, std::span<const std::uint8_t> payload, double t);
  void lose(PacketId src, double t);

  const StreamCode* code_ = nullptr;
  obs::Hook hook_;
  StreamScheme scheme_ = StreamScheme::kSlidingWindow;
  std::uint64_t sources_ = 0;
  std::size_t payload_bytes_ = 0;
  Sink sink_;

  DelayTracker tracker_;
  std::uint64_t released_ = 0;  ///< block schemes: sources with a fate

  // Paced schemes.
  std::optional<SlidingWindowDecoder> sliding_;
  RepairPacket repair_;
  std::vector<char> have_;  ///< replication: sources delivered
  std::uint64_t horizon_ = 0;  ///< replication: sources given up below

  // Block schemes.
  std::vector<char> seen_;  ///< packet ids received or released
  std::vector<std::uint32_t> block_received_;
  std::vector<char> block_decoded_;
  std::optional<RseObjectDecoder> rse_bytes_;  ///< RSE payload mode
  std::optional<PeelingDecoder> peeler_;
};

/// What a link made of one emission.
struct Arrival {
  /// The packet the receiver got (the wire's view of it for net), or
  /// nullptr when the channel erased the emission.
  const Emission* packet = nullptr;
  std::span<const std::uint8_t> payload;  ///< its bytes, payload mode
  bool valid = true;  ///< passed the receiver's frame checks
};

/// Runs `code`'s emission plan through `link` into `rx`, one slot at a
/// time, and returns the trial's result.  The link resolves each emission
/// (Arrival transmit(const Emission&, std::uint64_t slot)) and is told
/// when a plan step ends (void step()).  Trace events are stamped with
/// the slot number.
template <typename Link>
StreamTrialResult run_slots(const StreamCode& code, StreamReceiver& rx,
                            Link& link, const obs::Hook& hook) {
  struct Slots {
    StreamReceiver& rx;
    Link& link;
    const obs::Hook& hook;
    std::uint64_t sent = 0;
    std::uint64_t received = 0;

    void emit(const Emission& e, std::uint64_t slot) {
      const auto t = static_cast<double>(slot);
      ++sent;
      hook.sent(t, e.id, e.repair);
      const Arrival a = link.transmit(e, slot);
      if (a.packet == nullptr) {
        hook.lost(t, e.id, e.repair);
        return;
      }
      ++received;
      hook.received(t, a.packet->id, a.packet->repair);
      if (a.valid) rx.on_packet(*a.packet, a.payload, t);
    }
    void give_up(std::uint64_t horizon, std::uint64_t slot) {
      rx.give_up_before(horizon, static_cast<double>(slot));
    }
    void release_block(std::uint32_t b, std::uint64_t slot) {
      rx.release_block(b, static_cast<double>(slot));
    }
    void step() { link.step(); }
    [[nodiscard]] bool done() const { return rx.complete(); }
    void flush(std::uint64_t slot) { rx.flush(static_cast<double>(slot)); }
  } slots{rx, link, hook};
  code.walk(slots);
  return rx.result(slots.sent, slots.received);
}

/// The engine-side aggregates a trace summary carries (`<engine>.trials`,
/// packets, sources, residual runs, the release-delay histogram),
/// computed from the tracker's accounting rather than the emitted events
/// so tools/trace_stats can cross-check the two.
void count_stream_metrics(const obs::Hook& hook, std::string_view engine,
                          const StreamTrialResult& result,
                          std::uint64_t sources);

}  // namespace fecsched
