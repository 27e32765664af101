// Receiver side of the net engine: parsed wire frames in, the stream
// trial's exact delivery/loss decisions out.
//
// The lockstep driver (net_trial.cc) calls on_slot() exactly once per
// channel slot — with the parsed frame when the impairment shim passed
// it, with nullptr when the emulated link ate it — plus the same
// give-up calls run_stream_trial makes at the same points.  Everything
// else (decode state, the DelayTracker protocol, block give-up rules,
// the end-of-schedule flush) is this class mirroring run_stream_trial's
// receiver half with payload-mode decoders, so the delivered-delay
// distribution is replayed bit-for-bit over a real socket.
//
// On top of the sim's structure the receiver adds what only a real
// transport can check:
//  * byte verification — every source that becomes available (received
//    OR FEC-recovered) is compared against the deterministic ground
//    truth regenerated from the trial seed;
//  * frame validation — object id / scheme / coding seed mismatches are
//    counted as rejects, never processed;
//  * loss reporting — the per-slot loss trace is compressed into
//    adapt::LossReport frames (wire.h) for the reverse path, closing
//    the src/adapt/ estimator loop over the wire.

#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "fec/block_partition.h"
#include "fec/ldgm.h"
#include "fec/peeling_decoder.h"
#include "fec/rse.h"
#include "net/wire.h"
#include "obs/obs.h"
#include "stream/delay_tracker.h"
#include "stream/sliding_window.h"
#include "stream/stream_trial.h"

namespace fecsched::net {

class NetReceiver {
 public:
  /// Rebuilds the out-of-band code state (sliding config, block plan,
  /// LDGM graph, schedule) from the shared seed, exactly as the sender
  /// derives it.  `cfg` must already be validated.
  NetReceiver(const StreamTrialConfig& cfg, std::size_t payload_bytes,
              std::uint64_t seed, std::uint32_t object_id);

  /// One channel slot: `frame` is the delivered frame or nullptr for an
  /// impairment drop.  Runs the sim's delivered/lost branch for this
  /// slot, including the single-cycle RSE block-end give-up.
  void on_slot(const ParsedFrame* frame, std::uint64_t slot);

  /// Paced schemes: the window slid past `horizon`; declare stragglers
  /// lost (run_paced_trial's give-up points, stamped at `slot`).
  void give_up_before(std::uint64_t horizon, std::uint64_t slot);

  /// Block schemes: the schedule (or carousel budget) ran out; release
  /// everything still missing as lost at `slot`.
  void flush(std::uint64_t slot);

  /// Block schemes: all sources delivered?  The driver polls this for
  /// the carousel stop rule (standing in for the receiver's ACK stream).
  [[nodiscard]] bool complete() const noexcept {
    return delivered_sources_ == cfg_.source_count;
  }

  /// The sim's result tail: tracker summary + the channel-level counts
  /// the driver accumulated.
  [[nodiscard]] StreamTrialResult finish_stream(std::uint64_t sent,
                                                std::uint64_t received) const;

  /// LossReport over the events since the previous report (the per-slot
  /// loss trace, compressed to the Gilbert sufficient statistic).
  [[nodiscard]] ReportFrame take_report();
  /// Slots observed since the last take_report().
  [[nodiscard]] std::uint64_t pending_events() const noexcept {
    return events_.size() - reported_events_;
  }

  [[nodiscard]] std::uint64_t sources_verified() const noexcept {
    return verified_;
  }
  [[nodiscard]] std::uint64_t payload_mismatches() const noexcept {
    return mismatches_;
  }
  /// Delivered frames refused before decode: wrong object id, scheme
  /// tag, or coding seed, or a report frame on the data path.
  [[nodiscard]] std::uint64_t frames_rejected() const noexcept {
    return rejected_;
  }

 private:
  void verify(std::uint64_t s, std::span<const std::uint8_t> payload);
  void on_data(const DataFrame& frame, std::uint64_t slot);
  void paced_deliver(const DataFrame& frame, std::uint64_t slot);
  void block_deliver(const DataFrame& frame, std::uint64_t slot);
  void block_ends_check(std::uint64_t slot);

  const obs::Hook hook_;
  StreamTrialConfig cfg_;
  std::size_t payload_bytes_;
  std::uint64_t seed_;
  std::uint32_t object_id_;
  std::uint64_t coding_seed_ = 0;
  bool paced_ = false;

  DelayTracker tracker_;
  std::vector<bool> events_;  ///< per-slot loss trace (true = lost)
  std::size_t reported_events_ = 0;

  // Sliding window / replication state (run_paced_trial's).
  std::optional<SlidingWindowDecoder> decoder_;
  std::vector<char> have_;
  std::uint64_t repl_horizon_ = 0;

  // Block-scheme state (run_block_trial's, plus payload buffers).
  std::shared_ptr<const RsePlan> plan_;
  std::shared_ptr<const LdgmCode> ldgm_;
  std::vector<PacketId> schedule_;
  bool use_block_ends_ = false;
  std::vector<std::vector<std::uint32_t>> ends_at_slot_;
  std::vector<char> seen_;
  std::vector<std::uint32_t> block_received_;
  std::vector<char> block_decoded_;
  std::vector<std::vector<RseCodec::Received>> block_rx_;
  std::optional<PeelingDecoder> peeler_;
  std::uint32_t delivered_sources_ = 0;

  // Verification scratch.
  std::vector<std::uint8_t> expected_;
  std::uint64_t verified_ = 0;
  std::uint64_t mismatches_ = 0;
  std::uint64_t rejected_ = 0;
};

}  // namespace fecsched::net
