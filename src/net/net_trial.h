// One streaming trial replayed over a real datagram transport.
//
// run_net_trial() is the wire twin of stream/stream_trial's
// run_stream_trial(): the same transmission core (code, emission plan,
// receiver and slot loop, stream/transmission) and the same channel
// substream (derive_seed(seed, {0}), drawn once per datagram in
// transmission order by the ImpairmentShim) — but its link sends every
// surviving symbol across a socket as a wire.h frame and parses it back
// before it reaches the decoders.  The link works ahead of the slot
// loop in batches: it frames, draws and packs the next emissions of the
// recorded plan, sends the survivors in one segmented send (up to
// kMaxSegments datagrams, kMaxSegmentBytes bytes) and reads them back,
// then hands the receiver one frame per slot, in slot order.  No arrival
// is deferred past its slot, so the delivered-delay distribution matches
// the simulation EXACTLY (tolerance zero) — the sim-vs-wire parity gate
// in ci.sh pins this.  A carousel, whose end depends on the receiver,
// moves one datagram per call.
//
// Because impairment is injected above a lossless transport, a datagram
// the shim passed MUST arrive; a timeout or parse failure on the
// loopback is a hard std::runtime_error, never silently absorbed into
// the loss statistics.
//
// The reverse path carries adapt::LossReport frames (every
// `report_interval` slots and at end of stream) into a ChannelEstimator
// on the sender side — the live wire closure of the src/adapt/ loop;
// the resulting estimate ships in the trial result.

#pragma once

#include <cstdint>
#include <string>

#include "adapt/channel_estimator.h"
#include "channel/loss_model.h"
#include "stream/stream_trial.h"

namespace fecsched::net {

struct NetTrialConfig {
  StreamTrialConfig stream;
  std::size_t payload_bytes = 64;  ///< source symbol size on the wire
  std::string transport = "udp";   ///< "udp" or "memory"
  /// How long the receiver waits for a datagram the shim passed before
  /// declaring the lossless transport broken.
  std::uint32_t recv_timeout_ms = 2000;
  /// Slots between in-stream LossReports on the reverse path; 0 sends a
  /// single end-of-stream report.
  std::uint32_t report_interval = 0;

  /// Throws std::invalid_argument on inconsistent parameters.
  void validate() const;
};

struct NetTrialResult {
  /// Identical semantics to StreamTrialResult from run_stream_trial —
  /// byte-for-byte equal to the simulation twin under the same seed.
  StreamTrialResult stream;
  std::uint64_t datagrams_sent = 0;     ///< put on the transport
  std::uint64_t datagrams_dropped = 0;  ///< eaten by the impairment shim
  std::uint64_t bytes_sent = 0;         ///< wire bytes incl. framing
  std::uint64_t sources_verified = 0;   ///< delivered sources matching ground truth
  std::uint64_t payload_mismatches = 0;
  std::uint64_t frames_rejected = 0;    ///< receiver-side validation refusals
  std::uint64_t reports_sent = 0;       ///< LossReport frames on the reverse path
  std::uint64_t reports_received = 0;
  ChannelEstimate estimate;             ///< wire-fed estimator's view
};

/// Run one trial over a fresh transport pair.  The channel is reset from
/// `seed` exactly as run_stream_trial resets it; `object_id` stamps the
/// frames (engines pass the trial ordinal).
[[nodiscard]] NetTrialResult run_net_trial(const NetTrialConfig& cfg,
                                           LossModel& channel,
                                           std::uint64_t seed,
                                           std::uint32_t object_id = 0);

}  // namespace fecsched::net
