// Receiver side of the net engine: what a real transport adds on top of
// the transmission core's StreamReceiver (stream/transmission), which the
// net trial feeds with every frame this class lets through.
//
//  * frame validation — object id / scheme / coding seed mismatches,
//    wrong payload lengths, and wire ids or repair spans outside the
//    stream are counted as rejects and never reach the decoders;
//  * byte verification — every source that becomes available (received
//    OR FEC-recovered) is compared against the deterministic ground
//    truth regenerated from the trial seed;
//  * loss reporting — the per-slot loss trace is compressed into
//    adapt::LossReport frames (wire.h) for the reverse path, closing
//    the src/adapt/ estimator loop over the wire.

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "net/wire.h"
#include "stream/transmission.h"

namespace fecsched::net {

/// The emission a validated data frame carries (replication repairs name
/// their duplicated source in span_first).
[[nodiscard]] Emission to_emission(const DataFrame& frame);

class NetReceiver {
 public:
  /// `code` (the out-of-band configuration both ends derive from the
  /// shared seed) must outlive the receiver.
  NetReceiver(const StreamCode& code, std::size_t payload_bytes,
              std::uint64_t seed, std::uint32_t object_id);

  /// One channel slot: `frame` is the delivered frame or nullptr for an
  /// impairment drop.  Returns whether the frame may reach the decoders;
  /// a refused frame counts as a reject.
  bool on_slot(const ParsedFrame* frame);

  /// Compare source `s`'s released bytes with the ground truth.
  void verify(std::uint64_t s, std::span<const std::uint8_t> payload);

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
  /// tag, coding seed or payload length, a wire id or repair span the
  /// sender never emits, or a report frame on the data path.
  [[nodiscard]] std::uint64_t frames_rejected() const noexcept {
    return rejected_;
  }

 private:
  /// Is the frame's payload length, wire id and span one the sender can
  /// emit for this stream?
  [[nodiscard]] bool in_range(const DataFrame& frame) const;

  const StreamCode& code_;
  std::size_t payload_bytes_;
  std::uint64_t seed_;
  std::uint32_t object_id_;

  std::vector<bool> events_;  ///< per-slot loss trace (true = lost)
  std::size_t reported_events_ = 0;

  std::vector<std::uint8_t> expected_;  ///< verification scratch
  std::uint64_t verified_ = 0;
  std::uint64_t mismatches_ = 0;
  std::uint64_t rejected_ = 0;
};

}  // namespace fecsched::net
