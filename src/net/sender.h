// Sender side of the net engine: turns the transmission core's emissions
// (stream/transmission) into wire frames with real payload bytes.
//
// The code (sliding configuration, RsePlan, LDGM graph, schedule) and the
// emission order come from the StreamCode every engine shares, so the
// wire carries exactly what the simulation sends: any delivered-delay
// difference between a net trial and its simulation twin is a transport
// bug, not a schedule drift.  This class only adds the bytes — source
// payloads, sliding repairs, RSE and LDGM parity — and frames them.
//
// Source payloads are synthesized deterministically from the trial seed
// (substream {4, s}), so the receiver can regenerate the expected bytes
// of ANY source — including FEC-recovered ones it never saw on the wire
// — and byte-verify the whole stream end to end.  The paced schemes
// generate each source when it is framed; only the block encoders, which
// need every source before the first parity, hold them all.

#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "fec/rse_object.h"
#include "net/wire.h"
#include "stream/sliding_window.h"
#include "stream/transmission.h"

namespace fecsched::net {

class NetSender {
 public:
  /// Builds the sliding encoder, or synthesizes the source payloads and
  /// the block parity, for `code`, which must outlive the sender.
  NetSender(const StreamCode& code, std::size_t payload_bytes,
            std::uint64_t seed, std::uint32_t object_id);

  /// Deterministic payload of source `s` (substream {4, s} of `seed`) —
  /// the shared ground truth receiver-side verification regenerates.
  static void source_payload(std::uint64_t seed, std::uint64_t s,
                             std::size_t bytes, std::vector<std::uint8_t>& out);

  /// Frame for emission `e` of the code's plan.  Paced emissions must be
  /// framed in plan order (each source advances the sliding encoder's
  /// window, each repair is the encoder's next).
  void frame(const Emission& e, DataFrame& out);

 private:
  const StreamCode& code_;
  std::size_t payload_bytes_;
  std::uint64_t seed_;
  std::uint32_t object_id_;

  std::vector<std::vector<std::uint8_t>> payloads_;  ///< LDGM sources
  std::vector<std::vector<std::uint8_t>> parity_;    ///< LDGM ids [S, n)
  std::optional<RseObjectEncoder> rse_;  ///< RSE sources and parity
  std::optional<SlidingWindowEncoder> encoder_;
  RepairPacket repair_;
};

}  // namespace fecsched::net
