// PacketPlan: the structural description of one encoded object that the
// packet schedulers and the simulation need — how many source and parity
// packets exist, how they map onto FEC blocks, and what the code-specific
// "interleaved" transmission order (Tx_model_5) looks like.
//
// A plan carries no payload data; it is shared between the streaming
// transmission core (stream/) and the structure-only simulation (sim/).

#pragma once

#include <cstdint>
#include <vector>

#include "fec/types.h"

namespace fecsched {

/// Abstract structural plan of an encoded object.
class PacketPlan {
 public:
  virtual ~PacketPlan() = default;

  /// Number of source packets.
  [[nodiscard]] virtual std::uint32_t k() const noexcept = 0;
  /// Total number of packets (source + parity).
  [[nodiscard]] virtual std::uint32_t n() const noexcept = 0;
  /// Number of parity packets.
  [[nodiscard]] std::uint32_t parity_count() const noexcept { return n() - k(); }
  /// Number of FEC blocks the object is segmented into (1 for large-block
  /// codes such as LDGM).
  [[nodiscard]] virtual std::uint32_t block_count() const noexcept { return 1; }

  /// True if `id` designates a source packet.
  [[nodiscard]] bool is_source(PacketId id) const noexcept { return id < k(); }

  /// The code-specific interleaved order used by Tx_model_5 (Sec. 4.7):
  /// for blocked codes, one packet of each block in turn; for large-block
  /// codes, source and parity packets interleaved in the n/k ratio.
  [[nodiscard]] virtual std::vector<PacketId> interleaved_order() const = 0;
};

}  // namespace fecsched
