// Object-level Reed-Solomon erasure codec: applies RseCodec per block
// according to an RsePlan, exposing the flat global packet-id space used
// by the schedulers and sessions.  Each instance builds one generator per
// block geometry (at most two in an RFC 5052 partition) as it works: the
// encoder while it walks the blocks, the decoder when a geometry's first
// block completes, so a decoder that has decoded nothing has built nothing.

#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "fec/block_partition.h"
#include "fec/rse.h"

namespace fecsched {

/// Sender-side encoder for a whole (blocked) object.
class RseObjectEncoder {
 public:
  /// `source` holds the object's k source symbols (equal sizes) in object
  /// order; the plan determines segmentation.  Symbols are copied in.
  RseObjectEncoder(std::shared_ptr<const RsePlan> plan,
                   std::span<const std::vector<std::uint8_t>> source);

  [[nodiscard]] const RsePlan& plan() const noexcept { return *plan_; }

  /// Payload of any global packet id (source ids return the original
  /// symbol; parity ids return the precomputed parity symbol).
  [[nodiscard]] const std::vector<std::uint8_t>& payload(PacketId id) const;

 private:
  std::shared_ptr<const RsePlan> plan_;
  std::vector<std::vector<std::uint8_t>> source_;  // by global source id
  std::vector<std::vector<std::uint8_t>> parity_;  // by global parity id - k
};

/// Receiver-side incremental decoder for a whole (blocked) object.
///
/// Packets are fed in arrival order; each block is solved as soon as it
/// has k_b distinct packets (the MDS property).  `complete()` flips once
/// every block is decoded.
class RseObjectDecoder {
 public:
  RseObjectDecoder(std::shared_ptr<const RsePlan> plan, std::size_t symbol_size);

  /// Feed one received packet.  Duplicate ids are ignored.
  /// Returns true if this packet completed the whole object.
  bool on_packet(PacketId id, std::span<const std::uint8_t> payload);

  [[nodiscard]] bool complete() const noexcept {
    return decoded_blocks_ == plan_->block_count();
  }

  /// Recovered source symbol by global source id.  Only valid once the
  /// owning block is decoded (throws std::logic_error otherwise).
  [[nodiscard]] const std::vector<std::uint8_t>& source_symbol(PacketId id) const;

  /// Distinct useful packets absorbed so far.
  [[nodiscard]] std::uint32_t packets_used() const noexcept { return used_; }

 private:
  struct BlockState {
    std::vector<RseCodec::Received> received;
    bool decoded = false;
    std::vector<std::vector<std::uint8_t>> source;  // filled when decoded
  };

  std::shared_ptr<const RsePlan> plan_;
  std::size_t symbol_size_;
  std::vector<BlockState> blocks_;
  std::vector<char> seen_;
  std::vector<RseCodec> codecs_;  ///< one generator per block geometry, built
                                  ///< when its first block completes
  RseWorkspace workspace_;  ///< decode scratch, reused across blocks
  std::uint32_t decoded_blocks_ = 0;
  std::uint32_t used_ = 0;
};

}  // namespace fecsched
