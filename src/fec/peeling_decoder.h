// Iterative ("peeling") erasure decoder for LDGM codes (Sec. 2.3.2).
//
// The parity-check matrix defines n-k equations "XOR of neighbours = 0"
// over n variables (source + parity packets).  Every received packet fixes
// one variable; when an equation is left with a single unknown variable,
// that variable equals the XOR of the equation's known members, and the
// recovery cascades.  Decoding is incremental — packets are fed in arrival
// order and the decoder may be queried (or abandoned) at any time.
//
// The same engine serves two purposes:
//  * structure-only simulation (symbol_size == 0): no payloads are stored,
//    only the equation bookkeeping runs — this is what the paper's grid
//    sweeps execute millions of times;
//  * real decoding (symbol_size > 0): per-equation XOR accumulators carry
//    the payload bytes so recovered packets materialise their content.
//
// Per-row state is O(1): an unknown-counter plus the XOR of unknown
// variable ids, which yields the last unknown's id without scanning the
// row.  Total work is O(nnz) across a whole decode.

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "fec/sparse_matrix.h"
#include "fec/types.h"

namespace fecsched {

/// Incremental peeling decoder over a parity-check matrix.
class PeelingDecoder {
 public:
  /// `h` must outlive the decoder.  `k` is the source packet count
  /// (variables [0,k) are sources).  `symbol_size` of 0 selects the
  /// structure-only mode.
  PeelingDecoder(const SparseBinaryMatrix& h, std::uint32_t k,
                 std::size_t symbol_size = 0);

  /// Feed one received packet.  In payload mode `payload` must hold
  /// symbol_size bytes; in structure-only mode it is ignored.
  /// Returns the number of variables that became known as a result
  /// (0 for a duplicate, >= 1 otherwise — 1 for the packet itself plus
  /// any cascaded recoveries).
  std::uint32_t add_packet(PacketId id,
                           std::span<const std::uint8_t> payload = {});

  /// Source ids (< k) the latest add_packet / force_known call made
  /// known: the packet itself when it is a source, plus every source its
  /// cascade recovered, ascending.  Empty after a duplicate.  Streaming
  /// receivers release exactly these instead of rescanning every unknown
  /// source.  The cascade finds sources in stack order, so this sorts the
  /// list in place (almost always one id); callers that never ask, like
  /// the grid trackers, never pay for the sort.  Valid until the next
  /// add_packet / force_known / reset.
  [[nodiscard]] std::span<const PacketId> solved_sources();

  /// All k source packets recovered?
  [[nodiscard]] bool source_complete() const noexcept {
    return known_sources_ == k_;
  }
  [[nodiscard]] std::uint32_t known_source_count() const noexcept {
    return known_sources_;
  }
  [[nodiscard]] std::uint32_t known_variable_count() const noexcept {
    return known_total_;
  }
  [[nodiscard]] bool is_known(PacketId id) const { return known_.at(id) != 0; }

  [[nodiscard]] std::uint32_t k() const noexcept { return k_; }
  [[nodiscard]] std::uint32_t n() const noexcept { return h_->cols(); }
  [[nodiscard]] std::size_t symbol_size() const noexcept { return symbol_size_; }
  [[nodiscard]] const SparseBinaryMatrix& matrix() const noexcept { return *h_; }

  /// Payload of a recovered variable (payload mode only; throws
  /// std::logic_error if the variable is unknown or in structure-only mode).
  [[nodiscard]] std::span<const std::uint8_t> symbol(PacketId id) const;

  /// Number of unknown variables remaining in equation `row` — exposed for
  /// the Gaussian-elimination fallback and for tests.
  [[nodiscard]] std::uint32_t unknowns_in_row(std::uint32_t row) const {
    return row_unknowns_.at(row);
  }

  /// XOR accumulator of the *known* members' payloads of `row`
  /// (payload mode only).  Used by the GE fallback.
  [[nodiscard]] std::span<const std::uint8_t> row_accumulator(std::uint32_t row) const;

  /// Inject an externally solved variable (used by the GE fallback).
  /// Triggers the normal cascade.  Returns newly known variable count.
  std::uint32_t force_known(PacketId id, std::span<const std::uint8_t> payload = {});

  /// Reset to the freshly constructed state, keeping allocations.
  void reset();

  /// Re-point the decoder at a different matrix/geometry, reusing the
  /// existing buffers wherever capacities allow (the trial-workspace path:
  /// sweeps construct a fresh LDGM graph per trial but want the decoder's
  /// arrays reused).  Validates exactly like the constructor, then
  /// reset()s.
  void rebind(const SparseBinaryMatrix& h, std::uint32_t k,
              std::size_t symbol_size = 0);

 private:
  std::uint32_t make_known(PacketId id, const std::uint8_t* payload);
  std::uint32_t solve(PacketId id, const std::uint8_t* payload);

  const SparseBinaryMatrix* h_;
  std::uint32_t k_;
  std::size_t symbol_size_;
  std::vector<char> known_;                 // per variable
  std::vector<std::uint32_t> row_unknowns_; // per equation
  std::vector<std::uint32_t> row_xor_id_;   // XOR of unknown ids per equation
  std::vector<std::uint8_t> symbols_;       // n * symbol_size (payload mode)
  std::vector<std::uint8_t> row_acc_;       // rows * symbol_size (payload mode)
  std::vector<std::uint32_t> ready_rows_;   // scratch stack
  std::vector<PacketId> solved_;            // sources of the latest call
  std::uint32_t known_sources_ = 0;
  std::uint32_t known_total_ = 0;
};

}  // namespace fecsched
