// Single-block Reed-Solomon erasure codec over GF(2^8).
//
// Construction follows Rizzo (CCR 1997): an n x k Vandermonde matrix over
// distinct evaluation points alpha^0..alpha^(n-1) is turned systematic by
// right-multiplying with the inverse of its top k x k square, so the first
// k rows become the identity (source packets are transmitted verbatim) and
// rows k..n-1 generate the parity packets.  Any k of the n rows remain
// linearly independent, which makes the code MDS: a receiver decodes from
// *exactly* k received packets of the block, whatever their mix of source
// and parity.
//
// Limits: 1 <= k <= n <= 255 (the evaluation points must be distinct
// non-zero field elements).  Larger objects are segmented into blocks by
// BlockPartition / RseObjectCodec.

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "fec/symbol_arena.h"

namespace fecsched {

/// A borrowed view of one received packet for the zero-allocation decode
/// path: global index within [0, n) plus a pointer to symbol_size payload
/// bytes owned by the caller.
struct ReceivedSymbol {
  std::uint32_t index = 0;
  const std::uint8_t* payload = nullptr;
};

/// Reusable scratch state for RseCodec::decode_into.  One workspace serves
/// any block geometry; reconfiguring between blocks/trials reuses the
/// high-water allocations.  Contents are an implementation detail.
class RseWorkspace {
 public:
  RseWorkspace() = default;

 private:
  friend class RseCodec;
  std::vector<std::uint8_t> a_;            // e x e erased-column system
  std::vector<std::uint8_t> known_;        // e x (k-e) received-source terms
  std::vector<std::uint8_t> inv_scratch_;  // the inversion's padded rows
  SymbolArena rhs_;                        // e parity right-hand sides
  std::vector<char> seen_;
  std::vector<std::uint32_t> erased_;
  std::vector<const ReceivedSymbol*> parity_;
};

/// Systematic Reed-Solomon erasure code for one block.
class RseCodec {
 public:
  /// Maximum block length imposed by GF(2^8).
  static constexpr std::uint32_t kMaxN = 255;

  /// Builds the generator for a (k, n) block.
  /// Throws std::invalid_argument unless 1 <= k <= n <= 255.
  RseCodec(std::uint32_t k, std::uint32_t n);

  [[nodiscard]] std::uint32_t k() const noexcept { return k_; }
  [[nodiscard]] std::uint32_t n() const noexcept { return n_; }

  /// Encode: produce the n-k parity symbols for the given k source symbols.
  /// All symbols must have identical size.  Returns parity[i] = packet k+i.
  [[nodiscard]] std::vector<std::vector<std::uint8_t>>
  encode(std::span<const std::vector<std::uint8_t>> source) const;

  /// Zero-allocation encode core: source_rows[j] points at source symbol j
  /// and parity_rows[i] at the destination for parity symbol i, all
  /// symbol_size bytes and non-overlapping.  The caller validates shapes
  /// once at workspace setup; this path is one addmul_matrix call (the
  /// (n-k) x k parity generator times the sources) with no checks of its
  /// own (the gf/gf256_kernels.h contract).
  void encode_into(const std::uint8_t* const* source_rows,
                   std::size_t symbol_size,
                   std::uint8_t* const* parity_rows) const;

  /// One received packet of the block: its index within [0, n) and payload.
  struct Received {
    std::uint32_t index;
    std::vector<std::uint8_t> payload;
  };

  /// Decode: recover the k source symbols from >= k received packets with
  /// distinct indices.  Throws std::invalid_argument if fewer than k
  /// packets, a duplicate / out-of-range index, or inconsistent sizes are
  /// supplied.  Exactly k packets are used (MDS); extras are ignored.
  [[nodiscard]] std::vector<std::vector<std::uint8_t>>
  decode(std::span<const Received> received) const;

  /// Zero-allocation decode core (beyond workspace growth): recovers all k
  /// source symbols into source_rows[0..k), each symbol_size bytes, from
  /// >= k received packet views with distinct indices.  Throws
  /// std::invalid_argument exactly as decode() does for malformed sets
  /// (payload sizes are the caller's contract).  With e sources erased,
  /// it is two addmul_matrix calls around one e x e inversion: the first
  /// e parity payloads minus the received sources' terms, then the
  /// inverse times those.  The workspace is reusable across calls and
  /// codecs.
  void decode_into(std::span<const ReceivedSymbol> received,
                   std::size_t symbol_size, std::uint8_t* const* source_rows,
                   RseWorkspace& ws) const;

  /// Generator coefficient for packet row `i` (0-based, i in [0,n)) and
  /// source column `j`.  Rows < k form the identity.  Exposed for tests.
  [[nodiscard]] std::uint8_t coefficient(std::uint32_t i, std::uint32_t j) const;

 private:
  std::uint32_t k_;
  std::uint32_t n_;
  // Parity part of the systematic generator, (n-k) x k, row-major.
  std::vector<std::uint8_t> parity_rows_;
};

/// Invert a dense size x size matrix over GF(2^8) in place (row-major):
/// Gauss-Jordan in place over rows padded to 64 bytes, one addmul_matrix
/// call per pivot over every other row.  Throws std::invalid_argument if
/// the matrix is singular.  Exposed for reuse by tests and by future
/// codec variants.
void gf256_invert_matrix(std::vector<std::uint8_t>& m, std::uint32_t size);

/// Allocation-reusing variant: `scratch` holds the elimination's padded
/// rows and its pivot record, and may be reused across calls (it is
/// resized as needed).  On return `m` holds the inverse, as in the vector
/// overload.
void gf256_invert_matrix(std::span<std::uint8_t> m, std::uint32_t size,
                         std::vector<std::uint8_t>& scratch);

}  // namespace fecsched
