// LDGM large-block FEC codes (Sec. 2.3): plain LDGM, LDGM Staircase and
// LDGM Triangle.
//
// The parity-check matrix is H = [H1 | P], an (n-k) x n binary matrix:
//
//  * H1 ((n-k) x k) connects source packets to check nodes.  Every source
//    column has exactly `left_degree` (default 3) distinct ones, and the
//    ones are spread as evenly as possible across rows ("regular"
//    distribution, built by shuffling a balanced bag of row indices — the
//    construction used by the authors' open-source codec).
//
//  * P ((n-k) x (n-k)) depends on the variant:
//      - Identity:   P = I                     (plain LDGM)
//      - Staircase:  P = I plus the sub-diagonal (p_i depends on p_{i-1})
//      - Triangle:   Staircase plus a "progressive" fill of the lower
//        triangle.  The paper defers the exact rule to RR-5225; we give
//        every check row i >= 2 `triangle_extra_per_row` (default 1)
//        extra one(s) at uniformly chosen earlier parity columns
//        (strictly below the staircase diagonal).  Early parity packets
//        accumulate progressively more dependents — the Fig. 2 structure —
//        and the rule reproduces the paper's documented decoding
//        behaviour (Triangle beats Staircase at ratio 2.5).
//
// Each check row i is the equation  XOR of its neighbours = 0, so encoding
// computes p_i = XOR(source neighbours) XOR (earlier parity neighbours) in
// increasing i — O(nnz) total.

#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "fec/plan.h"
#include "fec/sparse_matrix.h"
#include "fec/types.h"

namespace fecsched {

/// Lower-part structure of the LDGM parity-check matrix.
enum class LdgmVariant { kIdentity, kStaircase, kTriangle };

[[nodiscard]] constexpr std::string_view to_string(LdgmVariant v) noexcept {
  switch (v) {
    case LdgmVariant::kIdentity: return "LDGM";
    case LdgmVariant::kStaircase: return "LDGM Staircase";
    case LdgmVariant::kTriangle: return "LDGM Triangle";
  }
  return "?";
}

/// The variant an LDGM `code` builds.  Throws std::invalid_argument for
/// the codes that are not LDGM (RSE, replication).
[[nodiscard]] LdgmVariant ldgm_variant(CodeKind code);

/// One component of an irregular left-degree distribution.
struct DegreeFraction {
  std::uint32_t degree = 0;  ///< ones per source column for this group
  double fraction = 0.0;     ///< share of source columns with this degree
};

/// Construction parameters for an LDGM code.
struct LdgmParams {
  std::uint32_t k = 0;  ///< source packets
  std::uint32_t n = 0;  ///< total packets; parity count is n - k
  LdgmVariant variant = LdgmVariant::kStaircase;
  std::uint32_t left_degree = 3;            ///< ones per source column
  std::uint32_t triangle_extra_per_row = 1;  ///< Triangle only
  std::uint64_t seed = 0;                   ///< graph construction seed
  /// Non-empty selects an *irregular* code (the paper's future-work
  /// direction): source columns draw their degree from this distribution
  /// (fractions must sum to ~1) instead of the constant `left_degree`.
  /// Degrees are assigned to randomly chosen columns.
  std::vector<DegreeFraction> irregular_left_degrees;
};

/// One LDGM code instance: the parity-check matrix plus encode support.
/// The same seed yields the same graph on sender and receiver (the seed
/// travels out-of-band, like FLUTE FEC object transmission information).
class LdgmCode final : public PacketPlan {
 public:
  /// Builds the graph.  Throws std::invalid_argument unless
  /// k >= 1, n > k, left_degree >= 1 and left_degree <= n - k.
  explicit LdgmCode(const LdgmParams& params);

  [[nodiscard]] const LdgmParams& params() const noexcept { return params_; }
  [[nodiscard]] std::uint32_t k() const noexcept override { return params_.k; }
  [[nodiscard]] std::uint32_t n() const noexcept override { return params_.n; }

  /// The (n-k) x n parity-check matrix.
  [[nodiscard]] const SparseBinaryMatrix& matrix() const noexcept { return h_; }

  /// Encode: produce the n-k parity symbols from the k source symbols
  /// (all the same size).  O(nnz * symbol_size).
  [[nodiscard]] std::vector<std::vector<std::uint8_t>>
  encode(std::span<const std::vector<std::uint8_t>> source) const;

  /// Zero-allocation encode core: source_rows[j] points at source symbol
  /// j, parity_rows[i] at the destination for parity symbol i (all
  /// symbol_size bytes, non-overlapping).  Parity rows are computed in
  /// increasing i, so a staircase/triangle row may read earlier
  /// parity_rows entries.  The caller validates shapes once at workspace
  /// setup; the XORs run through the fused SIMD kernel engine.
  void encode_into(const std::uint8_t* const* source_rows,
                   std::size_t symbol_size,
                   std::uint8_t* const* parity_rows) const;

  /// Tx_model_5 for large-block codes (Sec. 4.7): source and parity
  /// packets interleaved in the n:k ratio (one source packet, then n/k - 1
  /// parity packets, fractions carried over Bresenham-style).
  [[nodiscard]] std::vector<PacketId> interleaved_order() const override;

  /// Render the H matrix as ASCII art (' ' / '1'), one line per row —
  /// regenerates the paper's Fig. 2 for k=400, n=600.
  [[nodiscard]] std::string ascii_art() const;

 private:
  LdgmParams params_;
  SparseBinaryMatrix h_;
};

}  // namespace fecsched
