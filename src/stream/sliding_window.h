// Systematic sliding-window (convolutional) erasure code over GF(2^8).
//
// The paper's pipelines measure bulk-object decodability; this code is the
// delay-sensitive counterpart studied by Karzand et al. ("FEC for Lower
// In-Order Delivery Delay in Packet Networks"): source packets are
// transmitted verbatim as they are produced, and every `repair_interval`
// source packets the encoder emits one repair packet — a GF(2^8) linear
// combination of the last W source packets.  A lost source packet can be
// recovered as soon as enough *later* repair packets covering it arrive,
// instead of waiting for the end of a block, which is what makes the
// in-order delivery delay of sliding-window codes dominate block codes on
// bursty channels at matched overhead.
//
// The decoder keeps the received repair equations in reduced row-echelon
// form over GF(2^8) (on-the-fly Gaussian elimination within the window,
// the streaming analogue of fec/ge_decoder's residual solve): every
// arriving source packet is substituted into the equations that hold it,
// every arriving repair packet is reduced against the current pivots and
// its own pivot eliminated from the earlier equations, and any equation
// left with a single unknown recovers that source immediately.
// Decoding is *delay-limited*: once the window has slid W source packets
// past an unrecovered source, no future repair can cover it any more, so
// it is declared lost (releasing head-of-line blocked successors — see
// stream/delay_tracker).
//
// Coefficient modes:
//  * kRandomGf256 (default) — dense pseudo-random non-zero coefficients
//    derived from (seed, repair_seq, source_seq); repairs are linearly
//    independent with high probability.
//  * kBinary — every coefficient is 1 (each repair is the XOR of its
//    window).  Because GF(2^8) is an extension field of GF(2), the rank of
//    a 0/1 system is identical over both fields, so this mode is *exactly*
//    as decodable as the binary system fec/ge_decoder solves — the
//    property the cross-check tests rely on.
//
// Structure-only mode (symbol_size == 0) runs the same equation
// bookkeeping without payload bytes, mirroring sim/tracker.

#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "fec/sparse_matrix.h"
#include "fec/symbol_arena.h"

namespace fecsched {

/// How repair coefficients are drawn.
enum class SlidingCoefficients {
  kRandomGf256,  ///< pseudo-random non-zero GF(2^8) (default)
  kBinary,       ///< all ones: repair = XOR of window (GF(2) cross-check)
};

/// Parameters of a sliding-window code instance.  Sender and receiver must
/// agree on the whole struct (it travels out-of-band, like an LDGM seed).
struct SlidingWindowConfig {
  /// Window size W: a repair packet covers the last min(W, produced)
  /// source packets.  Also the decoding deadline: a source packet is
  /// declared lost once the newest produced source is W past it.
  std::uint32_t window = 64;
  /// One repair packet is emitted after every `repair_interval` source
  /// packets; the repair overhead is 1/repair_interval.
  std::uint32_t repair_interval = 4;
  SlidingCoefficients coefficients = SlidingCoefficients::kRandomGf256;
  std::uint64_t seed = 0x57e4a11dULL;

  /// (n-k)/k repair overhead this configuration sustains.
  [[nodiscard]] double overhead() const noexcept {
    return repair_interval ? 1.0 / repair_interval : 0.0;
  }
  /// Throws std::invalid_argument unless window >= 1, repair_interval >= 1.
  void validate() const;
};

/// One repair packet: which source span it covers plus (payload mode) the
/// combined bytes.  Coefficients are recomputed from the shared config.
struct RepairPacket {
  std::uint64_t repair_seq = 0;
  std::uint64_t first = 0;  ///< first covered source seq (inclusive)
  std::uint64_t last = 0;   ///< one past the last covered source seq
  std::vector<std::uint8_t> payload;  ///< empty in structure-only mode
};

/// The deterministic coefficient of source `source_seq` in repair
/// `repair_seq` (non-zero; 1 in binary mode).
[[nodiscard]] std::uint8_t sliding_coefficient(const SlidingWindowConfig& cfg,
                                               std::uint64_t repair_seq,
                                               std::uint64_t source_seq);

/// Sender side: buffers the last W source symbols and combines them into
/// repair packets on demand (the caller owns the pacing).
class SlidingWindowEncoder {
 public:
  /// symbol_size == 0 selects the structure-only mode.
  explicit SlidingWindowEncoder(const SlidingWindowConfig& config,
                                std::size_t symbol_size = 0);

  [[nodiscard]] const SlidingWindowConfig& config() const noexcept {
    return config_;
  }
  /// Source packets produced so far (the next source seq).
  [[nodiscard]] std::uint64_t source_count() const noexcept { return next_; }
  [[nodiscard]] std::uint64_t repair_count() const noexcept {
    return repairs_;
  }

  /// Produce the next source packet.  In payload mode `payload` must hold
  /// symbol_size bytes.  Returns its source seq.
  std::uint64_t push_source(std::span<const std::uint8_t> payload = {});

  /// Combine the last min(W, source_count) sources into the next repair
  /// packet.  Throws std::logic_error before the first source.
  [[nodiscard]] RepairPacket make_repair();

  /// Allocation-reusing variant: fills `out` in place (out.payload keeps
  /// its capacity across calls).
  void make_repair(RepairPacket& out);

 private:
  SlidingWindowConfig config_;
  std::size_t symbol_size_;
  std::uint64_t next_ = 0;
  std::uint64_t repairs_ = 0;
  /// Last W payloads as a flat ring: source seq s lives in arena row
  /// s % window (payload mode only).
  SymbolArena history_;
};

/// Receiver side: incremental GF(2^8) Gaussian elimination over the active
/// window.  Per-source state is indexed by seq, so it grows with the
/// largest seq fed in.
class SlidingWindowDecoder {
 public:
  explicit SlidingWindowDecoder(const SlidingWindowConfig& config,
                                std::size_t symbol_size = 0);

  [[nodiscard]] const SlidingWindowConfig& config() const noexcept {
    return config_;
  }

  /// Restart for a new stream under a (possibly different) configuration,
  /// keeping the solver scratch allocations — the trial-workspace path.
  void reset(const SlidingWindowConfig& config);

  /// Feed one received source packet.  Returns the source seqs that became
  /// known as a result (the packet itself if new, plus any recoveries its
  /// substitution cascaded; empty for a duplicate).
  std::vector<std::uint64_t> on_source(
      std::uint64_t seq, std::span<const std::uint8_t> payload = {});

  /// Feed one received repair packet.  Returns newly recovered source seqs.
  std::vector<std::uint64_t> on_repair(const RepairPacket& repair);

  /// Advance the decoding deadline: every still-unknown source seq below
  /// `horizon` is declared unrecoverable and the equations pinned on it
  /// are discarded.  Returns the seqs newly declared lost (ascending).
  /// The horizon never moves backwards.
  std::vector<std::uint64_t> give_up_before(std::uint64_t horizon);

  [[nodiscard]] std::uint64_t horizon() const noexcept { return horizon_; }
  [[nodiscard]] bool is_known(std::uint64_t seq) const;
  [[nodiscard]] bool is_lost(std::uint64_t seq) const;
  /// Recovered / received payload (payload mode; throws std::logic_error
  /// if `seq` is not known or the decoder is structure-only).
  [[nodiscard]] std::span<const std::uint8_t> symbol(std::uint64_t seq) const;

  [[nodiscard]] std::uint64_t known_count() const noexcept { return known_n_; }
  [[nodiscard]] std::uint64_t lost_count() const noexcept { return lost_n_; }
  /// Pending (not yet useful) repair equations — the decoder's working set.
  [[nodiscard]] std::size_t active_equations() const noexcept {
    return rows_.size();
  }

 private:
  using Term = std::pair<std::uint64_t, std::uint8_t>;
  /// One pending equation in reduced row-echelon form (columns ordered by
  /// seq): unknown terms ascending; the first is the row's pivot, with
  /// coefficient 1 and held by no other row.
  struct Row {
    std::vector<Term> terms;
    std::vector<std::uint8_t> rhs;  // payload mode only
    [[nodiscard]] std::uint64_t pivot() const { return terms.front().first; }
  };

  [[nodiscard]] std::uint8_t fate(std::uint64_t seq) const {
    return seq < fate_.size() ? fate_[seq] : 0;
  }
  /// The first row pivoted at or after `seq`.
  std::vector<Row>::iterator first_row_from(std::uint64_t seq);
  void learn(std::uint64_t seq, std::vector<std::uint8_t> payload,
             std::vector<std::uint64_t>& newly);
  /// dst += f * src, over the terms and (payload mode) the rhs.
  void add_row(Row& dst, const Row& src, std::uint8_t f);
  /// Normalise `row`, whose terms are all free columns, eliminate its
  /// pivot from the earlier rows and insert it in pivot order.
  void insert_row(Row row);
  /// Learn every single-term row (ascending seq) and drop it.
  void harvest(std::vector<std::uint64_t>& newly);

  SlidingWindowConfig config_;
  std::size_t symbol_size_;
  std::uint64_t horizon_ = 0;
  std::uint64_t known_n_ = 0;
  std::uint64_t lost_n_ = 0;
  // Indexed by seq: 0 = unknown, 1 = known, 2 = lost; and the known
  // payloads (payload mode).
  std::vector<std::uint8_t> fate_;
  std::vector<std::vector<std::uint8_t>> symbols_;
  std::vector<Row> rows_;  // ascending by pivot
  std::vector<Term> scratch_terms_;  // add_row's merge buffer
};

/// The binary support structure of the repairs a paced stream would emit:
/// variables are `source_count` sources followed by the repairs (one every
/// config.repair_interval sources), rows are the repair equations — the
/// parity-check representation fec/peeling_decoder + fec/ge_decoder
/// consume.  Used by the cross-check tests and diagnostics.
[[nodiscard]] SparseBinaryMatrix sliding_support_matrix(
    const SlidingWindowConfig& config, std::uint32_t source_count);

}  // namespace fecsched
