// Common vocabulary types shared across the FEC, scheduling and
// simulation layers.

#pragma once

#include <cstdint>
#include <string_view>

namespace fecsched {

/// Global packet identifier within one encoded object.
///
/// Convention used throughout the library (mirrors FLUTE/ALC FEC payload
/// ids flattened to a single integer): source packets occupy [0, k) in
/// object order, parity packets occupy [k, n).
using PacketId = std::uint32_t;

/// The FEC codes studied by the paper, plus the plain-LDGM ablation and the
/// "no FEC, send x copies" baseline of Fig. 7.
enum class CodeKind {
  kRse,            ///< Reed-Solomon erasure code over GF(2^8), blocked
  kLdgmIdentity,   ///< LDGM, H = [H1 | I]      (ablation, Sec. 2.3.1)
  kLdgmStaircase,  ///< LDGM Staircase          (Sec. 2.3.3)
  kLdgmTriangle,   ///< LDGM Triangle           (Sec. 2.3.4)
  kReplication,    ///< no FEC, each source packet sent x times (Sec. 4.2)
};

/// Human-readable code name (stable, used in bench output).
[[nodiscard]] constexpr std::string_view to_string(CodeKind c) noexcept {
  switch (c) {
    case CodeKind::kRse: return "RSE";
    case CodeKind::kLdgmIdentity: return "LDGM";
    case CodeKind::kLdgmStaircase: return "LDGM Staircase";
    case CodeKind::kLdgmTriangle: return "LDGM Triangle";
    case CodeKind::kReplication: return "Replication";
  }
  return "?";
}

/// The code's key in scenario specs and the registry (stable, used in
/// JSON output).
[[nodiscard]] constexpr std::string_view spec_name(CodeKind c) noexcept {
  switch (c) {
    case CodeKind::kRse: return "rse";
    case CodeKind::kLdgmIdentity: return "ldgm";
    case CodeKind::kLdgmStaircase: return "ldgm-staircase";
    case CodeKind::kLdgmTriangle: return "ldgm-triangle";
    case CodeKind::kReplication: return "replication";
  }
  return "?";
}

/// The six transmission models of Sec. 4 (numbering follows the paper).
enum class TxModel {
  kTx1SeqSourceSeqParity = 1,   ///< source sequential, then parity sequential
  kTx2SeqSourceRandParity = 2,  ///< source sequential, then parity random
  kTx3SeqParityRandSource = 3,  ///< parity sequential, then source random
  kTx4AllRandom = 4,            ///< everything in one random permutation
  kTx5Interleaved = 5,          ///< per-block interleaving (code-specific)
  kTx6FewSourceRandParity = 6,  ///< random 20% of source + all parity, shuffled
};

[[nodiscard]] constexpr std::string_view to_string(TxModel m) noexcept {
  switch (m) {
    case TxModel::kTx1SeqSourceSeqParity: return "tx_mod_1";
    case TxModel::kTx2SeqSourceRandParity: return "tx_mod_2";
    case TxModel::kTx3SeqParityRandSource: return "tx_mod_3";
    case TxModel::kTx4AllRandom: return "tx_mod_4";
    case TxModel::kTx5Interleaved: return "tx_mod_5";
    case TxModel::kTx6FewSourceRandParity: return "tx_mod_6";
  }
  return "?";
}

}  // namespace fecsched
