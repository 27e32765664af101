// Engine phase vocabulary shared by every obs collector.
//
// Split out of obs/obs.h so the hot-path collectors (obs/timeline.h,
// obs/perfctr.h) can name phases without pulling the whole session
// machinery into their headers.

#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

namespace fecsched::obs {

/// Engine phases timed by the profiler.
enum class Phase : std::uint8_t {
  kEncode = 0,    ///< code construction: RSE plans, LDGM graphs
  kChannelDraw,   ///< loss-model draws (GilbertModel::lost and paths)
  kSchedule,      ///< transmission-order construction / scheduler picks
  kDecode,        ///< tracker/decoder symbol processing
  kMatrixInvert,  ///< GF(256) dense solves inside decode
  kResequence,    ///< multipath arrival reordering (Resequencer::drain)
  kNetPack,       ///< frame building: payloads, repairs (net/sender.h)
                  ///< and the wire format (net/wire.h)
  kNetSend,       ///< one segmented UDP send per batch (net/udp_endpoint.h)
  kNetRecv,       ///< one UDP read (coalesced under GRO) / poll per call
  kNetUnpack,     ///< wire-format frame parsing at the receiver
};
inline constexpr std::size_t kPhaseCount = 10;

[[nodiscard]] constexpr std::string_view to_string(Phase p) noexcept {
  switch (p) {
    case Phase::kEncode: return "encode";
    case Phase::kChannelDraw: return "channel_draw";
    case Phase::kSchedule: return "schedule";
    case Phase::kDecode: return "decode";
    case Phase::kMatrixInvert: return "matrix_invert";
    case Phase::kResequence: return "resequence";
    case Phase::kNetPack: return "net.pack";
    case Phase::kNetSend: return "net.send";
    case Phase::kNetRecv: return "net.recv";
    case Phase::kNetUnpack: return "net.unpack";
  }
  return "?";
}

/// Inverse of to_string(Phase); throws std::invalid_argument for a name
/// that is no phase.
[[nodiscard]] inline Phase phase_from_string(std::string_view name) {
  for (std::size_t p = 0; p < kPhaseCount; ++p)
    if (name == to_string(static_cast<Phase>(p))) return static_cast<Phase>(p);
  throw std::invalid_argument("unknown phase \"" + std::string(name) + "\"");
}

/// Plain `--profile` times each per-packet phase on one call in this
/// many per observer (call ordinals 0, 64, 128, ...) and scales its `ns`
/// by calls / timed calls; call counts stay exact.  The grid engine's
/// channel_draw and decode are timed per pass instead (Hook::timed_pass:
/// one clock pair around a trial's draws, one around its tracker feed),
/// so their `ns` are exact.  Those bodies cost
/// about as much as the clock pair around them, so timing every call
/// would distort the run being measured.  A timeline or counters session
/// times every call: each call owns one span and one counter read.
inline constexpr std::uint64_t kPhaseSamplePeriod = 64;
static_assert((kPhaseSamplePeriod & (kPhaseSamplePeriod - 1)) == 0,
              "the sampling test masks the call ordinal");

/// The per-packet phases plain `--profile` samples.  Schedule and
/// matrix_invert count here too: the multipath engine picks a path and
/// the sliding-window decoder eliminates once per packet.  Encode and
/// resequence are timed on every call.
[[nodiscard]] constexpr bool sampled_phase(Phase p) noexcept {
  switch (p) {
    case Phase::kChannelDraw:
    case Phase::kSchedule:
    case Phase::kDecode:
    case Phase::kMatrixInvert:
    case Phase::kNetPack:
    case Phase::kNetSend:
    case Phase::kNetRecv:
    case Phase::kNetUnpack:
      return true;
    default:
      return false;
  }
}

struct PhaseStats {
  std::uint64_t calls = 0;  ///< deterministic: merged by addition
  std::uint64_t ns = 0;     ///< wall time; excluded from the signature
};

/// "<phase>=<calls>;" per phase: the deterministic digest of a profile
/// that the thread-independence check (Report::deterministic_signature)
/// and the ledger drift check (obs/regress.h) compare.
[[nodiscard]] inline std::string phase_calls_digest(
    const std::array<PhaseStats, kPhaseCount>& phases) {
  std::string digest;
  for (std::size_t p = 0; p < kPhaseCount; ++p)
    digest += std::string(to_string(static_cast<Phase>(p))) + '=' +
              std::to_string(phases[p].calls) + ';';
  return digest;
}

using ObsClock = std::chrono::steady_clock;

}  // namespace fecsched::obs
