// Versioned wire format for FEC symbols and receiver feedback (src/net/).
//
// Everything upstream of this header moves symbols between encoder and
// decoder as in-process structs; the net subsystem serializes them into
// real datagrams.  One datagram carries exactly one frame:
//
//  * DataFrame   — one FEC symbol: scheme tag, object/window id, wire
//    symbol id (sources [0, S), repairs from S up — the same PacketId
//    convention the trace events use), the coding seed the receiver
//    cross-checks its out-of-band configuration against, the repair
//    coverage span, and the payload bytes.
//  * ReportFrame — receiver feedback: one adapt::LossReport (the Gilbert
//    sufficient statistic, O(1) however long the stream was) flowing back
//    over the reverse path to close the src/adapt/ control loop.
//
// Layout is fixed little-endian with two CRC-32s (util/crc32): one over
// the header, one over the payload, so header corruption and payload
// corruption are rejected by distinct named reasons.  The 44-byte header
// CRC takes util/crc32's table loop; a payload of 64 bytes or more takes
// its carry-less-multiply fold where the CPU has PCLMULQDQ.  parse() is strict:
// every malformed frame is rejected with a WireError naming the reason,
// and no input — truncated, oversized, bit-flipped, random — may crash
// or yield a frame that did not round-trip byte-identically.
//
// Data frame (52 + payload_len bytes):
//
//   offset size field
//   0      2    magic 0xFE 0xC5
//   2      1    version (kWireVersion)
//   3      1    frame type (0 = data, 1 = report)
//   4      1    scheme tag (StreamScheme value, <= 3)
//   5      1    flags (bit 0: repair; others must be zero)
//   6      2    payload_len (<= kMaxPayload)
//   8      4    object_id
//   12     8    symbol_id
//   20     8    coding_seed
//   28     8    span_first   (repair coverage; replication: duplicated id)
//   36     8    span_last
//   44     4    header CRC-32 over bytes [0, 44)
//   48     payload_len payload bytes
//   48+len 4    payload CRC-32
//
// Report frame (48 bytes): same 4-byte preamble, then flags (bit 0:
// first_lost, bit 1: has_events), 3 reserved zero bytes, object_id and
// the four transition counts, closed by the header CRC at offset 44.

#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "adapt/channel_estimator.h"

namespace fecsched::net {

inline constexpr std::uint8_t kMagic0 = 0xFE;
inline constexpr std::uint8_t kMagic1 = 0xC5;
inline constexpr std::uint8_t kWireVersion = 1;

/// Fixed bytes before the payload (data) / total frame size (report).
inline constexpr std::size_t kHeaderSize = 48;
/// Wire bytes a data frame adds around its payload (header + payload CRC).
inline constexpr std::size_t kDataOverhead = kHeaderSize + 4;
inline constexpr std::size_t kReportSize = 48;
/// One symbol must fit one loopback datagram with comfortable margin.
inline constexpr std::size_t kMaxPayload = 1400;

enum class FrameType : std::uint8_t { kData = 0, kReport = 1 };

/// Named parse-rejection reasons, in check order.
enum class WireError : std::uint8_t {
  kOk = 0,
  kTruncatedHeader,     ///< shorter than the fixed header
  kBadMagic,
  kBadVersion,
  kUnknownType,
  kUnknownScheme,       ///< scheme tag beyond the StreamScheme range
  kBadPadding,          ///< reserved flag bits / reserved bytes non-zero
  kOversizedPayload,    ///< declared payload_len exceeds kMaxPayload
  kTruncatedPayload,    ///< datagram ends before payload + payload CRC
  kTrailingBytes,       ///< datagram longer than the declared frame
  kHeaderCrcMismatch,
  kBadSpan,             ///< repair coverage with span_first > span_last
  kPayloadCrcMismatch,
};

[[nodiscard]] constexpr std::string_view to_string(WireError e) noexcept {
  switch (e) {
    case WireError::kOk: return "ok";
    case WireError::kTruncatedHeader: return "truncated-header";
    case WireError::kBadMagic: return "bad-magic";
    case WireError::kBadVersion: return "bad-version";
    case WireError::kUnknownType: return "unknown-type";
    case WireError::kUnknownScheme: return "unknown-scheme";
    case WireError::kBadPadding: return "bad-padding";
    case WireError::kOversizedPayload: return "oversized-payload";
    case WireError::kTruncatedPayload: return "truncated-payload";
    case WireError::kTrailingBytes: return "trailing-bytes";
    case WireError::kHeaderCrcMismatch: return "header-crc-mismatch";
    case WireError::kBadSpan: return "bad-span";
    case WireError::kPayloadCrcMismatch: return "payload-crc-mismatch";
  }
  return "?";
}

/// One FEC symbol on the wire.
struct DataFrame {
  std::uint8_t scheme = 0;      ///< StreamScheme tag
  bool repair = false;
  std::uint32_t object_id = 0;  ///< object / stream instance (trial ordinal)
  std::uint64_t symbol_id = 0;  ///< wire symbol id (repairs from S up)
  std::uint64_t coding_seed = 0;  ///< sliding/LDGM seed the receiver verifies
  std::uint64_t span_first = 0;   ///< repair coverage [first, last)
  std::uint64_t span_last = 0;
  std::vector<std::uint8_t> payload;

  friend bool operator==(const DataFrame&, const DataFrame&) = default;
};

/// Receiver feedback on the reverse path.
struct ReportFrame {
  std::uint32_t object_id = 0;
  LossReport report;
};

/// parse() output: exactly one member (by `type`) is meaningful.
struct ParsedFrame {
  FrameType type = FrameType::kData;
  DataFrame data;
  ReportFrame report;
};

/// Serialize into `out` (cleared first; capacity is reused across calls).
/// Throws std::invalid_argument when the frame itself is unrepresentable
/// (payload over kMaxPayload, scheme tag over 3).
void pack(const DataFrame& frame, std::vector<std::uint8_t>& out);
void pack(const ReportFrame& frame, std::vector<std::uint8_t>& out);
[[nodiscard]] std::vector<std::uint8_t> pack(const DataFrame& frame);
[[nodiscard]] std::vector<std::uint8_t> pack(const ReportFrame& frame);

/// Strict bounds-checked parse of one datagram.  Returns kOk and fills
/// `out` on success (out.data.payload reuses its capacity); any other
/// value names the rejection reason and leaves `out` unspecified.  Never
/// throws, never reads outside `datagram`.
[[nodiscard]] WireError parse(std::span<const std::uint8_t> datagram,
                              ParsedFrame& out);

}  // namespace fecsched::net
