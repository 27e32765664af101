// CRC-32 (IEEE 802.3 polynomial, reflected), used to protect net wire
// frames (header and payload) against corruption.
//
// On x86-64 CPUs with PCLMULQDQ, an input of 64 bytes or more is folded
// 64 and then 16 bytes at a time with carry-less multiplies; the bytes
// after its last whole 16-byte block, every shorter input (the 44-byte
// wire header) and every other host take the byte-at-a-time table loop.
// Both paths give the same value.

#pragma once

#include <cstdint>
#include <span>

namespace fecsched {

/// CRC-32/ISO-HDLC of `data` (init 0xffffffff, reflected, final XOR).
/// Matches zlib's crc32() so values can be cross-checked externally.
[[nodiscard]] std::uint32_t crc32(std::span<const std::uint8_t> data) noexcept;

/// Incremental form: continue a CRC computed so far (pass the previous
/// return value; start with crc = 0).
[[nodiscard]] std::uint32_t crc32_update(std::uint32_t crc,
                                         std::span<const std::uint8_t> data) noexcept;

}  // namespace fecsched
