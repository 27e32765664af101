#include "util/crc32.h"

#include <array>
#include <cstddef>

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#endif

namespace fecsched {

namespace {

std::array<std::uint32_t, 256> build_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit)
      c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    table[i] = c;
  }
  return table;
}

const std::array<std::uint32_t, 256>& table() {
  static const auto t = build_table();
  return t;
}

#if defined(__x86_64__) && defined(__GNUC__)

// Carry-less-multiply folding (Gopal et al., "Fast CRC Computation for
// Generic Polynomials Using PCLMULQDQ Instruction", Intel 2009), with
// the paper's constants for the reflected 0xEDB88320 polynomial: four
// 128-bit lanes fold 64 bytes per step, the lanes fold into one, that
// one folds 16 bytes per step, and Barrett reduction ends at 32 bits.
#define FECSCHED_CLMUL __attribute__((target("pclmul,sse4.1")))

FECSCHED_CLMUL __m128i load(const std::uint8_t* at) noexcept {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(at));
}

/// One 128-bit fold step: x.lo·k.lo ⊕ x.hi·k.hi ⊕ next.
FECSCHED_CLMUL __m128i step(__m128i x, __m128i k, __m128i next) noexcept {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                                     _mm_clmulepi64_si128(x, k, 0x11)),
                       next);
}

/// `c` is the running (pre-inverted) register; `n` >= 64, n % 16 == 0.
FECSCHED_CLMUL std::uint32_t fold(std::uint32_t c, const std::uint8_t* p,
                                  std::size_t n) noexcept {
  const __m128i k1k2 = _mm_set_epi64x(0x1c6e41596, 0x154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x0ccaa009e, 0x1751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x163cd6124);
  const __m128i poly_mu = _mm_set_epi64x(0x1f7011641, 0x1db710641);
  const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);

  __m128i x1 = _mm_xor_si128(load(p), _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i x2 = load(p + 16);
  __m128i x3 = load(p + 32);
  __m128i x4 = load(p + 48);
  p += 64;
  n -= 64;
  for (; n >= 64; p += 64, n -= 64) {
    x1 = step(x1, k1k2, load(p));
    x2 = step(x2, k1k2, load(p + 16));
    x3 = step(x3, k1k2, load(p + 32));
    x4 = step(x4, k1k2, load(p + 48));
  }
  x1 = step(x1, k3k4, x2);
  x1 = step(x1, k3k4, x3);
  x1 = step(x1, k3k4, x4);
  for (; n >= 16; p += 16, n -= 16) x1 = step(x1, k3k4, load(p));

  // 128 → 64 bits, then 64 → 32 bits through the low word.
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8),
                     _mm_clmulepi64_si128(x1, k3k4, 0x10));
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 4),
                     _mm_clmulepi64_si128(_mm_and_si128(x1, low32), k5, 0x00));
  // Barrett reduction: q = ⌊x·μ⌋, crc = x ⊕ q·P′.
  __m128i q = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), poly_mu, 0x10);
  q = _mm_clmulepi64_si128(_mm_and_si128(q, low32), poly_mu, 0x00);
  return static_cast<std::uint32_t>(
      _mm_extract_epi32(_mm_xor_si128(x1, q), 1));
}

#undef FECSCHED_CLMUL

/// Folds the longest 16-byte multiple of `data` into `c` when `data` is
/// at least 64 bytes and the CPU has PCLMULQDQ; returns what is left for
/// the table loop.
std::span<const std::uint8_t> fold_prefix(
    std::uint32_t& c, std::span<const std::uint8_t> data) noexcept {
  if (data.size() < 64) return data;
  static const bool pclmul =
      __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
  if (!pclmul) return data;
  const std::size_t whole = data.size() & ~std::size_t{15};
  c = fold(c, data.data(), whole);
  return data.subspan(whole);
}

#else  // no PCLMULQDQ path on this target

std::span<const std::uint8_t> fold_prefix(
    std::uint32_t&, std::span<const std::uint8_t> data) noexcept {
  return data;
}

#endif

}  // namespace

std::uint32_t crc32_update(std::uint32_t crc,
                           std::span<const std::uint8_t> data) noexcept {
  std::uint32_t c = crc ^ 0xffffffffu;
  const auto& t = table();
  for (const std::uint8_t byte : fold_prefix(c, data))
    c = t[(c ^ byte) & 0xffu] ^ (c >> 8);
  return c ^ 0xffffffffu;
}

std::uint32_t crc32(std::span<const std::uint8_t> data) noexcept {
  return crc32_update(0, data);
}

}  // namespace fecsched
