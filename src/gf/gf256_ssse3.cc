// SSSE3 split-nibble GF(2^8) kernels (see gf/gf256_kernels.h).  This TU is
// the only one compiled with -mssse3; on non-x86 builds (or compilers
// without the flag) it degrades to a null probe.  addmul_batch keeps four
// 16-byte destination chunks (64 B) in registers while every (src, coeff)
// term accumulates into them.

#include "gf/gf256_kernels.h"

#if defined(__SSSE3__) && (defined(__x86_64__) || defined(__i386__))

#include <tmmintrin.h>

#include "gf/gf256.h"

namespace fecsched::gf::detail {

namespace {

inline void xor_vec(std::uint8_t* dst, const std::uint8_t* src,
                    std::size_t len) {
  std::size_t i = 0;
  for (; i + 16 <= len; i += 16) {
    const __m128i d =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(dst + i));
    const __m128i s =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i),
                     _mm_xor_si128(d, s));
  }
  for (; i < len; ++i) dst[i] ^= src[i];
}

void ssse3_addmul(std::uint8_t* dst, const std::uint8_t* src, std::size_t len,
                  std::uint8_t coeff) {
  if (coeff == 0 || len == 0) return;
  assert(dst != nullptr && src != nullptr);
  if (coeff == 1) {
    xor_vec(dst, src, len);
    return;
  }
  const NibbleRow& nr = nibble_rows()[coeff];
  const __m128i tlo = _mm_load_si128(reinterpret_cast<const __m128i*>(nr.lo));
  const __m128i thi = _mm_load_si128(reinterpret_cast<const __m128i*>(nr.hi));
  const __m128i mask = _mm_set1_epi8(0x0f);
  std::size_t i = 0;
  for (; i + 16 <= len; i += 16) {
    const __m128i v =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    const __m128i lo = _mm_and_si128(v, mask);
    const __m128i hi = _mm_and_si128(_mm_srli_epi64(v, 4), mask);
    const __m128i prod = _mm_xor_si128(_mm_shuffle_epi8(tlo, lo),
                                       _mm_shuffle_epi8(thi, hi));
    const __m128i d =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(dst + i));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i),
                     _mm_xor_si128(d, prod));
  }
  const auto& row = tables().mul_row[coeff];
  for (; i < len; ++i) dst[i] ^= row[src[i]];
}

void ssse3_scale(std::uint8_t* dst, std::size_t len, std::uint8_t coeff) {
  if (coeff == 1 || len == 0) return;
  assert(dst != nullptr);
  const NibbleRow& nr = nibble_rows()[coeff];
  const __m128i tlo = _mm_load_si128(reinterpret_cast<const __m128i*>(nr.lo));
  const __m128i thi = _mm_load_si128(reinterpret_cast<const __m128i*>(nr.hi));
  const __m128i mask = _mm_set1_epi8(0x0f);
  std::size_t i = 0;
  for (; i + 16 <= len; i += 16) {
    const __m128i v =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(dst + i));
    const __m128i lo = _mm_and_si128(v, mask);
    const __m128i hi = _mm_and_si128(_mm_srli_epi64(v, 4), mask);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i),
                     _mm_xor_si128(_mm_shuffle_epi8(tlo, lo),
                                   _mm_shuffle_epi8(thi, hi)));
  }
  const auto& row = tables().mul_row[coeff];
  for (; i < len; ++i) dst[i] = row[dst[i]];
}

void ssse3_xor_into(std::uint8_t* dst, const std::uint8_t* src,
                    std::size_t len) {
  if (len == 0) return;
  assert(dst != nullptr && src != nullptr);
  xor_vec(dst, src, len);
}

inline __m128i mul_chunk(__m128i v, __m128i tlo, __m128i thi, __m128i mask) {
  const __m128i lo = _mm_and_si128(v, mask);
  const __m128i hi = _mm_and_si128(_mm_srli_epi64(v, 4), mask);
  return _mm_xor_si128(_mm_shuffle_epi8(tlo, lo), _mm_shuffle_epi8(thi, hi));
}

/// From offset `i`, one pass over the terms per B * 16 bytes of dst while
/// a whole block fits, the block's B chunks held in registers throughout,
/// so each coefficient's tables are loaded once per block.  Returns the
/// offset it stopped at.
template <std::size_t B>
std::size_t batch_blocks(std::uint8_t* dst, const AddmulTerm* terms,
                         std::size_t count, std::size_t len, std::size_t i,
                         const NibbleRow* rows) {
  const __m128i mask = _mm_set1_epi8(0x0f);
  const auto load = [](const std::uint8_t* p) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
  };
  for (; i + B * 16 <= len; i += B * 16) {
    __m128i acc[B];
#pragma GCC unroll 4
    for (std::size_t b = 0; b < B; ++b) acc[b] = load(dst + i + 16 * b);
    for (std::size_t t = 0; t < count; ++t) {
      const std::uint8_t c = terms[t].coeff;
      if (c == 0) continue;
      const std::uint8_t* s = terms[t].src + i;
      if (c == 1) {
#pragma GCC unroll 4
        for (std::size_t b = 0; b < B; ++b)
          acc[b] = _mm_xor_si128(acc[b], load(s + 16 * b));
        continue;
      }
      const __m128i tlo =
          _mm_load_si128(reinterpret_cast<const __m128i*>(rows[c].lo));
      const __m128i thi =
          _mm_load_si128(reinterpret_cast<const __m128i*>(rows[c].hi));
#pragma GCC unroll 4
      for (std::size_t b = 0; b < B; ++b)
        acc[b] = _mm_xor_si128(acc[b],
                               mul_chunk(load(s + 16 * b), tlo, thi, mask));
    }
#pragma GCC unroll 4
    for (std::size_t b = 0; b < B; ++b)
      _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i + 16 * b), acc[b]);
  }
  return i;
}

void ssse3_addmul_batch(std::uint8_t* dst, const AddmulTerm* terms,
                        std::size_t count, std::size_t len) {
  if (count == 0 || len == 0) return;
  assert(dst != nullptr);
  // 64-byte blocks, then single 16-byte chunks, then the bytes past the
  // last chunk term by term.
  const NibbleRow* rows = nibble_rows();
  std::size_t i = batch_blocks<4>(dst, terms, count, len, 0, rows);
  i = batch_blocks<1>(dst, terms, count, len, i, rows);
  for (std::size_t t = 0; t < count; ++t)
    ssse3_addmul(dst + i, terms[t].src + i, len - i, terms[t].coeff);
}

constexpr Kernels kSsse3Kernels{Backend::kSsse3,  "ssse3",
                                ssse3_addmul,     ssse3_scale,
                                ssse3_xor_into,   ssse3_addmul_batch};

}  // namespace

const Kernels* ssse3_kernels() noexcept {
  return __builtin_cpu_supports("ssse3") ? &kSsse3Kernels : nullptr;
}

}  // namespace fecsched::gf::detail

#else  // !__SSSE3__

namespace fecsched::gf::detail {
const Kernels* ssse3_kernels() noexcept { return nullptr; }
}  // namespace fecsched::gf::detail

#endif
