// AVX2 split-nibble GF(2^8) kernels (see gf/gf256_kernels.h).  This TU is
// the only one compiled with -mavx2; elsewhere it degrades to a null
// probe.  The per-coefficient 16-byte lo/hi tables are broadcast into both
// 128-bit lanes so one vpshufb pair multiplies 32 bytes per step, and
// addmul_batch keeps eight 32-byte destination chunks (256 B) in registers
// while every (src, coeff) term accumulates into them.

#include "gf/gf256_kernels.h"

#if defined(__AVX2__) && defined(__x86_64__)

#include <immintrin.h>

#include "gf/gf256.h"

namespace fecsched::gf::detail {

namespace {

inline __m256i mul_chunk(__m256i v, __m256i tlo, __m256i thi, __m256i mask) {
  const __m256i lo = _mm256_and_si256(v, mask);
  const __m256i hi = _mm256_and_si256(_mm256_srli_epi64(v, 4), mask);
  return _mm256_xor_si256(_mm256_shuffle_epi8(tlo, lo),
                          _mm256_shuffle_epi8(thi, hi));
}

inline __m256i broadcast_table(const std::uint8_t* table16) {
  return _mm256_broadcastsi128_si256(
      _mm_load_si128(reinterpret_cast<const __m128i*>(table16)));
}

inline void xor_vec(std::uint8_t* dst, const std::uint8_t* src,
                    std::size_t len) {
  std::size_t i = 0;
  for (; i + 32 <= len; i += 32) {
    const __m256i d =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    const __m256i s =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_xor_si256(d, s));
  }
  for (; i < len; ++i) dst[i] ^= src[i];
}

void avx2_addmul(std::uint8_t* dst, const std::uint8_t* src, std::size_t len,
                 std::uint8_t coeff) {
  if (coeff == 0 || len == 0) return;
  assert(dst != nullptr && src != nullptr);
  if (coeff == 1) {
    xor_vec(dst, src, len);
    return;
  }
  const NibbleRow& nr = nibble_rows()[coeff];
  const __m256i tlo = broadcast_table(nr.lo);
  const __m256i thi = broadcast_table(nr.hi);
  const __m256i mask = _mm256_set1_epi8(0x0f);
  std::size_t i = 0;
  for (; i + 32 <= len; i += 32) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    const __m256i d =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(dst + i),
        _mm256_xor_si256(d, mul_chunk(v, tlo, thi, mask)));
  }
  const auto& row = tables().mul_row[coeff];
  for (; i < len; ++i) dst[i] ^= row[src[i]];
}

void avx2_scale(std::uint8_t* dst, std::size_t len, std::uint8_t coeff) {
  if (coeff == 1 || len == 0) return;
  assert(dst != nullptr);
  const NibbleRow& nr = nibble_rows()[coeff];
  const __m256i tlo = broadcast_table(nr.lo);
  const __m256i thi = broadcast_table(nr.hi);
  const __m256i mask = _mm256_set1_epi8(0x0f);
  std::size_t i = 0;
  for (; i + 32 <= len; i += 32) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        mul_chunk(v, tlo, thi, mask));
  }
  const auto& row = tables().mul_row[coeff];
  for (; i < len; ++i) dst[i] = row[dst[i]];
}

void avx2_xor_into(std::uint8_t* dst, const std::uint8_t* src,
                   std::size_t len) {
  if (len == 0) return;
  assert(dst != nullptr && src != nullptr);
  xor_vec(dst, src, len);
}

/// From offset `i`, one pass over the terms per B * 32 bytes of dst while
/// a whole block fits, the block's B chunks held in registers throughout,
/// so each coefficient's tables are broadcast once per block.  Returns
/// the offset it stopped at.
template <std::size_t B>
std::size_t batch_blocks(std::uint8_t* dst, const AddmulTerm* terms,
                         std::size_t count, std::size_t len, std::size_t i,
                         const NibbleRow* rows) {
  const __m256i mask = _mm256_set1_epi8(0x0f);
  const auto load = [](const std::uint8_t* p) {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  };
  for (; i + B * 32 <= len; i += B * 32) {
    __m256i acc[B];
#pragma GCC unroll 8
    for (std::size_t b = 0; b < B; ++b) acc[b] = load(dst + i + 32 * b);
    for (std::size_t t = 0; t < count; ++t) {
      const std::uint8_t c = terms[t].coeff;
      if (c == 0) continue;
      const std::uint8_t* s = terms[t].src + i;
      if (c == 1) {
#pragma GCC unroll 8
        for (std::size_t b = 0; b < B; ++b)
          acc[b] = _mm256_xor_si256(acc[b], load(s + 32 * b));
        continue;
      }
      const __m256i tlo = broadcast_table(rows[c].lo);
      const __m256i thi = broadcast_table(rows[c].hi);
#pragma GCC unroll 8
      for (std::size_t b = 0; b < B; ++b)
        acc[b] = _mm256_xor_si256(acc[b],
                                  mul_chunk(load(s + 32 * b), tlo, thi, mask));
    }
#pragma GCC unroll 8
    for (std::size_t b = 0; b < B; ++b)
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i + 32 * b),
                          acc[b]);
  }
  return i;
}

void avx2_addmul_batch(std::uint8_t* dst, const AddmulTerm* terms,
                       std::size_t count, std::size_t len) {
  if (count == 0 || len == 0) return;
  assert(dst != nullptr);
  // 256-byte blocks, then single 32-byte chunks, then the bytes past the
  // last chunk term by term.
  const NibbleRow* rows = nibble_rows();
  std::size_t i = batch_blocks<8>(dst, terms, count, len, 0, rows);
  i = batch_blocks<1>(dst, terms, count, len, i, rows);
  for (std::size_t t = 0; t < count; ++t)
    avx2_addmul(dst + i, terms[t].src + i, len - i, terms[t].coeff);
}

constexpr Kernels kAvx2Kernels{Backend::kAvx2, "avx2",        avx2_addmul,
                               avx2_scale,     avx2_xor_into, avx2_addmul_batch};

}  // namespace

const Kernels* avx2_kernels() noexcept {
  return __builtin_cpu_supports("avx2") ? &kAvx2Kernels : nullptr;
}

}  // namespace fecsched::gf::detail

#else  // !__AVX2__

namespace fecsched::gf::detail {
const Kernels* avx2_kernels() noexcept { return nullptr; }
}  // namespace fecsched::gf::detail

#endif
