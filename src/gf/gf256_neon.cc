// NEON split-nibble GF(2^8) kernels for aarch64 (see gf/gf256_kernels.h):
// vqtbl1q_u8 plays the role of pshufb.  NEON is architecturally mandatory
// on aarch64, so the probe needs no runtime CPU check there; on every
// other architecture this TU degrades to a null probe.

#include "gf/gf256_kernels.h"

#if defined(__aarch64__)

#include <arm_neon.h>

#include "gf/gf256.h"

namespace fecsched::gf::detail {

namespace {

inline uint8x16_t mul_chunk(uint8x16_t v, uint8x16_t tlo, uint8x16_t thi,
                            uint8x16_t mask) {
  const uint8x16_t lo = vandq_u8(v, mask);
  const uint8x16_t hi = vshrq_n_u8(v, 4);
  return veorq_u8(vqtbl1q_u8(tlo, lo), vqtbl1q_u8(thi, hi));
}

inline void xor_vec(std::uint8_t* dst, const std::uint8_t* src,
                    std::size_t len) {
  std::size_t i = 0;
  for (; i + 16 <= len; i += 16)
    vst1q_u8(dst + i, veorq_u8(vld1q_u8(dst + i), vld1q_u8(src + i)));
  for (; i < len; ++i) dst[i] ^= src[i];
}

void neon_addmul(std::uint8_t* dst, const std::uint8_t* src, std::size_t len,
                 std::uint8_t coeff) {
  if (coeff == 0 || len == 0) return;
  assert(dst != nullptr && src != nullptr);
  if (coeff == 1) {
    xor_vec(dst, src, len);
    return;
  }
  const NibbleRow& nr = nibble_rows()[coeff];
  const uint8x16_t tlo = vld1q_u8(nr.lo);
  const uint8x16_t thi = vld1q_u8(nr.hi);
  const uint8x16_t mask = vdupq_n_u8(0x0f);
  std::size_t i = 0;
  for (; i + 16 <= len; i += 16)
    vst1q_u8(dst + i, veorq_u8(vld1q_u8(dst + i),
                               mul_chunk(vld1q_u8(src + i), tlo, thi, mask)));
  const auto& row = kTables.mul_row[coeff];
  for (; i < len; ++i) dst[i] ^= row[src[i]];
}

void neon_scale(std::uint8_t* dst, std::size_t len, std::uint8_t coeff) {
  if (coeff == 1 || len == 0) return;
  assert(dst != nullptr);
  const NibbleRow& nr = nibble_rows()[coeff];
  const uint8x16_t tlo = vld1q_u8(nr.lo);
  const uint8x16_t thi = vld1q_u8(nr.hi);
  const uint8x16_t mask = vdupq_n_u8(0x0f);
  std::size_t i = 0;
  for (; i + 16 <= len; i += 16)
    vst1q_u8(dst + i, mul_chunk(vld1q_u8(dst + i), tlo, thi, mask));
  const auto& row = kTables.mul_row[coeff];
  for (; i < len; ++i) dst[i] = row[dst[i]];
}

void neon_xor_into(std::uint8_t* dst, const std::uint8_t* src,
                   std::size_t len) {
  if (len == 0) return;
  assert(dst != nullptr && src != nullptr);
  xor_vec(dst, src, len);
}

void neon_addmul_batch(std::uint8_t* dst, const AddmulTerm* terms,
                       std::size_t count, std::size_t len) {
  if (count == 0 || len == 0) return;
  assert(dst != nullptr);
  const NibbleRow* rows = nibble_rows();
  const uint8x16_t mask = vdupq_n_u8(0x0f);
  std::size_t i = 0;
  for (; i + 16 <= len; i += 16) {
    uint8x16_t acc = vld1q_u8(dst + i);
    for (std::size_t t = 0; t < count; ++t) {
      const std::uint8_t c = terms[t].coeff;
      if (c == 0) continue;
      const uint8x16_t v = vld1q_u8(terms[t].src + i);
      if (c == 1) {
        acc = veorq_u8(acc, v);
        continue;
      }
      const NibbleRow& nr = rows[c];
      acc = veorq_u8(acc,
                     mul_chunk(v, vld1q_u8(nr.lo), vld1q_u8(nr.hi), mask));
    }
    vst1q_u8(dst + i, acc);
  }
  for (std::size_t t = 0; t < count; ++t)
    neon_addmul(dst + i, terms[t].src + i, len - i, terms[t].coeff);
}

constexpr Kernels kNeonKernels{
    Backend::kNeon, "neon",        neon_addmul,
    neon_scale,     neon_xor_into, neon_addmul_batch,
    addmul_matrix_by_rows<neon_addmul, neon_addmul_batch>};

}  // namespace

const Kernels* neon_kernels() noexcept { return &kNeonKernels; }

}  // namespace fecsched::gf::detail

#else  // !__aarch64__

namespace fecsched::gf::detail {
const Kernels* neon_kernels() noexcept { return nullptr; }
}  // namespace fecsched::gf::detail

#endif
