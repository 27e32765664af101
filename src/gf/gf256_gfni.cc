// GFNI affine GF(2^8) kernels on AVX-512 (see gf/gf256_kernels.h).  This
// TU is the only one compiled with -mgfni -mavx512bw; elsewhere it
// degrades to a null probe.  Multiplying by a constant c is GF(2)-linear
// in the bits of the multiplicand, so it is an 8x8 bit matrix, and one
// vgf2p8affineqb applies that matrix to all 64 bytes of a zmm register.
// (vgf2p8mulb is no use here: it multiplies modulo the AES polynomial
// 0x11b, not this field's 0x11d.)  Every kernel runs whole 64-byte
// vectors and finishes with one byte-masked vector, and addmul_batch
// keeps sixteen destination vectors (1 KiB) in registers while every
// (src, coeff) term accumulates into them, reading 16-byte-aligned
// sources line by line so no load splits a cache line.  addmul_matrix
// tiles the destination instead: four rows x one 256-byte column chunk
// in sixteen registers, the chunks outermost, so a chunk of every source
// is read from L1 once per tile and each loaded vector feeds four rows.

#include "gf/gf256_kernels.h"

#if defined(__GFNI__) && defined(__AVX512BW__) && defined(__x86_64__)

#include <immintrin.h>

#include <array>

#include "gf/gf256.h"

namespace fecsched::gf::detail {

namespace {

/// a * b by shift-and-add modulo the field polynomial (table build only).
constexpr std::uint8_t slow_mul(std::uint8_t a, std::uint8_t b) {
  unsigned product = 0;
  unsigned x = a;
  for (int bit = 0; bit < 8; ++bit) {
    if ((b >> bit) & 1) product ^= x;
    x <<= 1;
    if (x & 0x100) x ^= kPrimitivePoly;
  }
  return static_cast<std::uint8_t>(product);
}

/// The map x -> c * x as vgf2p8affineqb's operand: output bit i is the
/// parity of x AND byte 7-i of the qword, so bit j of byte 7-i is bit i
/// of c * 2^j.
constexpr std::uint64_t affine_matrix(std::uint8_t c) {
  std::uint64_t matrix = 0;
  for (int j = 0; j < 8; ++j) {
    const std::uint8_t column = slow_mul(c, static_cast<std::uint8_t>(1 << j));
    for (int i = 0; i < 8; ++i)
      if ((column >> i) & 1) matrix |= std::uint64_t{1} << (8 * (7 - i) + j);
  }
  return matrix;
}

constexpr std::array<std::uint64_t, 256> kMatrices = [] {
  std::array<std::uint64_t, 256> table{};
  for (int c = 0; c < 256; ++c)
    table[static_cast<std::size_t>(c)] =
        affine_matrix(static_cast<std::uint8_t>(c));
  return table;
}();
static_assert(kMatrices[1] == 0x0102040810204080,
              "multiplying by 1 must be the identity matrix");

constexpr std::size_t kVec = 64;
/// Vectors of dst held in registers per addmul_batch pass over the terms.
constexpr std::size_t kBlock = 16;

inline __m512i load(const std::uint8_t* p) { return _mm512_loadu_si512(p); }
inline void store(std::uint8_t* p, __m512i v) { _mm512_storeu_si512(p, v); }

/// The first n bytes of a vector, n < 64.
inline __mmask64 tail_mask(std::size_t n) {
  return (__mmask64{1} << n) - 1;
}

inline __m512i matrix(std::uint8_t c) {
  return _mm512_set1_epi64(static_cast<long long>(kMatrices[c]));
}

inline __m512i mul(__m512i v, __m512i m) {
  return _mm512_gf2p8affine_epi64_epi8(v, m, 0);
}

/// dst = op(dst, src) over [0, len): whole vectors, then one masked one.
template <typename Op>
inline void map_vectors(std::uint8_t* dst, const std::uint8_t* src,
                        std::size_t len, Op op) {
  std::size_t i = 0;
  for (; i + kVec <= len; i += kVec)
    store(dst + i, op(load(dst + i), load(src + i)));
  if (i < len) {
    const __mmask64 m = tail_mask(len - i);
    _mm512_mask_storeu_epi8(dst + i, m,
                            op(_mm512_maskz_loadu_epi8(m, dst + i),
                               _mm512_maskz_loadu_epi8(m, src + i)));
  }
}

void gfni_xor_into(std::uint8_t* dst, const std::uint8_t* src,
                   std::size_t len) {
  if (len == 0) return;
  assert(dst != nullptr && src != nullptr);
  map_vectors(dst, src, len, [](__m512i d, __m512i s) {
    return _mm512_xor_si512(d, s);
  });
}

void gfni_addmul(std::uint8_t* dst, const std::uint8_t* src, std::size_t len,
                 std::uint8_t coeff) {
  if (coeff == 0 || len == 0) return;
  if (coeff == 1) {
    gfni_xor_into(dst, src, len);
    return;
  }
  assert(dst != nullptr && src != nullptr);
  const __m512i m = matrix(coeff);
  map_vectors(dst, src, len, [m](__m512i d, __m512i s) {
    return _mm512_xor_si512(d, mul(s, m));
  });
}

void gfni_scale(std::uint8_t* dst, std::size_t len, std::uint8_t coeff) {
  if (coeff == 1 || len == 0) return;
  assert(dst != nullptr);
  const __m512i m = matrix(coeff);
  map_vectors(dst, dst, len, [m](__m512i d, __m512i) { return mul(d, m); });
}

/// acc[b] ^= c * s[64b, 64b + 64) for b < kBlock, where s sits 4 * Q bytes
/// into a cache line.  A batch's sources stream from L2, where loads that
/// split two lines cost it about 15%, so this reads the source's own
/// lines (masked at both ends of its span) and shifts each adjacent pair
/// into place with one valignd.
template <int Q>
inline void addmul_realigned(__m512i* acc, const std::uint8_t* s, __m512i m) {
  constexpr std::size_t kOffset = 4 * Q;
  // The line holding s[0], reached through an integer: the bytes before s
  // are not the source's, and the masked load leaves them unread.
  const auto* head = reinterpret_cast<const std::uint8_t*>(
      reinterpret_cast<std::uintptr_t>(s) - kOffset);
  __m512i lo = _mm512_maskz_loadu_epi8(~__mmask64{0} << kOffset, head);
#pragma GCC unroll 16
  for (std::size_t b = 0; b < kBlock; ++b) {
    const std::uint8_t* next = s + (kVec * (b + 1) - kOffset);
    const __m512i hi = b + 1 < kBlock
                           ? load(next)
                           : _mm512_maskz_loadu_epi8(tail_mask(kOffset), next);
    // The zero-masking form with every lane selected is plain valignd; the
    // unmasked intrinsic trips g++ 12's -Wmaybe-uninitialized.
    const __m512i v = _mm512_maskz_alignr_epi32(0xffff, hi, lo, Q);
    acc[b] = _mm512_xor_si512(acc[b], mul(v, m));
    lo = hi;
  }
}

/// From offset `i`, one pass over the terms per kBlock vectors of dst
/// while a whole block fits, the block held in registers throughout.
/// Returns the offset it stopped at.
std::size_t batch_blocks(std::uint8_t* dst, const AddmulTerm* terms,
                         std::size_t count, std::size_t len, std::size_t i) {
  for (; i + kBlock * kVec <= len; i += kBlock * kVec) {
    __m512i acc[kBlock];
#pragma GCC unroll 16
    for (std::size_t b = 0; b < kBlock; ++b) acc[b] = load(dst + i + kVec * b);
    for (std::size_t t = 0; t < count; ++t) {
      const std::uint8_t c = terms[t].coeff;
      if (c == 0) continue;
      const std::uint8_t* s = terms[t].src + i;
      if (c == 1) {
#pragma GCC unroll 16
        for (std::size_t b = 0; b < kBlock; ++b)
          acc[b] = _mm512_xor_si512(acc[b], load(s + kVec * b));
        continue;
      }
      const __m512i m = matrix(c);
      // Heap rows are 16-byte aligned (operator new), so these three
      // offsets are the ones a codec's symbols start at.
      switch (reinterpret_cast<std::uintptr_t>(s) % kVec) {
        case 16: addmul_realigned<4>(acc, s, m); break;
        case 32: addmul_realigned<8>(acc, s, m); break;
        case 48: addmul_realigned<12>(acc, s, m); break;
        default:
#pragma GCC unroll 16
          for (std::size_t b = 0; b < kBlock; ++b)
            acc[b] = _mm512_xor_si512(acc[b], mul(load(s + kVec * b), m));
      }
    }
#pragma GCC unroll 16
    for (std::size_t b = 0; b < kBlock; ++b) store(dst + i + kVec * b, acc[b]);
  }
  return i;
}

void gfni_addmul_batch(std::uint8_t* dst, const AddmulTerm* terms,
                       std::size_t count, std::size_t len) {
  if (count == 0 || len == 0) return;
  assert(dst != nullptr);
  // 1 KiB blocks, then one vector at a time through every term, the last
  // one byte-masked.
  for (std::size_t i = batch_blocks(dst, terms, count, len, 0); i < len;
       i += kVec) {
    const __mmask64 mask = len - i >= kVec ? ~__mmask64{0} : tail_mask(len - i);
    __m512i acc = _mm512_maskz_loadu_epi8(mask, dst + i);
    for (std::size_t t = 0; t < count; ++t) {
      const std::uint8_t c = terms[t].coeff;
      if (c == 0) continue;
      const __m512i v = _mm512_maskz_loadu_epi8(mask, terms[t].src + i);
      acc = _mm512_xor_si512(acc, c == 1 ? v : mul(v, matrix(c)));
    }
    _mm512_mask_storeu_epi8(dst + i, mask, acc);
  }
}

/// addmul_matrix's register tile: kTileRows dst rows by kTileVecs vectors
/// (a 256-byte column chunk), sixteen accumulators.  A chunk of 102
/// sources is 25.5 KiB, so it stays in L1 across a chunk's row tiles.
constexpr std::size_t kTileRows = 4;
constexpr std::size_t kTileVecs = 4;
constexpr std::size_t kChunk = kTileVecs * kVec;

/// dst[r][i, i + 64V) ^= XOR over t of coeffs[r * terms + t] *
/// src[t][i, i + 64V) for r < R, the R x V accumulators held in registers
/// across every term.  With kMasked the last vector covers only the bytes
/// in `last`.
template <std::size_t R, std::size_t V, bool kMasked>
inline void matrix_tile(std::uint8_t* const* dst,
                        const std::uint8_t* const* src,
                        const std::uint8_t* coeffs, std::size_t terms,
                        std::size_t i, __mmask64 last) {
  const auto ld = [i, last](const std::uint8_t* p, std::size_t v) {
    return kMasked && v + 1 == V
               ? _mm512_maskz_loadu_epi8(last, p + i + kVec * v)
               : load(p + i + kVec * v);
  };
  const std::uint8_t* row[R];
  __m512i acc[R][V];
#pragma GCC unroll 4
  for (std::size_t r = 0; r < R; ++r) {
    row[r] = coeffs + r * terms;
#pragma GCC unroll 4
    for (std::size_t v = 0; v < V; ++v) acc[r][v] = ld(dst[r], v);
  }
  for (std::size_t t = 0; t < terms; ++t) {
    __m512i s[V];
#pragma GCC unroll 4
    for (std::size_t v = 0; v < V; ++v) s[v] = ld(src[t], v);
#pragma GCC unroll 4
    for (std::size_t r = 0; r < R; ++r) {
      const __m512i m = matrix(row[r][t]);
#pragma GCC unroll 4
      for (std::size_t v = 0; v < V; ++v)
        acc[r][v] = _mm512_xor_si512(acc[r][v], mul(s[v], m));
    }
  }
#pragma GCC unroll 4
  for (std::size_t r = 0; r < R; ++r) {
#pragma GCC unroll 4
    for (std::size_t v = 0; v < V; ++v) {
      std::uint8_t* p = dst[r] + i + kVec * v;
      if (kMasked && v + 1 == V)
        _mm512_mask_storeu_epi8(p, last, acc[r][v]);
      else
        store(p, acc[r][v]);
    }
  }
}

/// One column chunk at offset i through every row: whole tiles of
/// kTileRows, then the last rows in one smaller tile.
template <std::size_t V, bool kMasked>
void matrix_chunk(std::uint8_t* const* dst, const std::uint8_t* const* src,
                  const std::uint8_t* coeffs, std::size_t rows,
                  std::size_t terms, std::size_t i, __mmask64 last) {
  std::size_t r = 0;
  for (; r + kTileRows <= rows; r += kTileRows)
    matrix_tile<kTileRows, V, kMasked>(dst + r, src, coeffs + r * terms,
                                       terms, i, last);
  switch (rows - r) {
    case 3:
      matrix_tile<3, V, kMasked>(dst + r, src, coeffs + r * terms, terms, i,
                                 last);
      break;
    case 2:
      matrix_tile<2, V, kMasked>(dst + r, src, coeffs + r * terms, terms, i,
                                 last);
      break;
    case 1:
      matrix_tile<1, V, kMasked>(dst + r, src, coeffs + r * terms, terms, i,
                                 last);
      break;
    default: break;
  }
}

void gfni_addmul_matrix(std::uint8_t* const* dst,
                        const std::uint8_t* const* src,
                        const std::uint8_t* coeffs, std::size_t rows,
                        std::size_t terms, std::size_t len) {
  if (rows == 0 || terms == 0 || len == 0) return;
  assert(dst != nullptr && src != nullptr && coeffs != nullptr);
  std::size_t i = 0;
  for (; i + kChunk <= len; i += kChunk)
    matrix_chunk<kTileVecs, false>(dst, src, coeffs, rows, terms, i, 0);
  if (i == len) return;
  // The last, partial chunk: its vectors, the last one byte-masked unless
  // it is whole (the inversion's 64-byte-padded rows).
  const std::size_t vecs = (len - i + kVec - 1) / kVec;
  const __mmask64 last = ~__mmask64{0} >> (vecs * kVec - (len - i));
  const auto tail = [&]<std::size_t V>() {
    if (last == ~__mmask64{0})
      matrix_chunk<V, false>(dst, src, coeffs, rows, terms, i, last);
    else
      matrix_chunk<V, true>(dst, src, coeffs, rows, terms, i, last);
  };
  switch (vecs) {
    case 1: tail.operator()<1>(); break;
    case 2: tail.operator()<2>(); break;
    case 3: tail.operator()<3>(); break;
    default: tail.operator()<4>();
  }
}

constexpr Kernels kGfniKernels{Backend::kGfni,     "gfni",
                               gfni_addmul,        gfni_scale,
                               gfni_xor_into,      gfni_addmul_batch,
                               gfni_addmul_matrix};

}  // namespace

const Kernels* gfni_kernels() noexcept {
  // libgcc reports avx512bw only when the OS saves zmm state (XCR0).
  return __builtin_cpu_supports("gfni") && __builtin_cpu_supports("avx512bw")
             ? &kGfniKernels
             : nullptr;
}

}  // namespace fecsched::gf::detail

#else  // !(__GFNI__ && __AVX512BW__)

namespace fecsched::gf::detail {
const Kernels* gfni_kernels() noexcept { return nullptr; }
}  // namespace fecsched::gf::detail

#endif
