// Runtime-dispatched GF(2^8) bulk-operation kernel engine.
//
// The five bulk kernels — addmul (dst ^= c*src), scale (dst = c*dst),
// xor_into (dst ^= src), the fused multi-source addmul_batch and the
// multi-row addmul_matrix — are the inner loops of every payload codec in
// this library: the RSE matrix products (encode, both decode products,
// the generator) and its Gauss-Jordan inversion, the LDGM parity XORs,
// the peeling decoder's check accumulators, and the sliding-window
// decoder's elimination.  Each backend implements all five:
//
//  * kScalar — byte-at-a-time product-row table lookup.  This is the seed
//    implementation, kept verbatim as the bit-exactness oracle every other
//    backend is tested against.
//  * kXor64  — the same table multiply, but the coeff==1 / xor_into paths
//    run 64 bits at a time (8x fewer loads on the XOR-only LDGM codecs).
//  * kSsse3  — split-nibble pshufb: the product c*b of every byte b is
//    lo_table[b & 15] ^ hi_table[b >> 4], both tables 16 bytes, so one
//    _mm_shuffle_epi8 pair multiplies 16 bytes per step (Plank et al.,
//    "Screaming Fast Galois Field Arithmetic Using Intel SIMD
//    Instructions", FAST 2013 — the technique behind ISA-L and klauspost's
//    reedsolomon).  Its addmul_batch keeps 64 B of destination in
//    registers per pass over the terms.
//  * kAvx2   — the same split-nibble trick on 32-byte vectors, plus a
//    fused addmul_batch that keeps eight destination chunks (256 B) in
//    registers while it accumulates every (src, coeff) term — one dst
//    load/store per chunk instead of one per term, and one table
//    broadcast per term per 256 B.
//  * kGfni   — GFNI on AVX-512: multiplying by c is an 8x8 bit matrix
//    over GF(2), so one vgf2p8affineqb multiplies 64 bytes, where the
//    split-nibble path spends seven vector ops per 32.  Tails are
//    byte-masked vectors, and addmul_batch keeps sixteen destination
//    vectors (1 KiB) in registers per pass over the terms, reading a
//    source that starts 16, 32 or 48 bytes into a cache line (heap rows)
//    as whole lines realigned with valignd.  Its addmul_matrix holds a
//    tile of 4 destination rows x 256 B in sixteen registers and runs
//    column chunk by column chunk, so one chunk of every source (25.5 KiB
//    at k = 102) stays in L1 while each loaded source vector feeds four
//    rows.  Needs GFNI and AVX-512BW; hosts without both run avx2 or
//    ssse3.
//  * kNeon   — vqtbl1q_u8 split-nibble on aarch64 (compiled out on x86).
//
// Every backend but gfni runs addmul_matrix as one addmul_batch per
// destination row (detail::addmul_matrix_by_rows): split-nibble
// multiplication is bound by its shuffles, not by loads, so tiling rows
// would gain little there.
//
// Selection happens once per process (CPUID probing; the first supported
// of gfni, avx2, neon, ssse3, else xor64) and can be overridden with the
// environment variable
// FECSCHED_GF_BACKEND=scalar|xor64|ssse3|avx2|gfni|neon for debugging
// (an unsupported name falls back to the probe), or
// programmatically with force_backend() (tests and benches iterate every
// host-supported backend that way).  All backends produce bit-identical
// output: GF(2^8) arithmetic is exact and XOR accumulation is
// order-insensitive, so there is nothing to round.
//
// The kernels themselves are branch-lean by contract: no size or aliasing
// validation in release builds (assert() in debug).  Callers either
// validate once at workspace setup (the codec hot paths) or go through the
// checked std::span wrappers in gf/gf256.h.

#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

namespace fecsched::gf {

/// Kernel implementation families, weakest first.  kNeon is aarch64-only;
/// kSsse3/kAvx2/kGfni are x86-only; kScalar and kXor64 run everywhere.
enum class Backend { kScalar, kXor64, kSsse3, kAvx2, kGfni, kNeon };

inline constexpr Backend kAllBackends[] = {
    Backend::kScalar, Backend::kXor64, Backend::kSsse3, Backend::kAvx2,
    Backend::kGfni,   Backend::kNeon};

[[nodiscard]] constexpr std::string_view to_string(Backend b) noexcept {
  switch (b) {
    case Backend::kScalar: return "scalar";
    case Backend::kXor64: return "xor64";
    case Backend::kSsse3: return "ssse3";
    case Backend::kAvx2: return "avx2";
    case Backend::kGfni: return "gfni";
    case Backend::kNeon: return "neon";
  }
  return "?";
}

/// Parse a backend name (the FECSCHED_GF_BACKEND vocabulary).
[[nodiscard]] std::optional<Backend> backend_from_name(
    std::string_view name) noexcept;

/// One (source, coefficient) term of a fused addmul_batch pass.
struct AddmulTerm {
  const std::uint8_t* src = nullptr;
  std::uint8_t coeff = 0;
};

/// The bulk-operation function table of one backend.  All pointers are
/// non-null for a supported backend.  Preconditions (asserted in debug,
/// unchecked in release): src/dst regions of `len` bytes must not overlap
/// (except trivially when len == 0), and every AddmulTerm::src likewise.
struct Kernels {
  Backend backend = Backend::kScalar;
  const char* name = "scalar";
  /// dst[i] ^= coeff * src[i] for i in [0, len).
  void (*addmul)(std::uint8_t* dst, const std::uint8_t* src, std::size_t len,
                 std::uint8_t coeff) = nullptr;
  /// dst[i] = coeff * dst[i] for i in [0, len).
  void (*scale)(std::uint8_t* dst, std::size_t len, std::uint8_t coeff) =
      nullptr;
  /// dst[i] ^= src[i] for i in [0, len).
  void (*xor_into)(std::uint8_t* dst, const std::uint8_t* src,
                   std::size_t len) = nullptr;
  /// dst[i] ^= XOR over t of terms[t].coeff * terms[t].src[i] — one fused
  /// pass over dst for all `count` terms (any count; a codec row runs
  /// 100-255).
  /// The SIMD backends make no call per term or chunk, and keep a block
  /// of dst in registers while every term accumulates into it (GFNI
  /// 1 KiB, AVX2 256 B, SSSE3 64 B, NEON 16 B).  GFNI finishes with one
  /// byte-masked vector through every term; the split-nibble backends run
  /// the bytes past the last whole vector per term.
  void (*addmul_batch)(std::uint8_t* dst, const AddmulTerm* terms,
                       std::size_t count, std::size_t len) = nullptr;
  /// dst[r][i] ^= XOR over t of coeffs[r * terms + t] * src[t][i] for r
  /// in [0, rows) and i in [0, len): a dense rows x terms coefficient
  /// matrix, row-major, times `terms` source rows.  Every RSE product and
  /// each Gauss-Jordan pivot step is one call.  No dst row may overlap
  /// another dst row or any src row.
  void (*addmul_matrix)(std::uint8_t* const* dst,
                        const std::uint8_t* const* src,
                        const std::uint8_t* coeffs, std::size_t rows,
                        std::size_t terms, std::size_t len) = nullptr;
};

/// The active kernel set (dispatched on first use; see force_backend).
[[nodiscard]] const Kernels& kernels() noexcept;

/// The backend kernels() currently resolves to.
[[nodiscard]] Backend current_backend() noexcept;

/// Can this process run `b` (compiled in + CPU capable)?
[[nodiscard]] bool backend_supported(Backend b) noexcept;

/// Every backend this process can run, in kAllBackends order (kScalar and
/// kXor64 are always present).
[[nodiscard]] std::vector<Backend> supported_backends();

/// The kernel table of a specific backend.  Throws std::invalid_argument
/// if the backend is not supported on this host.
[[nodiscard]] const Kernels& kernels_for(Backend b);

/// Re-point kernels() at a specific backend (tests, benches, debugging).
/// Throws std::invalid_argument if unsupported.  Not synchronised against
/// concurrent kernel users — switch between workloads, not during one.
void force_backend(Backend b);

namespace detail {
/// Split-nibble product tables: for coefficient c,
/// lo[x] = c * x and hi[x] = c * (x << 4) for x in [0, 16), so
/// c * b == lo[b & 15] ^ hi[b >> 4].  Shared by the split-nibble
/// backends (ssse3, avx2, neon); gfni builds its own bit matrices.
struct alignas(16) NibbleRow {
  std::uint8_t lo[16];
  std::uint8_t hi[16];
};
[[nodiscard]] const NibbleRow* nibble_rows() noexcept;  // 256 entries

/// addmul_matrix as one Batch (a backend's addmul_batch) call per dst row,
/// zero coefficients dropped, or one Addmul call per row when there is one
/// term (a Gauss-Jordan pivot step): the form every backend but gfni runs.
template <void (*Addmul)(std::uint8_t*, const std::uint8_t*, std::size_t,
                         std::uint8_t),
          void (*Batch)(std::uint8_t*, const AddmulTerm*, std::size_t,
                        std::size_t)>
void addmul_matrix_by_rows(std::uint8_t* const* dst,
                           const std::uint8_t* const* src,
                           const std::uint8_t* coeffs, std::size_t rows,
                           std::size_t terms, std::size_t len) {
  if (terms == 1) {
    for (std::size_t r = 0; r < rows; ++r)
      Addmul(dst[r], src[0], len, coeffs[r]);
    return;
  }
  // Wider than any RSE block (k <= 255), so a codec row is one call.
  constexpr std::size_t kMaxTerms = 256;
  AddmulTerm batch[kMaxTerms];
  for (std::size_t r = 0; r < rows; ++r) {
    const std::uint8_t* row = coeffs + r * terms;
    for (std::size_t t0 = 0; t0 < terms; t0 += kMaxTerms) {
      const std::size_t end = std::min(terms, t0 + kMaxTerms);
      std::size_t count = 0;
      for (std::size_t t = t0; t < end; ++t)
        if (row[t] != 0) batch[count++] = {src[t], row[t]};
      Batch(dst[r], batch, count, len);
    }
  }
}

// Per-TU backend probes: non-null iff compiled in and the CPU supports
// the instruction set.  Defined in gf256_ssse3.cc / gf256_avx2.cc /
// gf256_gfni.cc / gf256_neon.cc so only those TUs carry target-specific
// code.
[[nodiscard]] const Kernels* ssse3_kernels() noexcept;
[[nodiscard]] const Kernels* avx2_kernels() noexcept;
[[nodiscard]] const Kernels* gfni_kernels() noexcept;
[[nodiscard]] const Kernels* neon_kernels() noexcept;
}  // namespace detail

}  // namespace fecsched::gf
