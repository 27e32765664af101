// Runtime-dispatched GF(2^8) bulk-operation kernel engine.
//
// The four bulk kernels — addmul (dst ^= c*src), scale (dst = c*dst),
// xor_into (dst ^= src) and the fused multi-source addmul_batch — are the
// inner loops of every payload codec in this library: the RSE
// encode/decode matrix products, the LDGM parity XORs, the peeling
// decoder's check accumulators, and the sliding-window decoder's
// Gauss-Jordan elimination.  Each backend implements all four:
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
//  * kNeon   — vqtbl1q_u8 split-nibble on aarch64 (compiled out on x86).
//
// Selection happens once per process (CPUID probing, best backend wins)
// and can be overridden with the environment variable
// FECSCHED_GF_BACKEND=scalar|xor64|ssse3|avx2|neon for debugging, or
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

#include <cassert>
#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

namespace fecsched::gf {

/// Kernel implementation families, weakest first.  kNeon is aarch64-only;
/// kSsse3/kAvx2 are x86-only; kScalar and kXor64 run everywhere.
enum class Backend { kScalar, kXor64, kSsse3, kAvx2, kNeon };

inline constexpr Backend kAllBackends[] = {
    Backend::kScalar, Backend::kXor64, Backend::kSsse3, Backend::kAvx2,
    Backend::kNeon};

[[nodiscard]] constexpr std::string_view to_string(Backend b) noexcept {
  switch (b) {
    case Backend::kScalar: return "scalar";
    case Backend::kXor64: return "xor64";
    case Backend::kSsse3: return "ssse3";
    case Backend::kAvx2: return "avx2";
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
  /// pass over dst for all `count` terms (any count; RSE runs 100-255).
  /// The SIMD backends fetch the nibble tables once per call, with no call
  /// per term or chunk, and keep a block of dst in registers while every
  /// term accumulates into it (AVX2 256 B, SSSE3 64 B, NEON 16 B); the
  /// bytes past the last whole vector run per term.
  void (*addmul_batch)(std::uint8_t* dst, const AddmulTerm* terms,
                       std::size_t count, std::size_t len) = nullptr;
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
/// c * b == lo[b & 15] ^ hi[b >> 4].  Shared by every SIMD backend.
struct alignas(16) NibbleRow {
  std::uint8_t lo[16];
  std::uint8_t hi[16];
};
[[nodiscard]] const NibbleRow* nibble_rows() noexcept;  // 256 entries

// Per-TU backend probes: non-null iff compiled in and the CPU supports
// the instruction set.  Defined in gf256_ssse3.cc / gf256_avx2.cc /
// gf256_neon.cc so only those TUs carry target-specific code.
[[nodiscard]] const Kernels* ssse3_kernels() noexcept;
[[nodiscard]] const Kernels* avx2_kernels() noexcept;
[[nodiscard]] const Kernels* neon_kernels() noexcept;
}  // namespace detail

}  // namespace fecsched::gf
