#include "gf/gf256_kernels.h"

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>

#include "gf/gf256.h"

namespace fecsched::gf {

std::optional<Backend> backend_from_name(std::string_view name) noexcept {
  for (Backend b : kAllBackends)
    if (name == to_string(b)) return b;
  if (name == "auto") return std::nullopt;  // "pick for me" == no override
  return std::nullopt;
}

namespace detail {

namespace {

const NibbleRow* build_nibble_rows() {
  static NibbleRow rows[256];
  const auto& t = kTables;
  for (int c = 0; c < 256; ++c) {
    for (int x = 0; x < 16; ++x) {
      rows[c].lo[x] = t.mul_row[static_cast<std::size_t>(c)]
                               [static_cast<std::size_t>(x)];
      rows[c].hi[x] = t.mul_row[static_cast<std::size_t>(c)]
                               [static_cast<std::size_t>(x << 4)];
    }
  }
  return rows;
}

}  // namespace

const NibbleRow* nibble_rows() noexcept {
  static const NibbleRow* rows = build_nibble_rows();
  return rows;
}

}  // namespace detail

namespace {

// ----------------------------------------------------------------- scalar
// The seed implementation, byte-for-byte: the oracle every other backend
// is validated against.

void scalar_addmul(std::uint8_t* dst, const std::uint8_t* src,
                   std::size_t len, std::uint8_t coeff) {
  if (coeff == 0 || len == 0) return;
  assert(dst != nullptr && src != nullptr);
  if (coeff == 1) {
    for (std::size_t i = 0; i < len; ++i) dst[i] ^= src[i];
    return;
  }
  const auto& row = detail::kTables.mul_row[coeff];
  for (std::size_t i = 0; i < len; ++i) dst[i] ^= row[src[i]];
}

void scalar_scale(std::uint8_t* dst, std::size_t len, std::uint8_t coeff) {
  if (coeff == 1 || len == 0) return;
  assert(dst != nullptr);
  const auto& row = detail::kTables.mul_row[coeff];
  for (std::size_t i = 0; i < len; ++i) dst[i] = row[dst[i]];
}

void scalar_xor_into(std::uint8_t* dst, const std::uint8_t* src,
                     std::size_t len) {
  if (len == 0) return;
  assert(dst != nullptr && src != nullptr);
  for (std::size_t i = 0; i < len; ++i) dst[i] ^= src[i];
}

void generic_addmul_batch(void (*addmul)(std::uint8_t*, const std::uint8_t*,
                                         std::size_t, std::uint8_t),
                          std::uint8_t* dst, const AddmulTerm* terms,
                          std::size_t count, std::size_t len) {
  for (std::size_t t = 0; t < count; ++t)
    addmul(dst, terms[t].src, len, terms[t].coeff);
}

void scalar_addmul_batch(std::uint8_t* dst, const AddmulTerm* terms,
                         std::size_t count, std::size_t len) {
  generic_addmul_batch(scalar_addmul, dst, terms, count, len);
}

// ------------------------------------------------------------------ xor64
// Table multiply, but all XOR-only paths run one 64-bit word at a time.
// memcpy keeps the loads/stores alignment-safe; the compiler lowers each
// to a single unaligned move.

void xor64_words(std::uint8_t* dst, const std::uint8_t* src,
                 std::size_t len) {
  std::size_t i = 0;
  for (; i + 8 <= len; i += 8) {
    std::uint64_t a, b;
    std::memcpy(&a, dst + i, 8);
    std::memcpy(&b, src + i, 8);
    a ^= b;
    std::memcpy(dst + i, &a, 8);
  }
  for (; i < len; ++i) dst[i] ^= src[i];
}

void xor64_addmul(std::uint8_t* dst, const std::uint8_t* src, std::size_t len,
                  std::uint8_t coeff) {
  if (coeff == 0 || len == 0) return;
  assert(dst != nullptr && src != nullptr);
  if (coeff == 1) {
    xor64_words(dst, src, len);
    return;
  }
  const auto& row = detail::kTables.mul_row[coeff];
  for (std::size_t i = 0; i < len; ++i) dst[i] ^= row[src[i]];
}

void xor64_xor_into(std::uint8_t* dst, const std::uint8_t* src,
                    std::size_t len) {
  if (len == 0) return;
  assert(dst != nullptr && src != nullptr);
  xor64_words(dst, src, len);
}

void xor64_addmul_batch(std::uint8_t* dst, const AddmulTerm* terms,
                        std::size_t count, std::size_t len) {
  generic_addmul_batch(xor64_addmul, dst, terms, count, len);
}

// --------------------------------------------------------------- dispatch

constexpr Kernels kScalarKernels{
    Backend::kScalar,    "scalar",        scalar_addmul,
    scalar_scale,        scalar_xor_into, scalar_addmul_batch,
    detail::addmul_matrix_by_rows<scalar_addmul, scalar_addmul_batch>};
constexpr Kernels kXor64Kernels{
    Backend::kXor64,    "xor64",        xor64_addmul,
    scalar_scale,       xor64_xor_into, xor64_addmul_batch,
    detail::addmul_matrix_by_rows<xor64_addmul, xor64_addmul_batch>};

const Kernels* lookup(Backend b) noexcept {
  switch (b) {
    case Backend::kScalar: return &kScalarKernels;
    case Backend::kXor64: return &kXor64Kernels;
    case Backend::kSsse3: return detail::ssse3_kernels();
    case Backend::kAvx2: return detail::avx2_kernels();
    case Backend::kGfni: return detail::gfni_kernels();
    case Backend::kNeon: return detail::neon_kernels();
  }
  return nullptr;
}

const Kernels* pick_default() noexcept {
  if (const char* env = std::getenv("FECSCHED_GF_BACKEND");
      env != nullptr && *env != '\0') {
    if (const auto b = backend_from_name(env)) {
      if (const Kernels* k = lookup(*b)) return k;
      // Unsupported override: fall through to auto-detection rather than
      // crash — the debugging aid must never take the process down.
    }
  }
  for (Backend b :
       {Backend::kGfni, Backend::kAvx2, Backend::kNeon, Backend::kSsse3}) {
    if (const Kernels* k = lookup(b)) return k;
  }
  return &kXor64Kernels;
}

std::atomic<const Kernels*> g_kernels{nullptr};

}  // namespace

const Kernels& kernels() noexcept {
  const Kernels* k = g_kernels.load(std::memory_order_acquire);
  if (k == nullptr) {
    // Benign race: concurrent first calls all compute the same pointer.
    k = pick_default();
    g_kernels.store(k, std::memory_order_release);
  }
  return *k;
}

Backend current_backend() noexcept { return kernels().backend; }

bool backend_supported(Backend b) noexcept { return lookup(b) != nullptr; }

std::vector<Backend> supported_backends() {
  std::vector<Backend> out;
  for (Backend b : kAllBackends)
    if (backend_supported(b)) out.push_back(b);
  return out;
}

const Kernels& kernels_for(Backend b) {
  const Kernels* k = lookup(b);
  if (k == nullptr)
    throw std::invalid_argument("gf256: backend '" +
                                std::string(to_string(b)) +
                                "' is not supported on this host");
  return *k;
}

void force_backend(Backend b) {
  g_kernels.store(&kernels_for(b), std::memory_order_release);
}

}  // namespace fecsched::gf
