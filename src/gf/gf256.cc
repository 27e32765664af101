#include "gf/gf256.h"

#include <stdexcept>

#include "gf/gf256_kernels.h"

namespace fecsched::gf {
namespace detail {

namespace {

constexpr Tables build_tables() {
  Tables t{};
  unsigned x = 1;
  for (int i = 0; i < kGroupOrder; ++i) {
    t.exp[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(x);
    t.exp[static_cast<std::size_t>(i + kGroupOrder)] = static_cast<std::uint8_t>(x);
    t.log[x] = static_cast<std::uint16_t>(i);
    x <<= 1;
    if (x & 0x100) x ^= kPrimitivePoly;
  }
  t.log[0] = 0xffff;  // sentinel: log of zero is undefined
  for (int a = 0; a < kFieldSize; ++a) {
    for (int b = 0; b < kFieldSize; ++b) {
      std::uint8_t r = 0;
      if (a != 0 && b != 0) {
        r = t.exp[static_cast<std::size_t>(t.log[static_cast<std::size_t>(a)] +
                                           t.log[static_cast<std::size_t>(b)])];
      }
      t.mul_row[static_cast<std::size_t>(a)][static_cast<std::size_t>(b)] = r;
    }
  }
  return t;
}

}  // namespace

constinit const Tables kTables = build_tables();

}  // namespace detail

std::uint8_t div(std::uint8_t a, std::uint8_t b) {
  if (b == 0) throw std::domain_error("gf256: division by zero");
  if (a == 0) return 0;
  const auto& t = detail::kTables;
  const int e = t.log[a] - t.log[b] + kGroupOrder;
  return t.exp[static_cast<std::size_t>(e % kGroupOrder)];
}

std::uint8_t inv(std::uint8_t a) {
  if (a == 0) throw std::domain_error("gf256: inverse of zero");
  const auto& t = detail::kTables;
  return t.exp[static_cast<std::size_t>((kGroupOrder - t.log[a]) % kGroupOrder)];
}

std::uint8_t pow(std::uint8_t a, unsigned exponent) noexcept {
  if (exponent == 0) return 1;
  if (a == 0) return 0;
  const auto& t = detail::kTables;
  // log(a^exponent) = log(a)*exponent mod 255; compute in 64 bits to be safe.
  const std::uint64_t le =
      (static_cast<std::uint64_t>(t.log[a]) * exponent) % kGroupOrder;
  return t.exp[static_cast<std::size_t>(le)];
}

void addmul(std::span<std::uint8_t> dst, std::span<const std::uint8_t> src,
            std::uint8_t coeff) {
  if (dst.size() != src.size())
    throw std::invalid_argument("gf256::addmul: span size mismatch");
  kernels().addmul(dst.data(), src.data(), dst.size(), coeff);
}

void scale(std::span<std::uint8_t> dst, std::uint8_t coeff) {
  kernels().scale(dst.data(), dst.size(), coeff);
}

void xor_into(std::span<std::uint8_t> dst, std::span<const std::uint8_t> src) {
  if (dst.size() != src.size())
    throw std::invalid_argument("gf256::xor_into: span size mismatch");
  kernels().xor_into(dst.data(), src.data(), dst.size());
}

}  // namespace fecsched::gf
