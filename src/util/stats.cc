#include "util/stats.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <utility>

namespace fecsched {

namespace {

constexpr std::uint64_t kSignBit = std::uint64_t{1} << 63;

// Keys live in the doubles' own storage while the sort runs, moved by
// memcpy rather than read through a cast pointer.
std::uint64_t load_bits(const double* p) noexcept {
  std::uint64_t bits;
  std::memcpy(&bits, p, sizeof bits);
  return bits;
}
void store_bits(double* p, std::uint64_t bits) noexcept {
  std::memcpy(p, &bits, sizeof bits);
}

// Unsigned key order is numeric order: -inf < ... < -0.0 < +0.0 < ... < +inf.
std::uint64_t to_key(std::uint64_t bits) noexcept {
  return bits ^ ((0 - (bits >> 63)) | kSignBit);
}
std::uint64_t from_key(std::uint64_t key) noexcept {
  return key ^ (((key >> 63) - 1) | kSignBit);
}

// One stable counting pass on the key byte at `shift`, src -> dst.  Four
// counter sets take alternate elements, so a run of one byte value does
// not chain every increment through a single counter.
void radix_pass(const double* src, double* dst, std::size_t n,
                unsigned shift) noexcept {
  std::size_t count[4][256] = {};
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    ++count[0][(load_bits(src + i) >> shift) & 0xff];
    ++count[1][(load_bits(src + i + 1) >> shift) & 0xff];
    ++count[2][(load_bits(src + i + 2) >> shift) & 0xff];
    ++count[3][(load_bits(src + i + 3) >> shift) & 0xff];
  }
  for (; i < n; ++i) ++count[0][(load_bits(src + i) >> shift) & 0xff];
  std::size_t next[256];
  std::size_t total = 0;
  for (std::size_t b = 0; b < 256; ++b) {
    next[b] = total;
    total += count[0][b] + count[1][b] + count[2][b] + count[3][b];
  }
  for (i = 0; i < n; ++i) {
    const std::uint64_t key = load_bits(src + i);
    store_bits(dst + next[(key >> shift) & 0xff]++, key);
  }
}

}  // namespace

void sort_doubles(std::vector<double>& v) {
  const std::size_t n = v.size();
  if (n < 2) return;
  double* const data = v.data();
  const std::uint64_t first = to_key(load_bits(data));
  std::uint64_t varying = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t key = to_key(load_bits(data + i));
    store_bits(data + i, key);
    varying |= key ^ first;
  }
  const auto scratch = std::make_unique_for_overwrite<double[]>(n);
  double* src = data;
  double* dst = scratch.get();
  for (unsigned shift = 0; shift < 64; shift += 8) {
    if (((varying >> shift) & 0xff) == 0) continue;
    radix_pass(src, dst, n, shift);
    std::swap(src, dst);
  }
  for (std::size_t i = 0; i < n; ++i)
    store_bits(data + i, from_key(load_bits(src + i)));
}

double sorted_percentile(const std::vector<double>& sorted,
                         double pct) noexcept {
  if (sorted.empty()) return 0.0;
  const double rank = pct * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

void RunningStats::add(double x) noexcept {
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
  if (x < min_) min_ = x;
  if (x > max_) max_ = x;
}

double RunningStats::variance() const noexcept {
  return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double RunningStats::stddev() const noexcept { return std::sqrt(variance()); }

void RunningStats::merge(const RunningStats& other) noexcept {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double delta = other.mean_ - mean_;
  const auto na = static_cast<double>(n_);
  const auto nb = static_cast<double>(other.n_);
  const double nt = na + nb;
  mean_ += delta * nb / nt;
  m2_ += other.m2_ + delta * delta * na * nb / nt;
  n_ += other.n_;
  if (other.min_ < min_) min_ = other.min_;
  if (other.max_ > max_) max_ = other.max_;
}

}  // namespace fecsched
