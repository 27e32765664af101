// Small online-statistics helpers used by the simulation harness.

#pragma once

#include <cstddef>
#include <limits>
#include <vector>

namespace fecsched {

/// Linearly interpolated percentile of an ascending-sorted sample
/// (pct in [0, 1]; 0 for an empty sample).  Shared by the delay tracker
/// and the CLI so both report identical interpolation semantics.
[[nodiscard]] double sorted_percentile(const std::vector<double>& sorted,
                                       double pct) noexcept;

/// Sorts `v` ascending in linear time: an LSD radix sort on order-preserving
/// 64-bit keys (the bits with the sign bit flipped for values >= +0.0, every
/// bit flipped below), one counting pass per key byte that varies across
/// `v`.  For any input without NaN the result equals std::sort's; where
/// std::sort leaves -0.0 and +0.0 in either order, -0.0 comes first here.
/// Allocates one v.size()-element scratch buffer per call and keeps
/// nothing between calls.
void sort_doubles(std::vector<double>& v);

/// Welford online accumulator for mean / variance / extrema.
/// Numerically stable; O(1) memory regardless of sample count.
class RunningStats {
 public:
  /// Add one observation.
  void add(double x) noexcept;

  [[nodiscard]] std::size_t count() const noexcept { return n_; }
  [[nodiscard]] double mean() const noexcept { return n_ ? mean_ : 0.0; }
  /// Unbiased sample variance (0 for fewer than two observations).
  [[nodiscard]] double variance() const noexcept;
  [[nodiscard]] double stddev() const noexcept;
  [[nodiscard]] double min() const noexcept { return min_; }
  [[nodiscard]] double max() const noexcept { return max_; }

  /// Merge another accumulator into this one (parallel reduction).
  void merge(const RunningStats& other) noexcept;

  /// Welford's second central moment sum (variance numerator).  Exposed —
  /// together with restore() — so checkpoint shards can round-trip an
  /// accumulator exactly (api::Json doubles serialize losslessly).
  [[nodiscard]] double m2() const noexcept { return m2_; }

  /// Rebuild an accumulator from its exact internal state, the inverse of
  /// (count, mean, m2, min, max).  A restored accumulator continues
  /// add()/merge() bit-identically to the original.
  [[nodiscard]] static RunningStats restore(std::size_t n, double mean,
                                            double m2, double min,
                                            double max) noexcept {
    RunningStats s;
    s.n_ = n;
    s.mean_ = mean;
    s.m2_ = m2;
    s.min_ = min;
    s.max_ = max;
    return s;
  }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

}  // namespace fecsched
