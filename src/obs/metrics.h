// Deterministic metrics registry: counters, max-gauges and fixed-bucket
// histograms, collected per worker thread and merged into one snapshot.
//
// Every metric value is an unsigned 64-bit integer so the merge is exact:
// counters and histogram buckets add, gauges take the maximum.  Because
// the engines assign whole trials to threads and every metric update is
// derived only from trial state (never from wall-clock time or thread
// identity), the merged snapshot is bit-identical for any --threads
// value — the same discipline sim/grid uses for its result grid.
//
// Registries are single-threaded by design (one per obs::Observer, one
// observer per worker thread); cross-thread merging happens once, at
// obs::Session::finish().

#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace fecsched::obs {

/// Monotonic event count (packets sent, trials decoded, ...).
struct Counter {
  std::uint64_t value = 0;
  void add(std::uint64_t n = 1) noexcept { value += n; }
};

/// Max-merged level (longest residual run, peak queue depth, ...).
/// Max is the only gauge fold that is order- and partition-independent,
/// which the thread-count-independence guarantee requires.
struct Gauge {
  std::uint64_t value = 0;
  void update_max(std::uint64_t v) noexcept {
    if (v > value) value = v;
  }
};

/// Fixed-bucket histogram: `bounds` are inclusive upper bounds, one
/// overflow bucket is appended, so counts.size() == bounds.size() + 1.
struct Histogram {
  std::vector<std::uint64_t> bounds;
  std::vector<std::uint64_t> counts;

  void observe(std::uint64_t v) noexcept {
    std::size_t b = 0;
    while (b < bounds.size() && v > bounds[b]) ++b;
    ++counts[b];
  }

  [[nodiscard]] std::uint64_t total() const noexcept {
    std::uint64_t n = 0;
    for (std::uint64_t c : counts) n += c;
    return n;
  }
};

/// Immutable, name-sorted view of a merged registry.
struct MetricsSnapshot {
  struct Hist {
    std::string name;
    std::vector<std::uint64_t> bounds;
    std::vector<std::uint64_t> counts;
  };
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, std::uint64_t>> gauges;
  std::vector<Hist> histograms;

  [[nodiscard]] bool empty() const noexcept {
    return counters.empty() && gauges.empty() && histograms.empty();
  }
};

class MetricsRegistry {
 public:
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  /// `bounds` must be ascending; it is only consulted when `name` is new.
  Histogram& histogram(std::string_view name, std::span<const std::uint64_t> bounds);

  /// Fold another registry into this one (counters/buckets add, gauges
  /// max).  Histograms with the same name must share the same bounds.
  void merge_from(const MetricsRegistry& other);

  [[nodiscard]] MetricsSnapshot snapshot() const;

 private:
  std::map<std::string, Counter, std::less<>> counters_;
  std::map<std::string, Gauge, std::less<>> gauges_;
  std::map<std::string, Histogram, std::less<>> histograms_;
};

/// Power-of-two slot-delay bucket bounds (1, 2, 4, ... 65536) shared by
/// the engines' release-delay histograms so stream and mpath runs are
/// directly comparable.
[[nodiscard]] std::span<const std::uint64_t> delay_buckets() noexcept;

/// Adds each release delay, rounded to whole slots, to the
/// "delay.release_slots" histogram (delay_buckets()).  The engines call
/// it once per trial with DelayTracker::delays(), so a profiled run pays
/// one registry lookup per trial rather than one per released source.
void observe_release_delays(MetricsRegistry& metrics,
                            std::span<const double> delays);

}  // namespace fecsched::obs
