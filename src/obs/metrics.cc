#include "obs/metrics.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>

namespace fecsched::obs {

Counter& MetricsRegistry::counter(std::string_view name) {
  auto it = counters_.find(name);
  if (it == counters_.end())
    it = counters_.emplace(std::string(name), Counter{}).first;
  return it->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  auto it = gauges_.find(name);
  if (it == gauges_.end()) it = gauges_.emplace(std::string(name), Gauge{}).first;
  return it->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      std::span<const std::uint64_t> bounds) {
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    Histogram h;
    h.bounds.assign(bounds.begin(), bounds.end());
    h.counts.assign(bounds.size() + 1, 0);
    it = histograms_.emplace(std::string(name), std::move(h)).first;
  }
  return it->second;
}

void MetricsRegistry::merge_from(const MetricsRegistry& other) {
  for (const auto& [name, c] : other.counters_) counter(name).add(c.value);
  for (const auto& [name, g] : other.gauges_) gauge(name).update_max(g.value);
  for (const auto& [name, h] : other.histograms_) {
    Histogram& mine = histogram(name, h.bounds);
    assert(mine.bounds == h.bounds && "histogram bounds mismatch on merge");
    for (std::size_t b = 0; b < h.counts.size(); ++b) mine.counts[b] += h.counts[b];
  }
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot s;
  s.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_) s.counters.emplace_back(name, c.value);
  s.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) s.gauges.emplace_back(name, g.value);
  s.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_)
    s.histograms.push_back({name, h.bounds, h.counts});
  return s;
}

std::span<const std::uint64_t> delay_buckets() noexcept {
  static constexpr std::array<std::uint64_t, 17> kBounds = {
      1,    2,    4,    8,     16,    32,    64,    128,   256,
      512,  1024, 2048, 4096,  8192,  16384, 32768, 65536};
  return kBounds;
}

void observe_release_delays(MetricsRegistry& metrics,
                            std::span<const double> delays) {
  if (delays.empty()) return;
  Histogram& h = metrics.histogram("delay.release_slots", delay_buckets());
  for (double d : delays)
    h.observe(static_cast<std::uint64_t>(std::llround(std::max(0.0, d))));
}

}  // namespace fecsched::obs
