#include "obs/regress.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <tuple>

namespace fecsched::obs {

namespace {

bool starts_with(const std::string& s, const std::string& prefix) {
  return s.size() >= prefix.size() &&
         s.compare(0, prefix.size(), prefix) == 0;
}

/// "2026-08-07T10:00:00Z host gf=avx2 threads=4" — enough to name a
/// record in a diagnostic without dumping the whole line.
std::string describe(const LedgerRecord& r) {
  const RunManifest& m = r.manifest;
  std::string out = m.started_at.empty() ? "<no-start-time>" : m.started_at;
  out += ' ';
  out += m.hostname.empty() ? "<no-host>" : m.hostname;
  out += " gf=" + m.gf_backend;
  out += " threads=" + std::to_string(m.threads);
  if (!r.label.empty()) out += " label=" + r.label;
  return out;
}

/// First differing entry of two name-sorted value lists ("" if equal).
std::string first_difference(const std::string& kind,
                             const MetricsSnapshot::Values& a,
                             const MetricsSnapshot::Values& b) {
  for (std::size_t i = 0; i < std::max(a.size(), b.size()); ++i) {
    if (i >= a.size()) return kind + b[i].first + " only in second";
    if (i >= b.size()) return kind + a[i].first + " only in first";
    if (a[i] != b[i])
      return kind + a[i].first + ": " + std::to_string(a[i].second) +
             " vs " + std::to_string(b[i].second);
  }
  return {};
}

/// First differing metric between two snapshots with unequal digests.
std::string first_difference(const MetricsSnapshot& a,
                             const MetricsSnapshot& b) {
  std::string d = first_difference("counter ", a.counters, b.counters);
  if (d.empty()) d = first_difference("gauge ", a.gauges, b.gauges);
  return d.empty() ? "histogram buckets differ" : d;
}

std::string format_ratio(double ratio) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.2fx", ratio);
  return buf;
}

}  // namespace

bool LedgerFilter::matches(const LedgerRecord& r) const {
  if (!fingerprint.empty() && !starts_with(r.manifest.fingerprint, fingerprint))
    return false;
  if (!engine.empty() && r.manifest.engine != engine) return false;
  if (!gf.empty() && r.manifest.gf_backend != gf) return false;
  if (!kind.empty() && r.kind != kind) return false;
  return true;
}

std::vector<LedgerRecord> filter_records(std::vector<LedgerRecord> records,
                                         const LedgerFilter& filter) {
  std::vector<LedgerRecord> out;
  out.reserve(records.size());
  for (LedgerRecord& r : records)
    if (filter.matches(r)) out.push_back(std::move(r));
  return out;
}

CompareReport compare_records(std::vector<LedgerRecord> records,
                              const CompareOptions& options) {
  records = compact_records(std::move(records));
  CompareReport report;
  report.records = records.size();

  // Canonical order sorts by fingerprint first, so groups are contiguous.
  std::size_t begin = 0;
  while (begin < records.size()) {
    std::size_t end = begin;
    while (end < records.size() &&
           records[end].manifest.fingerprint ==
               records[begin].manifest.fingerprint)
      ++end;
    ++report.groups;
    const std::string& fp = records[begin].manifest.fingerprint;

    // --- deterministic values: bit-identical or regression.  Benches
    // and runs never compare against each other (different collection
    // paths), and a record without metrics (obs off) asserts nothing.
    using Subkey = std::pair<std::string, std::string>;  // (kind, label)
    std::map<Subkey, const LedgerRecord*> metric_baseline;
    std::map<Subkey, const LedgerRecord*> calls_baseline;
    for (std::size_t i = begin; i < end; ++i) {
      const LedgerRecord& r = records[i];
      const Subkey key{r.kind, r.label};
      if (!r.metrics.empty()) {
        const auto [it, inserted] = metric_baseline.emplace(key, &r);
        if (!inserted && metrics_digest(it->second->metrics) !=
                             metrics_digest(r.metrics)) {
          report.drifts.push_back(
              "metric drift: " + fp + " engine=" + r.manifest.engine +
              ": " + first_difference(it->second->metrics, r.metrics) +
              " (" + describe(*it->second) + " vs " + describe(r) + ")");
        }
      }
      if (r.has_profile()) {
        const auto [it, inserted] = calls_baseline.emplace(key, &r);
        if (!inserted && phase_calls_digest(it->second->phases) !=
                             phase_calls_digest(r.phases)) {
          report.drifts.push_back(
              "phase-call drift: " + fp + " engine=" + r.manifest.engine +
              " (" + describe(*it->second) + " vs " + describe(r) + ")");
        }
      }
    }

    // --- timings: same machine, same backend, same thread count only;
    // earliest record (canonical order) is the baseline; only slowdowns
    // beyond the threshold count, and only above the noise floors.
    using TimeKey = std::tuple<std::string, std::string, std::string,
                               unsigned, std::string>;
    std::map<TimeKey, const LedgerRecord*> time_baseline;
    for (std::size_t i = begin; i < end; ++i) {
      const LedgerRecord& r = records[i];
      const TimeKey key{r.kind, r.label, r.manifest.gf_backend,
                        r.manifest.threads, r.manifest.hostname};
      const auto [it, inserted] = time_baseline.emplace(key, &r);
      if (inserted) continue;
      const LedgerRecord& base = *it->second;
      if (base.manifest.wall_seconds >= options.min_wall_seconds) {
        const double ratio = r.manifest.wall_seconds /
                             base.manifest.wall_seconds;
        if (ratio > options.threshold)
          report.slowdowns.push_back(
              "wall slowdown: " + fp + " engine=" + r.manifest.engine + " " +
              format_ratio(ratio) + " (" + describe(base) + " vs " +
              describe(r) + ")");
      }
      for (std::size_t p = 0; p < kPhaseCount; ++p) {
        const PhaseStats& bs = base.phases[p];
        const PhaseStats& rs = r.phases[p];
        if (bs.ns == 0 ||
            static_cast<double>(bs.ns) / 1e6 < options.min_phase_ms)
          continue;
        const double ratio =
            static_cast<double>(rs.ns) / static_cast<double>(bs.ns);
        if (ratio > options.threshold)
          report.slowdowns.push_back(
              "phase slowdown: " + fp + " " +
              std::string(to_string(static_cast<Phase>(p))) + " " +
              format_ratio(ratio) + " (" + describe(base) + " vs " +
              describe(r) + ")");
      }
    }

    begin = end;
  }
  return report;
}

}  // namespace fecsched::obs
