// Cross-run regression sentinel over the ledger (obs/ledger.h).
//
// Two comparison regimes, matching the repo's two kinds of truth:
//
//  * Deterministic values — metric counters/gauges/histograms and phase
//    CALL counts are bit-identical for a given spec fingerprint by
//    design (any --threads value, any GF backend).  compare_records
//    treats the slightest difference as a correctness regression: there
//    is no threshold for determinism.
//
//  * Timings — wall seconds and per-phase nanoseconds are noise-bearing,
//    so they compare only within (kind, label, gf backend, threads,
//    hostname) subgroups against the subgroup's earliest record, flag
//    only slowdowns beyond a configurable ratio, and ignore baselines too
//    small to measure (min_phase_ms / min_wall_seconds floors).
//
// `fecsched_cli history` and `fecsched_cli compare` are thin shells over
// filter_records/compare_records.

#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "obs/ledger.h"

namespace fecsched::obs {

/// Record predicate; empty fields match everything.  `fingerprint` is a
/// prefix match so "fnv1a:ab12" selects without the full 16 hex digits.
struct LedgerFilter {
  std::string fingerprint;
  std::string engine;
  std::string gf;
  std::string kind;

  [[nodiscard]] bool matches(const LedgerRecord& r) const;
};

[[nodiscard]] std::vector<LedgerRecord> filter_records(
    std::vector<LedgerRecord> records, const LedgerFilter& filter);

struct CompareOptions {
  double threshold = 2.0;        ///< flag timing ratios above this
  double min_phase_ms = 50.0;    ///< ignore phases with smaller baselines
  double min_wall_seconds = 0.2; ///< ignore walls with smaller baselines
};

struct CompareReport {
  std::vector<std::string> drifts;     ///< deterministic-value mismatches
  std::vector<std::string> slowdowns;  ///< timing regressions
  std::size_t groups = 0;    ///< distinct fingerprints compared
  std::size_t records = 0;   ///< records considered

  [[nodiscard]] bool clean() const noexcept {
    return drifts.empty() && slowdowns.empty();
  }
};

/// Compare every record against its fingerprint-mates.  Records are
/// compacted first, so shard order cannot change the verdict.
[[nodiscard]] CompareReport compare_records(std::vector<LedgerRecord> records,
                                            const CompareOptions& options);

}  // namespace fecsched::obs
