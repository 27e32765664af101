// Result types of the multipath sweep (src/mpath/ x sim/): in-order
// delivery delay over (Gilbert channel point) x (path-delay asymmetry) x
// (path scheduler) x (repair overhead).
//
// The stream delay sweep asks "which FEC scheme at which overhead"; this
// one fixes the scheme and asks the multipath question: *which
// packet-to-path mapping*, as the paths' propagation delays drift apart
// and the loss process varies.  Every path of a point carries the same
// Gilbert process (independent state per path); asymmetry is in the
// delays, linearly spaced across the spread around the base delay.
// api::run_scenario_sweep (src/api/run_scenario.cc) runs it from a
// ScenarioSpec on the same parallel scaffolding as run_grid
// (sweep_points): one thread per channel point, per-trial seeds derived
// from (master_seed, point, trial), so results are bit-identical for any
// thread count.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mpath/mpath_trial.h"
#include "sim/grid.h"
#include "sim/stream_delay.h"

namespace fecsched {

/// One scheduler swept by the multipath grid.
struct MpathVariant {
  std::string label;
  PathScheduling scheduler = PathScheduling::kRoundRobin;
};

/// The multipath engines' default comparison set.
struct MpathSweepConfig {
  /// All four packet-to-path mappings.
  [[nodiscard]] static std::vector<MpathVariant> default_variants();
};

/// Aggregates of one (point, spread, variant, overhead) combination:
/// the stream-delay statistics plus the reordering the receiver saw.
struct MpathPointStats {
  StreamPointStats stream;
  RunningStats reordered_fraction;
  RunningStats best_path_share;  ///< traffic fraction on the fastest path

  /// Accumulate one trial run under `cfg` (the accumulation order is part
  /// of the bit-identity contract).
  void add(const MpathTrialResult& r, const MpathTrialConfig& cfg);
};

/// A completed multipath sweep.
struct MpathSweepResult {
  std::vector<ChannelPoint> points;
  std::vector<double> delay_spreads;
  std::vector<MpathVariant> variants;
  std::vector<double> overheads;
  std::uint32_t source_count = 0;
  /// Flattened [point][spread][variant][overhead].
  std::vector<MpathPointStats> stats;

  [[nodiscard]] const MpathPointStats& at(std::size_t point,
                                          std::size_t spread,
                                          std::size_t variant,
                                          std::size_t overhead) const {
    return stats.at(((point * delay_spreads.size() + spread) *
                         variants.size() +
                     variant) *
                        overheads.size() +
                    overhead);
  }
};

}  // namespace fecsched
