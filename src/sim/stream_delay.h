// Result types of the streaming subsystem's (src/stream/) delay sweep.
//
// The paper's grids sweep (p, q) and report the inefficiency ratio; this
// experiment sweeps (channel point) x (repair overhead) x (scheme variant)
// and reports the in-order delivery-delay distribution plus the residual
// loss burstiness — the two axes Karzand et al. and McCann & Fendick add
// to the paper's observations.  api::run_scenario_sweep
// (src/api/run_scenario.cc) runs it from a ScenarioSpec on the same
// parallel scaffolding as run_grid (sweep_points): one thread per channel
// point, per-trial seeds derived from (master_seed, point, trial), so
// results are bit-identical for any thread count.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/grid.h"
#include "stream/stream_trial.h"
#include "util/stats.h"

namespace fecsched {

/// One protection scheme swept by the stream delay grid.
struct StreamVariant {
  std::string label;
  StreamScheme scheme = StreamScheme::kSlidingWindow;
  StreamScheduling scheduling = StreamScheduling::kSequential;
};

/// The stream engines' default comparison set.
struct StreamGridConfig {
  /// Sliding-window vs block RSE (sequential and interleaved) vs LDGM
  /// Staircase vs replication.
  [[nodiscard]] static std::vector<StreamVariant> default_variants();
};

/// Aggregates over the trials of one (point, variant, overhead) combination.
struct StreamPointStats {
  RunningStats mean_delay;      ///< per-trial mean in-order delay (slots)
  RunningStats p95_delay;
  RunningStats p99_delay;
  RunningStats max_delay;
  RunningStats mean_hol;        ///< head-of-line component of the mean
  RunningStats residual_mean_run;  ///< post-FEC loss burst length
  RunningStats residual_max_run;
  RunningStats undelivered_fraction;  ///< lost sources / source_count
  RunningStats overhead_actual;
  std::uint32_t trials = 0;

  /// Accumulate one trial (shared by the stream and multipath sweeps;
  /// the accumulation order is part of the bit-identity contract).
  void add(const StreamTrialResult& r, std::uint32_t source_count);
};

/// A completed stream delay sweep.
struct StreamGridResult {
  std::vector<ChannelPoint> points;
  std::vector<StreamVariant> variants;
  std::vector<double> overheads;
  std::uint32_t source_count = 0;
  /// Flattened [point][variant][overhead].
  std::vector<StreamPointStats> stats;

  [[nodiscard]] const StreamPointStats& at(std::size_t point,
                                           std::size_t variant,
                                           std::size_t overhead) const {
    return stats.at((point * variants.size() + variant) * overheads.size() +
                    overhead);
  }
};

/// Convert a (p_global, mean_burst) pair into the Gilbert (p, q) point with
/// that stationary loss rate and expected burst length (q = 1/burst).
[[nodiscard]] ChannelPoint gilbert_point(double p_global, double mean_burst);

}  // namespace fecsched
