// Adaptive-vs-static experiment mode (sim/): how does the closed-loop
// adaptive controller (src/adapt/) compare against every fixed
// (code, scheduling, ratio) tuple on the same Gilbert channel?
//
// For each channel point the runner measures (a) every static candidate
// tuple with independent structure-only trials — the paper's methodology —
// and (b) one adaptive sender transferring a sequence of objects, its
// estimator fed by the per-object loss reports, its controller free to
// re-plan between objects.  The adaptive sender starts cold (universal
// scheme) and converges; the comparison therefore separates a warm-up
// phase from the steady state, and the steady-state mean inefficiency is
// the number to put against the static baselines.
//
// Every trial of both kinds is one run_trial (sim/trial.h) on the
// candidate's Experiment; the Experiments are built once per run and
// shared read-only by the points, which run in parallel.

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "adapt/controller.h"
#include "sim/grid.h"
#include "util/stats.h"

namespace fecsched {

/// One static tuple's behaviour at the channel point, measured with
/// common random numbers: the same (schedule, channel) seed pairs the
/// adaptive sender's steady-state objects use.
struct StaticBaselineResult : TrialStats {
  CandidateTuple tuple;
};

/// One object of the adaptive trajectory.
struct AdaptiveTrajectoryPoint {
  std::uint32_t object_index = 0;
  CandidateTuple tuple;
  ChannelRegime regime = ChannelRegime::kUnknown;
  bool replanned = false;
  bool decoded = false;
  double inefficiency = 0.0;      ///< n_needed / k (0 when not decoded)
  std::uint32_t n_sent = 0;       ///< packets actually transmitted
  double estimated_p_global = 0.0;
  double estimated_mean_burst = 1.0;
};

/// Everything measured at one (p, q) channel point.
struct AdaptiveComparePoint {
  double p = 0.0;
  double q = 1.0;
  double p_global = 0.0;
  double mean_burst = 1.0;  ///< 1/q; infinite at q = 0

  std::vector<StaticBaselineResult> baselines;
  std::vector<AdaptiveTrajectoryPoint> trajectory;

  std::uint32_t warmup_objects = 0;
  RunningStats adaptive_steady;        ///< post-warm-up, decoded objects
  std::uint32_t adaptive_failures = 0; ///< post-warm-up decode failures
  RunningStats adaptive_warmup;        ///< warm-up objects (reported apart)

  /// Index of the best reliable static baseline, or -1 when none decoded
  /// every trial.
  int best_baseline = -1;

  [[nodiscard]] double best_static_inefficiency() const noexcept {
    return best_baseline >= 0
               ? baselines[static_cast<std::size_t>(best_baseline)]
                     .inefficiency.mean()
               : 0.0;
  }
};

/// Compare-run tuning.
struct AdaptiveCompareConfig {
  std::uint32_t k = 2000;            ///< object size in source packets
  std::uint32_t objects = 40;        ///< adaptive objects per point
  std::uint32_t warmup_objects = 10; ///< excluded from the steady-state mean
  /// The controller; its candidate space (empty = default_candidates())
  /// is also the set of static baselines.
  ControllerConfig controller;
  std::uint64_t seed = 0xada2c0deULL;

  /// Range checks shared by the CLI and the scenario API.  Throws
  /// std::invalid_argument (messages phrased in CLI flag terms, the
  /// vocabulary both surfaces use).
  void validate() const;
};

/// Run the comparison at every channel point, over `threads` workers
/// (0 = one per hardware thread).  Each point is determined by its
/// coordinates and config.seed, so the result is the same for any thread
/// count.  After SIGINT/SIGTERM (util/interrupt.h) no further point
/// starts; a point never started stays default (empty trajectory).
/// Throws std::invalid_argument when validate() does.
[[nodiscard]] std::vector<AdaptiveComparePoint> run_adaptive_compare(
    std::span<const ChannelPoint> points, const AdaptiveCompareConfig& config,
    unsigned threads);

}  // namespace fecsched
