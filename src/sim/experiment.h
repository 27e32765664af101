// Standard experiment wiring: compose a FEC code, a transmission model and
// the Gilbert channel into the TrialFn consumed by the grid runner.  This
// is the programmatic equivalent of one curve of the paper's Figs. 7-13,
// and the building block the benches and the planner share.

#pragma once

#include <cstdint>
#include <memory>

#include "fec/types.h"
#include "sim/grid.h"

namespace fecsched {

/// Everything that defines one experiment curve.
struct ExperimentConfig {
  CodeKind code = CodeKind::kLdgmStaircase;
  TxModel tx = TxModel::kTx4AllRandom;
  /// FEC expansion ratio n/k (paper values: 1.5 and 2.5).  Ignored by
  /// kReplication, which uses `replication_copies`.
  double expansion_ratio = 1.5;
  std::uint32_t k = 20000;  ///< object size in source packets

  // Code-specific knobs.
  std::uint32_t left_degree = 3;               ///< LDGM-*
  std::uint32_t triangle_extra_per_row = 1;  ///< LDGM Triangle
  std::uint32_t replication_copies = 2;        ///< kReplication (Sec. 4.2)
  std::uint32_t max_block_n = 255;             ///< RSE block cap
  double tx6_source_fraction = 0.2;            ///< Tx_model_6
  bool ge_fallback = false;                    ///< ML-decoding ablation
  /// Distinct LDGM graphs rotated across trials, so results average over
  /// graph construction randomness as well as channel randomness.
  std::uint32_t graph_count = 4;
  std::uint64_t code_seed = 0xc0def00dULL;

  /// Stop transmission after this many packets (0 = send everything) —
  /// the n_sent optimisation of Sec. 6.2.
  std::uint32_t n_sent = 0;
};

/// A ready-to-run experiment: the TrialFn plus the structural facts the
/// caller needs for reporting.
class Experiment {
 public:
  /// Builds the plan/graphs eagerly (throws on invalid configuration).
  explicit Experiment(const ExperimentConfig& config);

  [[nodiscard]] const ExperimentConfig& config() const noexcept {
    return config_;
  }
  /// Total packets the schedule would emit without truncation.
  [[nodiscard]] std::uint32_t n_total() const noexcept { return n_total_; }
  [[nodiscard]] std::uint32_t k() const noexcept { return config_.k; }

  /// Thread-safe trial function for run_grid (shares immutable state).
  [[nodiscard]] TrialFn trial_fn() const;

  /// Convenience: run the full sweep.
  [[nodiscard]] GridResult run(const GridSpec& spec,
                               const GridRunOptions& options = {}) const;

  /// One trial at a fixed channel point (used by the planner and tests).
  [[nodiscard]] TrialResult run_once(double p, double q,
                                     std::uint64_t seed) const;

  /// A fresh decoding tracker for one receiver (graph picked from `seed`
  /// for LDGM codes).  Used by multi-receiver simulations (sim/broadcast).
  [[nodiscard]] std::unique_ptr<ErasureTracker> new_tracker(
      std::uint64_t seed) const;

  /// The transmission schedule one sender pass would use (randomised from
  /// `seed`, truncated to n_sent if configured).
  [[nodiscard]] std::vector<PacketId> new_schedule(std::uint64_t seed) const;

 private:
  struct State;  // immutable shared plan/graph state
  ExperimentConfig config_;
  std::shared_ptr<const State> state_;
  std::uint32_t n_total_ = 0;
};

/// One point of the Fig. 14 series: Rx_model_1 with `source_count`
/// guaranteed source packets (Sec. 5.1).  The remaining sources are not
/// transmitted, so decoding can fail; failures are reported.
struct RxModelPoint : TrialStats {
  std::uint32_t source_count = 0;
};

/// Run the Fig. 14 experiment for one LDGM configuration.  Points are
/// distributed over `threads` workers (0 = one per hardware thread) with
/// per-(point, trial) seeds, so the series is identical for any count.
[[nodiscard]] std::vector<RxModelPoint> run_rx_model1_series(
    const ExperimentConfig& config,
    const std::vector<std::uint32_t>& source_counts, std::uint32_t trials,
    std::uint64_t master_seed, unsigned threads = 1);

}  // namespace fecsched
