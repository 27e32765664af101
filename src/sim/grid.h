// The paper's experimental sweep (Sec. 4.1): for every (p, q) point of a
// grid, run many independent reception trials and aggregate the
// inefficiency ratio.  The paper's strict rule applies: a cell whose
// trials did not *all* decode publishes no average (rendered "-").

#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "sim/trial.h"

namespace fecsched {

/// The set of (p, q) probabilities to sweep.
struct GridSpec {
  std::vector<double> p_values;  ///< probabilities in [0, 1]
  std::vector<double> q_values;  ///< probabilities in [0, 1]

  /// The paper's 14x14 grid: {0, 1, 5, 10, 15, 20, 30, ..., 100} percent
  /// on both axes.
  [[nodiscard]] static GridSpec paper();

  /// Fig. 7's zoom: p in {0..5} percent, q on the paper grid.
  [[nodiscard]] static GridSpec fig7();

  [[nodiscard]] std::size_t cell_count() const noexcept {
    return p_values.size() * q_values.size();
  }
};

/// Aggregated outcome of one grid cell (its peak_memory_symbols feeds the
/// scenario API's unified summary).
struct CellResult : TrialStats {
  double p = 0.0;
  double q = 0.0;
  /// True when any trial of the cell hit the --trial-timeout-ms watchdog
  /// (the trial counts as a failure, so reportable() stays false — an
  /// explicit status instead of a hung sweep).
  bool timed_out = false;
};

/// A completed sweep.
struct GridResult {
  GridSpec spec;
  std::uint32_t k = 0;             ///< source packet count (for ratios)
  std::vector<CellResult> cells;   ///< row-major: [p_index][q_index]

  [[nodiscard]] const CellResult& cell(std::size_t p_index,
                                       std::size_t q_index) const {
    return cells.at(p_index * spec.q_values.size() + q_index);
  }
};

/// One reception trial at channel point (p, q); must be thread-safe and
/// fully determined by `seed`.
using TrialFn =
    std::function<TrialResult(double p, double q, std::uint64_t seed)>;

/// Sweep execution knobs.
struct GridRunOptions {
  std::uint32_t trials_per_cell = 30;
  std::uint64_t master_seed = 0x5eedf00dULL;
  /// Worker threads; 0 = one per hardware thread.
  unsigned threads = 0;
  /// Per-trial watchdog deadline (0 = off).  Polled at phase boundaries
  /// via obs hooks; an expired trial raises watchdog::TrialTimeout, which
  /// sweep_points catches at the trial boundary: run_grid counts it as a
  /// failed trial and marks the cell timed_out.
  std::uint32_t trial_timeout_ms = 0;
  /// Checkpoint hooks of run_grid (api/checkpoint.cc), each optional.
  /// restore_cell runs for every cell before the sweep starts; a result
  /// it returns is that cell's, and the cell does not run.  cell_done
  /// fires on the worker thread after a cell's last trial, with the cell
  /// complete.
  std::function<std::optional<CellResult>(std::size_t cell)> restore_cell;
  std::function<void(std::size_t cell, const CellResult& result)> cell_done;
};

/// Run the sweep.  Cells are processed in parallel; per-trial seeds are
/// derived from (master_seed, cell, trial) so the result is independent of
/// thread count, and of which cells options.restore_cell supplied.
[[nodiscard]] GridResult run_grid(const GridSpec& spec, std::uint32_t k,
                                  const TrialFn& trial_fn,
                                  const GridRunOptions& options = {});

/// One channel operating point of a sweep.
struct ChannelPoint {
  double p = 0.0;
  double q = 1.0;
};

/// The cartesian (p, q) point list of a spec, row-major ([p_index][q_index])
/// — the cell order run_grid uses.
[[nodiscard]] std::vector<ChannelPoint> grid_points(const GridSpec& spec);

/// Per-(point, trial) visitor of sweep_points.  `point_index` addresses the
/// caller's result slot for that point.
using PointVisitor =
    std::function<void(std::size_t point_index, double p, double q,
                       std::uint32_t trial, std::uint64_t seed)>;

/// Per-point hooks of sweep_points, each optional.
struct PointHooks {
  /// Consulted before a point runs: true = the caller has its result.
  std::function<bool(std::size_t point_index)> skip;
  /// Fires on the worker thread after the point's last trial.
  std::function<void(std::size_t point_index)> done;
  /// A trial hit the watchdog deadline; the point continues with its
  /// remaining trials.  Empty = timed-out trials are silently abandoned.
  std::function<void(std::size_t point_index, std::uint32_t trial)> timed_out;
};

/// The parallel sweep scaffolding underneath run_grid, reusable by other
/// grid experiments (e.g. sim/stream_delay): visits every (point, trial)
/// pair.  Points are distributed over worker threads, but any single point
/// is processed by exactly one thread with trials in order, so per-point
/// accumulation needs no locking.  Per-trial seeds are derived from
/// (master_seed, point, trial), making results independent of thread count.
void sweep_points(std::span<const ChannelPoint> points,
                  const GridRunOptions& options, const PointVisitor& visit,
                  const PointHooks& hooks = {});

}  // namespace fecsched
