#include "sim/grid.h"

#include "obs/obs.h"
#include "util/faultpoint.h"
#include "util/interrupt.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/watchdog.h"

namespace fecsched {

GridSpec GridSpec::paper() {
  const std::vector<double> axis = {0.00, 0.01, 0.05, 0.10, 0.15, 0.20, 0.30,
                                    0.40, 0.50, 0.60, 0.70, 0.80, 0.90, 1.00};
  return GridSpec{axis, axis};
}

GridSpec GridSpec::fig7() {
  GridSpec spec = paper();
  spec.p_values = {0.00, 0.01, 0.02, 0.03, 0.04, 0.05};
  return spec;
}

std::vector<ChannelPoint> grid_points(const GridSpec& spec) {
  std::vector<ChannelPoint> points;
  points.reserve(spec.cell_count());
  for (double p : spec.p_values)
    for (double q : spec.q_values) points.push_back({p, q});
  return points;
}

void sweep_points(std::span<const ChannelPoint> points,
                  const GridRunOptions& options, const PointVisitor& visit,
                  const PointHooks& hooks) {
  parallel_for_index(points.size(), options.threads, [&](std::size_t c) {
    // Drain on SIGINT/SIGTERM: completed points are already checkpointed
    // and remaining points resume later; in-flight points finish.
    if (interrupt::interrupted()) return;
    if (hooks.skip && hooks.skip(c)) return;
    if (fault::point("sweep.cell")) throw fault::FaultInjected("sweep.cell");
    const obs::CellSpanScope cell_span(c);
    for (std::uint32_t t = 0; t < options.trials_per_cell; ++t) {
      // Scenario-global trial ordinal: cells run whole on one worker, so
      // observations merge thread-count-independently (src/obs/).
      const obs::TrialScope trial_scope(
          static_cast<std::uint64_t>(c) * options.trials_per_cell + t);
      const std::uint64_t seed = derive_seed(options.master_seed, {c, t});
      const watchdog::TrialGuard guard(options.trial_timeout_ms);
      try {
        visit(c, points[c].p, points[c].q, t, seed);
      } catch (const watchdog::TrialTimeout&) {
        if (hooks.timed_out) hooks.timed_out(c, t);
      }
    }
    if (hooks.done) hooks.done(c);
  });
}

GridResult run_grid(const GridSpec& spec, std::uint32_t k,
                    const TrialFn& trial_fn, const GridRunOptions& options) {
  GridResult result;
  result.spec = spec;
  result.k = k;
  const std::vector<ChannelPoint> points = grid_points(spec);
  result.cells.resize(points.size());
  // Label every cell upfront so a zero-trial sweep still reports its
  // channel coordinates; a restored cell brings its own.  Restoring ends
  // before any worker starts, so `skip` is a plain lookup.
  std::vector<char> restored(points.size(), 0);
  for (std::size_t c = 0; c < points.size(); ++c) {
    result.cells[c].p = points[c].p;
    result.cells[c].q = points[c].q;
    if (!options.restore_cell) continue;
    if (std::optional<CellResult> cell = options.restore_cell(c)) {
      result.cells[c] = *cell;
      restored[c] = 1;
    }
  }
  PointHooks hooks;
  hooks.skip = [&restored](std::size_t c) { return restored[c] != 0; };
  if (options.cell_done)
    hooks.done = [&](std::size_t c) { options.cell_done(c, result.cells[c]); };
  hooks.timed_out = [&result](std::size_t c, std::uint32_t) {
    CellResult& cell = result.cells[c];
    ++cell.trials;
    ++cell.failures;
    cell.timed_out = true;
  };
  sweep_points(
      points, options,
      [&](std::size_t c, double p, double q, std::uint32_t,
          std::uint64_t seed) {
        result.cells[c].add(trial_fn(p, q, seed), k);
      },
      hooks);
  return result;
}

}  // namespace fecsched
