// Streaming delay-vs-overhead bench (src/stream/): reproduces the
// qualitative result of Karzand et al. ("FEC for Lower In-Order Delivery
// Delay in Packet Networks") on this repo's machinery — at matched repair
// overhead on a bursty Gilbert channel, a sliding-window code delivers a
// strictly lower mean in-order delay than blocked RSE, here tested on four
// (p_global, mean burst) points.  Alongside the delay distribution the
// table reports the residual-loss burstiness after decoding (McCann &
// Fendick's metric) and the undelivered fraction.
//
// The sliding window size is taken from the adaptive subsystem's streaming
// hook (AdaptiveController::recommend_window) fed with the true channel
// parameters, exercising the adapt -> stream integration path.
//
// Accepts the standard scale flags (bench_common.h): --k is the stream
// length in source packets.  Exit status 1 if the acceptance criterion
// (sliding-window wins on >= 3 of 4 points) does not hold.

#include <algorithm>
#include <cstdio>

#include "adapt/controller.h"
#include "api/scenario.h"
#include "bench_common.h"
#include "sim/stream_delay.h"

using namespace fecsched;

int main(int argc, char** argv) {
  const bench::Scale scale = bench::parse_scale(argc, argv);
  const double kOverhead = 0.25;

  // (p_global, mean burst) operating points: loss rates and burst lengths
  // in the range Gilbert fits of real packet traces land in (the paper's
  // Sec. 3.2; mean bursts of a few packets).  Very long bursts relative to
  // the repair spacing (burst >~ 2x repair_interval) are where blocked RSE
  // catches up: recovering an L-packet burst needs L repairs, which the
  // sliding pacing spreads over L/overhead slots while a block's parity
  // arrives back-to-back.
  const std::vector<std::pair<double, double>> operating_points = {
      {0.02, 2.0}, {0.02, 5.0}, {0.05, 2.0}, {0.05, 5.0}};

  // Window recommendation from the adaptive controller at the true channel
  // parameters; the sweep uses the largest so all points share one config.
  AdaptiveController controller;
  std::vector<ChannelPoint> points;
  std::uint32_t window = 0;
  std::printf("recommended sliding windows (adapt -> stream hook):\n");
  for (const auto& [p_global, burst] : operating_points) {
    points.push_back(gilbert_point(p_global, burst));
    ChannelEstimate est;
    est.p = points.back().p;
    est.q = points.back().q;
    est.p_global = p_global;
    est.mean_burst = burst;
    est.bursty = burst > 1.0;
    est.confidence = 1.0;
    const SlidingWindowConfig rec =
        controller.recommend_window(est, kOverhead);
    std::printf("  p_global=%.3f burst=%.1f -> W=%u (interval %u)\n",
                p_global, burst, rec.window, rec.repair_interval);
    window = std::max(window, rec.window);
  }

  // One declarative scenario (src/api/): run_scenario_sweep runs the
  // stream axis sweep over these points, and an empty code name selects
  // the default comparison variants (tools/pinned/stream_delay_sweep.txt
  // holds this table at --k=1000 --trials=10).
  api::ScenarioSpec spec;
  spec.engine = "stream";
  spec.run.sources = scale.k;
  spec.code.window = window;
  spec.code.block_k = 64;
  spec.run.trials = scale.trials;
  spec.run.seed = scale.seed;
  spec.run.threads = scale.threads;
  spec.sweep.p_globals = {0.02, 0.05};
  spec.sweep.bursts = {2.0, 5.0};
  spec.sweep.overheads = {kOverhead};

  std::printf("\nstream delay bench: %u source packets, overhead %.2f, "
              "window %u, block_k %u, %u trials/point%s\n\n",
              scale.k, kOverhead, window, spec.code.block_k, scale.trials,
              scale.paper ? " [paper scale]" : "");

  const StreamGridResult grid = *api::run_scenario_sweep(spec).stream;

  std::printf("%-8s %-6s %-22s %10s %10s %10s %10s %10s\n", "p_glob",
              "burst", "scheme", "mean", "p95", "p99", "resid-run",
              "lost%");
  std::uint32_t wins = 0;
  for (std::size_t c = 0; c < points.size(); ++c) {
    double sliding_mean = 0.0, block_mean = 0.0;
    for (std::size_t v = 0; v < grid.variants.size(); ++v) {
      const StreamPointStats& s = grid.at(c, v, 0);
      std::printf("%-8.3f %-6.1f %-22s %10.2f %10.2f %10.2f %10.2f %9.3f%%\n",
                  operating_points[c].first, operating_points[c].second,
                  grid.variants[v].label.c_str(), s.mean_delay.mean(),
                  s.p95_delay.mean(), s.p99_delay.mean(),
                  s.residual_mean_run.mean(),
                  s.undelivered_fraction.mean() * 100.0);
      if (grid.variants[v].label == "sliding-window")
        sliding_mean = s.mean_delay.mean();
      if (grid.variants[v].label == "block-rse/seq")
        block_mean = s.mean_delay.mean();
    }
    const bool win = sliding_mean < block_mean;
    wins += win ? 1 : 0;
    std::printf("  -> sliding %.2f vs block-rse %.2f slots: %s\n",
                sliding_mean, block_mean, win ? "WIN" : "loss");
  }

  std::printf("\nACCEPTANCE: sliding-window mean in-order delay below "
              "block-RSE on %u/%zu points (need >= 3)\n",
              wins, points.size());
  return wins >= 3 ? 0 : 1;
}
