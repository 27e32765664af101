// Multipath scheduling bench (src/mpath/): reproduces the qualitative
// result of Kurant ("Exploiting the Path Propagation Time Differences in
// Multipath Transmission with FEC", arXiv:0901.1479) on this repo's
// machinery — when one sliding-window-protected stream is spread over two
// paths whose propagation delays differ, a delay-aware (earliest-arrival)
// packet-to-path mapping delivers a strictly lower mean in-order delivery
// delay than naive round-robin, at matched total repair overhead, on
// every tested Gilbert channel point.  The table also shows the weighted
// and source-on-best/repair-on-worst (split) mappings, the receiver-side
// reordering each mapping induces, and a symmetric-path control row where
// the mappings must tie.
//
// The sliding window size is taken from the adaptive subsystem's
// streaming hook (AdaptiveController::recommend_window) fed with the true
// channel parameters, exercising the adapt -> mpath integration path.
//
// Accepts the standard scale flags (bench_common.h): --k is the stream
// length in source packets.  Exit status 1 unless earliest-arrival beats
// round-robin on all 4 asymmetric-path points.

#include <algorithm>
#include <cstdio>

#include "adapt/controller.h"
#include "api/scenario.h"
#include "bench_common.h"
#include "sim/mpath_sweep.h"
#include "sim/stream_delay.h"

using namespace fecsched;

int main(int argc, char** argv) {
  const bench::Scale scale = bench::parse_scale(argc, argv);
  const double kOverhead = 0.25;

  // (p_global, mean burst) operating points, the bench_stream_delay set:
  // loss rates and burst lengths in the range Gilbert fits of real packet
  // traces land in (the paper's Sec. 3.2).
  const std::vector<std::pair<double, double>> operating_points = {
      {0.02, 2.0}, {0.02, 5.0}, {0.05, 2.0}, {0.05, 5.0}};

  AdaptiveController controller;
  std::vector<ChannelPoint> points;
  std::uint32_t window = 0;
  std::printf("recommended sliding windows (adapt -> mpath hook):\n");
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
  // mpath axis sweep over these points, and an empty scheduler name
  // selects every packet-to-path mapping (tools/pinned/mpath_sweep.txt
  // holds this table at --k=1000 --trials=10).
  api::ScenarioSpec spec;
  spec.engine = "mpath";
  spec.code.name = "sliding-window";
  spec.run.sources = scale.k;
  spec.code.window = window;
  spec.run.trials = scale.trials;
  spec.run.seed = scale.seed;
  spec.run.threads = scale.threads;
  spec.sweep.p_globals = {0.02, 0.05};
  spec.sweep.bursts = {2.0, 5.0};
  spec.sweep.overheads = {kOverhead};
  // Two uncongested paths; spread 0 is the symmetric control, spread 40
  // puts 5 vs 45 slots of propagation delay on them.
  spec.paths.count = 2;
  spec.paths.capacity = 1.0;
  spec.paths.base_delay = 25.0;
  spec.sweep.delay_spreads = {0.0, 40.0};

  std::printf("\nmultipath bench: %u source packets over %u paths "
              "(delays 25+-spread/2, capacity %.1f/slot each), overhead "
              "%.2f, window %u, %u trials/point%s\n\n",
              scale.k, spec.paths.count, spec.paths.capacity, kOverhead,
              window, scale.trials, scale.paper ? " [paper scale]" : "");

  const MpathSweepResult grid = *api::run_scenario_sweep(spec).mpath;

  std::printf("%-8s %-6s %-7s %-17s %10s %10s %10s %9s %8s %8s\n", "p_glob",
              "burst", "spread", "scheduler", "mean", "p95", "p99",
              "reorder%", "fast%", "lost%");
  std::uint32_t wins = 0;
  for (std::size_t c = 0; c < points.size(); ++c) {
    for (std::size_t d = 0; d < grid.delay_spreads.size(); ++d) {
      double rr_mean = 0.0, ea_mean = 0.0;
      for (std::size_t v = 0; v < grid.variants.size(); ++v) {
        const MpathPointStats& s = grid.at(c, d, v, 0);
        std::printf(
            "%-8.3f %-6.1f %-7.0f %-17s %10.2f %10.2f %10.2f %8.2f%% "
            "%7.1f%% %7.3f%%\n",
            operating_points[c].first, operating_points[c].second,
            grid.delay_spreads[d], grid.variants[v].label.c_str(),
            s.stream.mean_delay.mean(), s.stream.p95_delay.mean(),
            s.stream.p99_delay.mean(), s.reordered_fraction.mean() * 100.0,
            s.best_path_share.mean() * 100.0,
            s.stream.undelivered_fraction.mean() * 100.0);
        if (grid.variants[v].label == "round-robin")
          rr_mean = s.stream.mean_delay.mean();
        if (grid.variants[v].label == "earliest-arrival")
          ea_mean = s.stream.mean_delay.mean();
      }
      if (grid.delay_spreads[d] > 0.0) {
        const bool win = ea_mean < rr_mean;
        wins += win ? 1 : 0;
        std::printf("  -> earliest-arrival %.2f vs round-robin %.2f slots: "
                    "%s\n",
                    ea_mean, rr_mean, win ? "WIN" : "loss");
      }
    }
  }

  std::printf("\nACCEPTANCE: earliest-arrival mean in-order delay below "
              "round-robin on %u/%zu asymmetric points (need all %zu)\n",
              wins, points.size(), points.size());
  return wins == points.size() ? 0 : 1;
}
