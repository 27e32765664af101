// Adaptive controller vs. static baselines on the bursty Gilbert grid
// (the acceptance experiment of the adaptive subsystem).
//
// Grid: p_global in {0.05, 0.1, 0.2} x mean burst length in {1, 4, 10}.
// At each point every static candidate tuple is measured with independent
// trials, and one adaptive sender transfers a stream of objects starting
// from a cold estimator.  Reported per point:
//   * the best reliable static tuple and its mean inefficiency,
//   * the adaptive steady-state mean inefficiency (post-warm-up),
//   * the relative gap.
// The run PASSes when the adaptive controller is <= the best static
// baseline on >= 3 of the 9 points and never > 10% worse on any point.
//
//   --k=<N> --trials=<N> --seed=<N> --threads=<N>  (bench_common
//                                     conventions; points run in parallel)
//   --objects=<N>                     adaptive objects per point (default 40)
//   --warmup=<N>                      objects excluded from steady state

#include <cstdio>
#include <cstring>
#include <string>

#include "api/scenario.h"
#include "bench_common.h"
#include "sim/adaptive_compare.h"

using namespace fecsched;

int main(int argc, char** argv) {
  bench::Scale scale;
  scale.k = 2000;
  scale.trials = 30;
  std::uint32_t objects = 40;
  std::uint32_t warmup = 10;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    bench::parse_uint_flag(arg, "--k", scale.k) ||
        bench::parse_uint_flag(arg, "--trials", scale.trials) ||
        bench::parse_uint_flag(arg, "--seed", scale.seed) ||
        bench::parse_uint_flag(arg, "--threads", scale.threads) ||
        bench::parse_uint_flag(arg, "--objects", objects) ||
        bench::parse_uint_flag(arg, "--warmup", warmup);
  }

  bench::print_banner(
      "Adaptive FEC control vs. static baselines (Gilbert burst grid)", scale);
  std::printf("%u adaptive objects per point, first %u are warm-up\n\n",
              objects, warmup);

  // One declarative scenario (src/api/): the (p_global x burst) axes
  // expand into one worker per channel point (--threads, 0 = all cores);
  // every point is seed-determined, so the table matches a serial run —
  // and the pre-API hand-rolled parallel_map loop — digit for digit.
  api::ScenarioSpec spec;
  spec.engine = "adaptive";
  spec.code.k = scale.k;
  spec.adapt.objects = objects;
  spec.adapt.warmup = warmup;
  spec.run.seed = scale.seed;
  spec.run.threads = scale.threads;
  spec.sweep.p_globals = {0.05, 0.1, 0.2};
  spec.sweep.bursts = {1.0, 4.0, 10.0};
  const auto results = api::run_scenario_sweep(spec).adaptive;

  std::printf("%-8s %-6s %-26s %10s %10s %8s %6s\n", "p_glob", "burst",
              "best static tuple", "static", "adaptive", "gap%", "fails");
  int wins = 0;
  int violations = 0;
  double worst_gap = 0.0;
  for (const auto& r : results) {
    const bool has_static = r.best_baseline >= 0;
    // A point only counts at all when the adaptive sender delivered every
    // steady-state object; a decode failure is a violation, not a win
    // with a flattering mean.
    const bool delivered =
        r.adaptive_failures == 0 && r.adaptive_steady.count() > 0;
    const double static_inef = r.best_static_inefficiency();
    const double adaptive_inef = r.adaptive_steady.mean();
    const double gap =
        has_static && delivered && static_inef > 0.0
            ? (adaptive_inef - static_inef) / static_inef * 100.0
            : 0.0;
    if (has_static && delivered && adaptive_inef <= static_inef) ++wins;
    if (has_static && (!delivered || gap > 10.0)) ++violations;
    if (gap > worst_gap) worst_gap = gap;

    std::printf("%-8.3f %-6.0f %-26s %10s %10.4f %+7.2f %6u\n", r.p_global,
                r.mean_burst,
                has_static
                    ? to_string(r.baselines[static_cast<std::size_t>(
                                                r.best_baseline)]
                                    .tuple)
                          .c_str()
                    : "-",
                has_static ? format_fixed(static_inef, 4).c_str() : "-",
                adaptive_inef, gap, r.adaptive_failures);
  }

  std::printf("\nadaptive <= best static on %d/9 points (need >= 3); "
              "worst gap %+.2f%% (limit +10%%)\n",
              wins, worst_gap);
  const bool pass = wins >= 3 && violations == 0;
  std::printf("%s\n", pass ? "PASS" : "FAIL");

  std::printf("\n# per-point adaptive tuple trajectory (steady-state choice)\n");
  for (const auto& r : results) {
    const auto& last = r.trajectory.back();
    std::printf("p_glob=%.3f burst=%2.0f -> %s (regime %s, "
                "%u replans est p_g=%.3f burst=%.1f)\n",
                r.p_global, r.mean_burst, to_string(last.tuple).c_str(),
                to_string(last.regime),
                [&] {
                  std::uint32_t n = 0;
                  for (const auto& s : r.trajectory) n += s.replanned ? 1 : 0;
                  return n;
                }(),
                last.estimated_p_global, last.estimated_mean_burst);
  }
  return pass ? 0 : 1;
}
