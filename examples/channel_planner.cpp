// Known-channel optimisation (Sec. 6.2.1): fit a Gilbert model to a loss
// trace, pick the best (code, scheduling, ratio) tuple for that channel
// with the Planner, and compute the optimal n_sent from Eq. 3.
//
//   $ ./channel_planner [trace-file]
//
// A trace file holds one character per packet ('0'/'.' delivered,
// '1'/'x'/'X' lost; whitespace ignored, any other character exits 2).
// Without an argument, a synthetic trace is generated from the paper's
// Amherst -> Los Angeles parameters (p=0.0109, q=0.7915, from Yajnik et
// al. [16]) — so the default run reproduces the paper's Sec. 6.2.1
// walk-through end to end: fit -> tuple choice -> n_sent.

#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "channel/gilbert.h"
#include "channel/trace.h"
#include "core/nsent.h"
#include "core/planner.h"

int main(int argc, char** argv) {
  using namespace fecsched;

  // 1. Obtain a loss trace.
  std::vector<bool> events;
  if (argc > 1) {
    std::ifstream in(argv[1]);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", argv[1]);
      return 1;
    }
    try {
      const TraceModel tm = TraceModel::load(in, false);
      events = tm.events();
      std::printf("loaded %zu-packet trace, loss rate %.4f\n", events.size(),
                  tm.loss_rate());
    } catch (const std::invalid_argument& e) {
      std::fprintf(stderr, "%s: %s\n", argv[1], e.what());
      return 2;
    }
  } else {
    GilbertModel synth(0.0109, 0.7915);  // the paper's measured link
    synth.reset(16);
    events.reserve(500000);
    for (int i = 0; i < 500000; ++i) events.push_back(synth.lost());
    std::printf("generated 500000-packet synthetic Amherst->LA trace\n");
  }

  // 2. Fit the Gilbert model (the procedure of [8]/[16]).
  const GilbertFit fit = fit_gilbert(events);
  const double p_global = fit.p + fit.q > 0 ? fit.p / (fit.p + fit.q) : 0.0;
  std::printf("fitted Gilbert parameters: p=%.4f q=%.4f (p_global=%.4f, "
              "mean burst %.2f packets)\n",
              fit.p, fit.q, p_global, mean_burst(fit.q));

  // 3. Evaluate every candidate tuple at the fitted operating point.
  PlannerConfig pc;
  pc.k = 4000;
  pc.trials = 20;
  const Planner planner(pc);
  const auto evaluations = planner.evaluate(fit.p, fit.q);
  std::printf("\n%-16s %-10s %6s %14s %10s\n", "code", "tx_model", "ratio",
              "inefficiency", "reliable");
  for (const auto& e : evaluations)
    std::printf("%-16s %-10s %6.1f %14.4f %10s\n",
                std::string(to_string(e.code)).c_str(),
                std::string(to_string(e.tx)).c_str(), e.expansion_ratio,
                e.reportable() ? e.inefficiency.mean() : 0.0,
                e.reportable() ? "yes" : "NO");

  const auto best = planner.best(fit.p, fit.q);
  if (!best) {
    std::printf("\nno reliable tuple at this operating point — increase the "
                "FEC expansion ratio or use a carousel\n");
    return 1;
  }
  std::printf("\nchosen tuple: %s + %s @ ratio %.1f (inefficiency %.4f)\n",
              std::string(to_string(best->code)).c_str(),
              std::string(to_string(best->tx)).c_str(),
              best->expansion_ratio, best->inefficiency.mean());

  // 4. Optimal n_sent for the paper's 50 MB example object (Eq. 3).
  ByteNsentRequest req;
  req.inefficiency = best->inefficiency.mean();
  req.object_bytes = 50000000;
  req.packet_payload_bytes = 1024;
  req.p = fit.p;
  req.q = fit.q;
  req.tolerance_fraction = 0.10;
  const NsentResult ns = optimal_nsent_bytes(req);
  const std::uint32_t k = (50000000 + 1023) / 1024;
  std::printf("50 MB object: k=%u packets; send n_sent=%u packets "
              "(exact %.0f + 10%% tolerance) instead of n=%u — %.1f%% saved\n",
              k, ns.n_sent, ns.exact,
              static_cast<std::uint32_t>(k * best->expansion_ratio),
              100.0 * (1.0 - static_cast<double>(ns.n_sent) /
                                 (k * best->expansion_ratio)));
  return 0;
}
