// Fig. 14 regeneration (Rx_model_1: a guaranteed number of source packets
// first, then all parity randomly, Sec. 5.1).  LDGM Staircase, ratio 2.5,
// inefficiency as a function of the number of received source packets
// (log-spaced sweep 1..k).  Expected shape: a shallow optimum around a few
// hundred source packets (~2-5% of k), degrading towards both extremes,
// and exactly 1.0 at S = k.

#include <algorithm>
#include <cmath>

#include "bench_common.h"
#include "sim/table_io.h"

int main(int argc, char** argv) {
  using namespace fecsched;
  using namespace fecsched::bench;
  const Scale s = parse_scale(argc, argv);
  print_banner("Fig. 14: Rx_model_1 with LDGM Staircase, ratio 2.5", s);

  ExperimentConfig cfg = make_config(CodeKind::kLdgmStaircase,
                                     TxModel::kTx4AllRandom, 2.5, s);

  // Log-spaced source counts: 1, 2, 4, ..., plus refinement around the
  // paper's sweet spot (400..1000 at k=20000, i.e. 2-5% of k) and k itself.
  std::vector<std::uint32_t> counts;
  for (std::uint32_t c = 1; c < s.k; c *= 2) counts.push_back(c);
  for (double frac : {0.02, 0.03, 0.05, 0.10, 0.25, 0.50, 0.75}) {
    const auto c = static_cast<std::uint32_t>(frac * s.k);
    if (c >= 1) counts.push_back(c);
  }
  counts.push_back(s.k);
  std::sort(counts.begin(), counts.end());
  counts.erase(std::unique(counts.begin(), counts.end()), counts.end());

  const auto series =
      run_rx_model1_series(cfg, counts, s.trials, s.seed, s.threads);

  Series out;
  out.name = "LDGM Staircase";
  for (const auto& pt : series) {
    out.x.push_back(pt.source_count);
    out.y.push_back(pt.reportable() ? pt.inefficiency.mean() : std::nan(""));
  }
  std::cout << "\n# average inefficiency vs number of received source "
               "packets ('-' = decode failure)\n";
  write_series_table(std::cout, "src_received", {out}, 4);

  // Locate the sweet spot within the paper's plotted domain (S <= k/2;
  // S = k is trivially 1.0 since every source packet is simply received).
  double best = 1e9;
  std::uint32_t best_count = 0;
  for (const auto& pt : series)
    if (pt.source_count <= s.k / 2 && pt.reportable() &&
        pt.inefficiency.mean() < best) {
      best = pt.inefficiency.mean();
      best_count = pt.source_count;
    }
  std::cout << "\nbest inefficiency " << format_fixed(best, 4) << " at "
            << best_count << " source packets ("
            << format_fixed(100.0 * best_count / s.k, 1) << "% of k)\n";
  return 0;
}
