// Ablation: iterative (peeling) decoding — what the paper evaluates —
// versus the hybrid peel-then-Gaussian-elimination (ML) decoder this
// library adds as an extension.  ML decoding trims the inefficiency
// towards the k-packet optimum at the price of cubic-ish solve cost, so
// the sweep uses a deliberately small object.

#include <limits>

#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace fecsched;
  using namespace fecsched::bench;
  Scale s = parse_scale(argc, argv);
  if (!s.paper) s.k = std::min<std::uint32_t>(s.k, 1000);
  else s.k = 2000;  // GE is cubic; cap even at paper scale
  print_banner("Ablation: peeling vs hybrid peel+GE (ML) decoding, LDGM "
               "Staircase + Tx_model_4 (k capped: GE cost is cubic)", s);

  struct Point {
    double p, q;
    const char* label;
  };
  const Point points[] = {{0.01, 0.79, "light loss"},
                          {0.10, 0.90, "10% IID"},
                          {0.05, 0.20, "bursty 20%"}};

  for (const double ratio : {1.5, 2.5}) {
    std::cout << "\n# FEC expansion ratio = " << format_fixed(ratio, 1) << "\n";
    std::vector<Series> columns;
    for (const bool ge : {false, true}) {
      Series col;
      col.name = ge ? "peel+GE" : "peeling";
      std::size_t pi = 0;
      for (const Point& pt : points) {
        col.x.push_back(static_cast<double>(++pi));
        ExperimentConfig cfg = make_config(CodeKind::kLdgmStaircase,
                                           TxModel::kTx4AllRandom, ratio, s);
        cfg.ge_fallback = ge;
        const TrialStats stats = measure(Experiment(cfg), pt.p, pt.q, s, pi);
        col.y.push_back(stats.reportable()
                            ? stats.inefficiency.mean()
                            : std::numeric_limits<double>::quiet_NaN());
      }
      columns.push_back(std::move(col));
    }
    write_series_table(std::cout, "point#", columns, 4);
    std::cout << "# points: [1] light loss (p=0.01,q=0.79)  [2] 10% IID "
                 "(p=0.10,q=0.90)  [3] bursty (p=0.05,q=0.20)\n"
              << "# note: GE attempts are strided (k/50 packets), so the "
                 "hybrid figure is an upper bound on the ML optimum\n";
  }
  return 0;
}
