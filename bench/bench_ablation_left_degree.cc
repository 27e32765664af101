// Ablation: the LDGM left (source-node) degree.  The paper fixes it at 3;
// this sweep shows why — smaller degrees leave the graph under-connected,
// larger ones slow the peeling cascade (more rows stay multi-unknown).
// LDGM Staircase, Tx_model_4, two channel points.

#include <limits>

#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace fecsched;
  using namespace fecsched::bench;
  const Scale s = parse_scale(argc, argv);
  print_banner("Ablation: LDGM left degree (paper default: 3), Staircase, "
               "Tx_model_4", s);

  struct Point {
    double p, q;
    const char* label;
  };
  const Point points[] = {{0.01, 0.79, "light loss"}, {0.10, 0.50, "bursty 17%"}};

  for (const double ratio : {1.5, 2.5}) {
    std::cout << "\n# FEC expansion ratio = " << format_fixed(ratio, 1)
              << "\n";
    std::vector<Series> columns;
    for (const Point& pt : points) {
      Series col;
      col.name = std::string(pt.label);
      for (std::uint32_t degree = 2; degree <= 7; ++degree) {
        col.x.push_back(degree);
        ExperimentConfig cfg = make_config(CodeKind::kLdgmStaircase,
                                           TxModel::kTx4AllRandom, ratio, s);
        cfg.left_degree = degree;
        const TrialStats stats =
            measure(Experiment(cfg), pt.p, pt.q, s, degree);
        col.y.push_back(stats.reportable()
                            ? stats.inefficiency.mean()
                            : std::numeric_limits<double>::quiet_NaN());
      }
      columns.push_back(std::move(col));
    }
    write_series_table(std::cout, "left_degree", columns, 4);
  }
  return 0;
}
