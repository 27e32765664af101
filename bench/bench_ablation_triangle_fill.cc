// Ablation: the LDGM Triangle fill density.  The paper's construction
// (via RR-5225) adds a progressive dependency below the staircase
// diagonal; our rule places `fill_per_column` extra ones per parity
// column.  0 degenerates to pure Staircase; this sweep shows what the
// extra dependencies buy and when they start to hurt (slower cascades).

#include <limits>

#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace fecsched;
  using namespace fecsched::bench;
  const Scale s = parse_scale(argc, argv);
  print_banner("Ablation: Triangle fill per parity column (paper rule: 1), "
               "Tx_model_4", s);

  struct Point {
    double p, q;
    const char* label;
  };
  const Point points[] = {{0.01, 0.79, "light loss"},
                          {0.10, 0.90, "10% IID"},
                          {0.30, 0.70, "30% heavy"}};

  for (const double ratio : {1.5, 2.5}) {
    std::cout << "\n# FEC expansion ratio = " << format_fixed(ratio, 1) << "\n";
    std::vector<Series> columns;
    for (const Point& pt : points) {
      Series col;
      col.name = std::string(pt.label);
      for (std::uint32_t fill = 0; fill <= 4; ++fill) {
        col.x.push_back(fill);
        ExperimentConfig cfg = make_config(
            fill == 0 ? CodeKind::kLdgmStaircase : CodeKind::kLdgmTriangle,
            TxModel::kTx4AllRandom, ratio, s);
        cfg.triangle_extra_per_row = std::max<std::uint32_t>(fill, 1);
        const TrialStats stats = measure(Experiment(cfg), pt.p, pt.q, s, fill);
        col.y.push_back(stats.reportable()
                            ? stats.inefficiency.mean()
                            : std::numeric_limits<double>::quiet_NaN());
      }
      columns.push_back(std::move(col));
    }
    write_series_table(std::cout, "fill/column", columns, 4);
    std::cout << "# fill 0 = plain LDGM Staircase\n";
  }
  return 0;
}
