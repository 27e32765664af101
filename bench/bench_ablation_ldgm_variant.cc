// Ablation: plain LDGM (identity) vs Staircase vs Triangle.
// Quantifies Sec. 2.3.3's claim that replacing the identity with a
// staircase "largely improves the FEC code efficiency", and Sec. 2.3.4's
// progressive triangle refinement — across representative channel points
// under Tx_model_4.

#include <limits>

#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace fecsched;
  using namespace fecsched::bench;
  const Scale s = parse_scale(argc, argv);
  print_banner("Ablation: LDGM lower-part structure (Identity vs Staircase "
               "vs Triangle), Tx_model_4", s);

  struct Point {
    double p, q;
    const char* label;
  };
  const Point points[] = {
      {0.00, 1.00, "lossless"},
      {0.01, 0.79, "light IID-ish (Amherst->LA)"},
      {0.10, 0.90, "10% IID"},
      {0.05, 0.20, "bursty (mean burst 5)"},
      {0.30, 0.70, "30% heavy"},
  };
  for (const double ratio : {1.5, 2.5}) {
    std::cout << "\n# FEC expansion ratio = " << format_fixed(ratio, 1)
              << " — mean inefficiency (failures shown as '-')\n";
    std::vector<Series> columns;
    for (const CodeKind code : {CodeKind::kLdgmIdentity,
                                CodeKind::kLdgmStaircase,
                                CodeKind::kLdgmTriangle}) {
      Series col;
      col.name = std::string(to_string(code));
      const Experiment e(make_config(code, TxModel::kTx4AllRandom, ratio, s));
      std::size_t pi = 0;
      for (const Point& pt : points) {
        col.x.push_back(static_cast<double>(++pi));
        const TrialStats stats = measure(e, pt.p, pt.q, s, pi);
        col.y.push_back(stats.reportable()
                            ? stats.inefficiency.mean()
                            : std::numeric_limits<double>::quiet_NaN());
      }
      columns.push_back(std::move(col));
    }
    write_series_table(std::cout, "point#", columns, 4);
    std::cout << "# points:";
    std::size_t pi = 0;
    for (const Point& pt : points)
      std::cout << " [" << ++pi << "] " << pt.label << " (p="
                << format_fixed(pt.p, 2) << ", q=" << format_fixed(pt.q, 2)
                << ")";
    std::cout << "\n";
  }
  return 0;
}
