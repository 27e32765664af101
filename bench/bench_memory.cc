// Decoder working-memory requirements — the metric the paper's conclusion
// defers to future work ("the maximum memory requirements needed in each
// case").  For each code (with its recommended scheduling) the bench
// reports peak working memory in packet-sized symbols next to the
// inefficiency, exposing the real trade-off: RSE's small blocks keep the
// working set tiny (buffers drain block by block), while large-block LDGM
// holds all n-k check accumulators for the whole decode.

#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace fecsched;
  using namespace fecsched::bench;
  const Scale s = parse_scale(argc, argv);
  print_banner("Future-work metric: peak decoder working memory "
               "(packet-sized symbols)", s);

  struct Candidate {
    CodeKind code;
    TxModel tx;
    const char* label;
  };
  const Candidate candidates[] = {
      {CodeKind::kRse, TxModel::kTx5Interleaved, "RSE + interleave"},
      {CodeKind::kRse, TxModel::kTx4AllRandom, "RSE + random"},
      {CodeKind::kLdgmStaircase, TxModel::kTx4AllRandom, "Staircase + random"},
      {CodeKind::kLdgmTriangle, TxModel::kTx4AllRandom, "Triangle + random"},
  };
  struct Point {
    double p, q;
    const char* label;
  };
  const Point points[] = {{0.0, 1.0, "lossless"},
                          {0.01, 0.79, "light"},
                          {0.10, 0.90, "10% IID"},
                          {0.05, 0.20, "bursty"}};

  for (const double ratio : {1.5, 2.5}) {
    std::cout << "\n# FEC expansion ratio = " << format_fixed(ratio, 1)
              << " — columns: inefficiency | peak memory (symbols) | "
                 "memory as fraction of k\n";
    for (const Candidate& cand : candidates) {
      const Experiment e(make_config(cand.code, cand.tx, ratio, s));
      std::cout << cand.label << ":\n";
      std::size_t pi = 0;
      for (const Point& pt : points) {
        ++pi;
        const TrialStats stats = measure(e, pt.p, pt.q, s, pi);
        const double mem = stats.peak_memory_symbols;
        std::cout << "  " << pt.label << ": "
                  << (stats.reportable()
                          ? format_fixed(stats.inefficiency.mean(), 4)
                          : "-")
                  << " | " << format_fixed(mem, 0) << " | "
                  << format_fixed(mem / s.k, 3) << "k\n";
      }
    }
  }
  std::cout << "\n# reading: LDGM memory = n-k accumulators (constant); "
               "RSE memory = in-flight block buffers (scheduling-dependent)\n";
  return 0;
}
