// Fig. 15 + Sec. 6.2.1 regeneration: the known-channel worked example.
// Channel: the Amherst(MA) -> Los Angeles trace of [16], p = 0.0109,
// q = 0.7915 (p_global ~ 0.0135).  For both FEC expansion ratios the bench
// reports the mean inefficiency of every (code, tx_model) pair — the
// paper's bar chart — and then derives the optimal n_sent per Eq. 3.
// Expected shape: Tx_model_2 with LDGM Staircase at ratio 1.5 wins
// (inef ~ 1.011), and the optimised transmission stops after ~50041 of
// the 73243 packets.

#include <cmath>
#include <optional>

#include "bench_common.h"
#include "core/nsent.h"
#include "core/planner.h"
#include "sim/table_io.h"

int main(int argc, char** argv) {
  using namespace fecsched;
  using namespace fecsched::bench;
  Scale s = parse_scale(argc, argv);
  const double p = 0.0109, q = 0.7915;
  print_banner("Fig. 15 / Sec. 6.2.1: known channel p=0.0109 q=0.7915 "
               "(Amherst -> Los Angeles)", s);

  const std::vector<CodeKind> codes = {
      CodeKind::kRse, CodeKind::kLdgmStaircase, CodeKind::kLdgmTriangle};
  const std::vector<TxModel> models = {
      TxModel::kTx1SeqSourceSeqParity, TxModel::kTx2SeqSourceRandParity,
      TxModel::kTx3SeqParityRandSource, TxModel::kTx4AllRandom,
      TxModel::kTx5Interleaved, TxModel::kTx6FewSourceRandParity};

  std::optional<TupleEvaluation> winner;
  for (const double ratio : {1.5, 2.5}) {
    std::cout << "\n# FEC expansion ratio = " << format_fixed(ratio, 1)
              << " — mean inefficiency per transmission model ('-' = some "
                 "trial failed or model inapplicable)\n";
    std::vector<Series> columns;
    for (const CodeKind code : codes) {
      Series col;
      col.name = std::string(to_string(code));
      for (std::size_t m = 0; m < models.size(); ++m) {
        const TxModel tx = models[m];
        col.x.push_back(static_cast<double>(m + 1));
        // Tx_model_6 cannot deliver k packets at ratio 1.5 (Sec. 4.8).
        if (tx == TxModel::kTx6FewSourceRandParity && 0.2 + ratio - 1.0 < 1.0) {
          col.y.push_back(std::nan(""));
          continue;
        }
        const TrialStats stats =
            measure(Experiment(make_config(code, tx, ratio, s)), p, q, s,
                    static_cast<std::uint64_t>(m + 10 * ratio));
        if (!stats.reportable()) {
          col.y.push_back(std::nan(""));
          continue;
        }
        const double inef = stats.inefficiency.mean();
        col.y.push_back(inef);
        // Near-ties (within half a percent) go to the smaller expansion
        // ratio — the cheaper transmission ceiling, the paper's own pick.
        const double margin =
            winner && ratio > winner->expansion_ratio ? 0.005 : 0.0;
        if (!winner || inef < winner->inefficiency.mean() - margin)
          winner = TupleEvaluation{stats, code, tx, ratio};
      }
      columns.push_back(std::move(col));
    }
    write_series_table(std::cout, "tx_model", columns, 3);
  }

  if (winner) {
    std::cout << "\nbest tuple: " << to_string(winner->code) << " + "
              << to_string(winner->tx) << " @ ratio "
              << format_fixed(winner->expansion_ratio, 1)
              << " (inef = " << format_fixed(winner->inefficiency.mean(), 3)
              << ")\n";
    // Sec. 6.2.1 arithmetic with the paper's own numbers: 50 MB object,
    // 1024-byte payloads, measured inefficiency of the winning tuple.
    ByteNsentRequest req;
    req.inefficiency = winner->inefficiency.mean();
    req.object_bytes = 50000000;
    req.packet_payload_bytes = 1024;
    req.p = p;
    req.q = q;
    const NsentResult res = optimal_nsent_bytes(req);
    const std::uint32_t k = 48829;  // ceil(50e6 / 1024)
    const auto n_full = static_cast<std::uint32_t>(
        std::floor(k * winner->expansion_ratio));
    std::cout << "Sec. 6.2.1: 50 MByte object, 1024-byte payloads -> k = "
              << k << ", n = " << n_full << "\n"
              << "p_global = " << format_fixed(res.p_global, 4)
              << ", optimal n_sent = " << res.n_sent
              << " packets (paper: ~50041); with 10% tolerance: "
              << optimal_nsent_bytes([&] {
                   auto r = req;
                   r.tolerance_fraction = 0.10;
                   return r;
                 }())
                     .n_sent
              << "\n";
  }
  return 0;
}
