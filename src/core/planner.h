// The recommendation engine of Sec. 6: given a channel operating point
// (known (p, q)) or an unknown channel, pick the (FEC code; transmission
// model; FEC expansion ratio) tuple with the best measured inefficiency,
// honouring the paper's reliability rule (a tuple is unusable at a point
// if any trial failed to decode there).

#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "fec/types.h"
#include "sim/experiment.h"

namespace fecsched {

/// One candidate tuple and its measured behaviour at the operating point:
/// usable there when reportable() (paper rule: no failure tolerated).
struct TupleEvaluation : TrialStats {
  CodeKind code = CodeKind::kLdgmStaircase;
  TxModel tx = TxModel::kTx4AllRandom;
  double expansion_ratio = 1.5;
};

/// One candidate tuple measured across a whole channel grid (Sec. 6.2.2).
struct UniversalEvaluation {
  CodeKind code = CodeKind::kLdgmTriangle;
  TxModel tx = TxModel::kTx4AllRandom;
  double expansion_ratio = 2.5;
  std::uint32_t cells_considered = 0;  ///< grid cells inside the Fig. 6 limit
  std::uint32_t cells_reliable = 0;    ///< ... where every trial decoded
  double worst_inefficiency = 0.0;     ///< max mean inef over reliable cells
  double mean_inefficiency = 0.0;      ///< mean of means over reliable cells
  double spread = 0.0;                 ///< worst - best mean inefficiency

  /// Fraction of fundamentally-decodable cells this tuple handles.
  [[nodiscard]] double coverage() const noexcept {
    return cells_considered > 0
               ? static_cast<double>(cells_reliable) / cells_considered
               : 0.0;
  }
};

/// Planner configuration: the candidate space and simulation effort.
struct PlannerConfig {
  std::uint32_t k = 5000;           ///< object size used for evaluation
  std::uint32_t trials = 30;        ///< per tuple
  std::uint64_t seed = 0x9a7efec5ULL;
  std::vector<double> ratios = {1.5, 2.5};
  std::vector<CodeKind> codes = {CodeKind::kRse, CodeKind::kLdgmStaircase,
                                 CodeKind::kLdgmTriangle};
  /// Candidate schedulings; Tx1/Tx3 are included for completeness even
  /// though the paper rules them out ("of little interest in all cases").
  std::vector<TxModel> tx_models = {
      TxModel::kTx1SeqSourceSeqParity, TxModel::kTx2SeqSourceRandParity,
      TxModel::kTx3SeqParityRandSource, TxModel::kTx4AllRandom,
      TxModel::kTx5Interleaved, TxModel::kTx6FewSourceRandParity};
  /// Tx_model_6 needs enough parity (Sec. 4.8); tuples whose expected
  /// delivery cannot reach k are skipped automatically.
  double tx6_source_fraction = 0.2;
};

/// Evaluates candidate tuples at channel operating points.
class Planner {
 public:
  explicit Planner(PlannerConfig config = {});

  [[nodiscard]] const PlannerConfig& config() const noexcept { return config_; }

  /// Measure every candidate tuple at (p, q), most attractive first
  /// (reportable tuples before the others, then by mean inefficiency).
  [[nodiscard]] std::vector<TupleEvaluation> evaluate(double p, double q) const;

  /// The winning tuple at (p, q), if any tuple is reportable there.
  [[nodiscard]] std::optional<TupleEvaluation> best(double p, double q) const;

  /// The paper's universal recommendation when the loss model is unknown
  /// (Sec. 6.2.2): LDGM Triangle with Tx_model_4 — the scheme least
  /// dependent on the loss distribution, preferred when high loss rates
  /// are possible.
  [[nodiscard]] static TupleEvaluation universal_recommendation() noexcept;

  /// Computed version of Sec. 6.2.2: measure every candidate tuple over a
  /// whole (p, q) grid and rank by worst-case behaviour.  A tuple's score
  /// is its worst mean inefficiency over the cells where the channel is
  /// fundamentally decodable for its ratio (Fig. 6 limit); any failure on
  /// such a cell disqualifies... would disqualify everything near the
  /// boundary, so instead tuples are ranked by (decodable-cell coverage
  /// descending, worst-case inefficiency ascending).  The paper's answer
  /// — a fully random scheme with an LDGM code — should surface at the
  /// top; see planner tests and bench_heterogeneous.
  [[nodiscard]] std::vector<UniversalEvaluation> rank_universal(
      const GridSpec& spec) const;

 private:
  PlannerConfig config_;
};

}  // namespace fecsched
