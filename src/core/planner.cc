#include "core/planner.h"

#include <algorithm>
#include <limits>

#include "sim/analytic.h"
#include "util/rng.h"

namespace fecsched {

namespace {

/// Visit every candidate tuple of `config`, in ranking order, as
/// fn(tuple_index, experiment).  The index (1-based, counting skipped
/// tuples too) keys the tuple's seeds.  Tx_model_6 sends only
/// fraction*k + (n-k) packets, so tuples that cannot reach k even on a
/// perfect channel are skipped (Sec. 4.8 requires a high enough
/// expansion ratio).
template <typename Fn>
void for_each_tuple(const PlannerConfig& config, Fn&& fn) {
  std::uint64_t tuple_index = 0;
  for (const CodeKind code : config.codes) {
    for (const double ratio : config.ratios) {
      for (const TxModel tx : config.tx_models) {
        ++tuple_index;
        if (tx == TxModel::kTx6FewSourceRandParity &&
            config.tx6_source_fraction + ratio - 1.0 < 1.0)
          continue;
        ExperimentConfig cfg;
        cfg.code = code;
        cfg.tx = tx;
        cfg.expansion_ratio = ratio;
        cfg.k = config.k;
        cfg.tx6_source_fraction = config.tx6_source_fraction;
        fn(tuple_index, Experiment(cfg));
      }
    }
  }
}

}  // namespace

Planner::Planner(PlannerConfig config) : config_(std::move(config)) {}

std::vector<TupleEvaluation> Planner::evaluate(double p, double q) const {
  std::vector<TupleEvaluation> evaluations;
  for_each_tuple(config_, [&](std::uint64_t tuple_index,
                              const Experiment& experiment) {
    const ExperimentConfig& cfg = experiment.config();
    TupleEvaluation& eval = evaluations.emplace_back();
    eval.code = cfg.code;
    eval.tx = cfg.tx;
    eval.expansion_ratio = cfg.expansion_ratio;
    for (std::uint32_t t = 0; t < config_.trials; ++t)
      eval.add(experiment.run_once(
                   p, q, derive_seed(config_.seed, {tuple_index, t})),
               config_.k);
  });
  std::stable_sort(evaluations.begin(), evaluations.end(),
                   [](const TupleEvaluation& a, const TupleEvaluation& b) {
                     if (a.reportable() != b.reportable())
                       return a.reportable();
                     return a.inefficiency.mean() < b.inefficiency.mean();
                   });
  return evaluations;
}

std::optional<TupleEvaluation> Planner::best(double p, double q) const {
  const auto evaluations = evaluate(p, q);
  if (evaluations.empty() || !evaluations.front().reportable())
    return std::nullopt;
  return evaluations.front();
}

std::vector<UniversalEvaluation> Planner::rank_universal(
    const GridSpec& spec) const {
  std::vector<UniversalEvaluation> rankings;
  for_each_tuple(config_, [&](std::uint64_t tuple_index,
                              const Experiment& experiment) {
    const ExperimentConfig& cfg = experiment.config();
    GridRunOptions options;
    options.trials_per_cell = config_.trials;
    options.master_seed = derive_seed(config_.seed, {tuple_index});
    const GridResult grid = experiment.run(spec, options);

    // The effective budget per the Fig. 6 limit: Tx_model_6 sends
    // fewer than n packets.
    const double budget =
        cfg.tx == TxModel::kTx6FewSourceRandParity
            ? config_.tx6_source_fraction + (cfg.expansion_ratio - 1.0)
            : cfg.expansion_ratio;

    UniversalEvaluation& eval = rankings.emplace_back();
    eval.code = cfg.code;
    eval.tx = cfg.tx;
    eval.expansion_ratio = cfg.expansion_ratio;
    double best = std::numeric_limits<double>::infinity();
    double sum = 0.0;
    for (const CellResult& cell : grid.cells) {
      if (!decoding_feasible(cell.p, cell.q, 1.05, budget)) continue;
      ++eval.cells_considered;
      if (!cell.reportable()) continue;
      ++eval.cells_reliable;
      const double inef = cell.inefficiency.mean();
      sum += inef;
      eval.worst_inefficiency = std::max(eval.worst_inefficiency, inef);
      best = std::min(best, inef);
    }
    if (eval.cells_reliable > 0) {
      eval.mean_inefficiency = sum / eval.cells_reliable;
      eval.spread = eval.worst_inefficiency - best;
    }
  });
  std::stable_sort(rankings.begin(), rankings.end(),
                   [](const UniversalEvaluation& a, const UniversalEvaluation& b) {
                     if (a.coverage() != b.coverage())
                       return a.coverage() > b.coverage();
                     return a.worst_inefficiency < b.worst_inefficiency;
                   });
  return rankings;
}

TupleEvaluation Planner::universal_recommendation() noexcept {
  TupleEvaluation rec;
  rec.code = CodeKind::kLdgmTriangle;
  rec.tx = TxModel::kTx4AllRandom;
  rec.expansion_ratio = 2.5;
  return rec;
}

}  // namespace fecsched
