#include "adapt/controller.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>

#include "core/nsent.h"
#include "sim/analytic.h"
#include "sim/trial.h"
#include "util/rng.h"

namespace fecsched {

namespace {

constexpr double kObservedBlendHalfLife = 4.0;  ///< uses until 50/50 blend
constexpr double kOutcomeEwmaAlpha = 0.2;
constexpr double kToleranceBoostStep = 0.05;
constexpr double kToleranceBoostCap = 0.50;
/// Margin inside the analytic Fig. 6 limit a candidate must keep: the
/// receiver must expect at least 1.05 * k packets for the tuple to count
/// as feasible at all.
constexpr double kFeasibilityMargin = 1.05;

}  // namespace

std::string to_string(const CandidateTuple& tuple) {
  char ratio[16];
  std::snprintf(ratio, sizeof ratio, "%.1f", tuple.expansion_ratio);
  return std::string(to_string(tuple.code)) + "+" +
         std::string(to_string(tuple.tx)) + "@" + ratio;
}

std::vector<CandidateTuple> default_candidates() {
  return {
      {CodeKind::kLdgmStaircase, TxModel::kTx4AllRandom, 1.5},
      {CodeKind::kLdgmStaircase, TxModel::kTx4AllRandom, 2.5},
      {CodeKind::kLdgmTriangle, TxModel::kTx4AllRandom, 1.5},
      {CodeKind::kLdgmTriangle, TxModel::kTx4AllRandom, 2.5},
      {CodeKind::kRse, TxModel::kTx5Interleaved, 1.5},
      {CodeKind::kRse, TxModel::kTx5Interleaved, 2.5},
  };
}

const char* to_string(ChannelRegime regime) noexcept {
  switch (regime) {
    case ChannelRegime::kUnknown: return "unknown";
    case ChannelRegime::kLowLossIid: return "low-loss-iid";
    case ChannelRegime::kLowLossBursty: return "low-loss-bursty";
    case ChannelRegime::kHighLoss: return "high-loss";
  }
  return "?";
}

AdaptiveController::AdaptiveController(ControllerConfig config)
    : config_(std::move(config)) {
  if (config_.candidates.empty()) config_.candidates = default_candidates();
  if (config_.planning_k == 0 || config_.planning_trials == 0)
    throw std::invalid_argument(
        "AdaptiveController: planning_k and planning_trials must be > 0");
  ranking_.resize(config_.candidates.size());
  for (std::size_t i = 0; i < config_.candidates.size(); ++i)
    ranking_[i].tuple = config_.candidates[i];
  planning_experiments_.resize(config_.candidates.size());
}

AdaptiveController::~AdaptiveController() = default;
AdaptiveController::AdaptiveController(AdaptiveController&&) noexcept = default;
AdaptiveController& AdaptiveController::operator=(AdaptiveController&&) noexcept =
    default;

CandidateTuple AdaptiveController::recommended_tuple(
    ChannelRegime regime) noexcept {
  switch (regime) {
    case ChannelRegime::kLowLossIid:
    case ChannelRegime::kLowLossBursty:
      // Sec. 6.2.1: at small loss rates LDGM Staircase with fully random
      // scheduling is the cheapest reliable scheme; random scheduling also
      // makes bursty losses look IID to the code.
      return {CodeKind::kLdgmStaircase, TxModel::kTx4AllRandom, 1.5};
    case ChannelRegime::kHighLoss:
    case ChannelRegime::kUnknown:
      // Sec. 6.2.2: when the loss distribution is unknown or losses can be
      // high, LDGM Triangle + random scheduling at the high ratio is the
      // scheme least dependent on the loss distribution.
      return {CodeKind::kLdgmTriangle, TxModel::kTx4AllRandom, 2.5};
  }
  return {};
}

ChannelRegime AdaptiveController::classify(
    const ChannelEstimate& estimate) const noexcept {
  if (estimate.confidence < config_.min_confidence ||
      estimate.observations == 0)
    return ChannelRegime::kUnknown;
  if (estimate.p_global > config_.high_loss_threshold)
    return ChannelRegime::kHighLoss;
  return estimate.bursty ? ChannelRegime::kLowLossBursty
                         : ChannelRegime::kLowLossIid;
}

double AdaptiveController::plan_distance(
    const ChannelEstimate& estimate) const {
  constexpr double kEps = 1e-4;
  const double d_loss = std::fabs(std::log((estimate.p_global + kEps) /
                                           (plan_p_global_ + kEps)));
  const double d_burst = std::fabs(
      std::log(std::max(estimate.mean_burst, 1.0) /
               std::max(plan_mean_burst_, 1.0)));
  return d_loss + d_burst;
}

void AdaptiveController::replan(const ChannelEstimate& estimate) {
  const double p = estimate.p;
  const double q = estimate.q;
  for (std::size_t i = 0; i < config_.candidates.size(); ++i) {
    const CandidateTuple& tuple = config_.candidates[i];
    TuplePrediction& pred = ranking_[i];
    // Feedback state (observed_*) survives re-planning on purpose: the
    // channel estimate moved, but what we measured about a tuple's real
    // behaviour is still the best evidence we have.
    pred.tuple = tuple;
    pred.trials = 0;
    pred.failures = 0;
    pred.mean_inefficiency = 0.0;
    pred.decode_probability = 0.0;
    const double nsent_over_k = tuple.expansion_ratio;
    pred.feasible = decoding_feasible(p, q, kFeasibilityMargin, nsent_over_k);
    if (!pred.feasible) continue;

    if (!planning_experiments_[i]) {
      ExperimentConfig cfg;
      cfg.code = tuple.code;
      cfg.tx = tuple.tx;
      cfg.expansion_ratio = tuple.expansion_ratio;
      cfg.k = config_.planning_k;
      planning_experiments_[i] = std::make_unique<Experiment>(cfg);
    }
    const Experiment& experiment = *planning_experiments_[i];
    TrialStats stats;
    for (std::uint32_t t = 0; t < config_.planning_trials; ++t)
      stats.add(experiment.run_once(
                    p, q, derive_seed(config_.seed, {replans_, i, t})),
                experiment.k());
    const std::size_t decoded = stats.inefficiency.count();
    pred.trials = stats.trials;
    pred.failures = stats.failures;
    pred.decode_probability = static_cast<double>(decoded) / stats.trials;
    pred.mean_inefficiency =
        decoded > 0 ? stats.inefficiency.mean() : tuple.expansion_ratio;
    pred.inefficiency_stddev = stats.inefficiency.stddev();
  }
  have_plan_ = true;
  plan_p_global_ = estimate.p_global;
  plan_mean_burst_ = std::max(estimate.mean_burst, 1.0);
  force_replan_ = false;
  ++replans_;
}

Decision AdaptiveController::decide(const ChannelEstimate& estimate,
                                    std::uint32_t k) {
  if (k == 0)
    throw std::invalid_argument("AdaptiveController::decide: k must be > 0");

  Decision decision;
  decision.channel = estimate;
  decision.regime = classify(estimate);

  if (decision.regime == ChannelRegime::kUnknown) {
    // Cold start: the paper's universal scheme, full schedule — maximise
    // the chance of decoding while the estimator gathers evidence.
    decision.tuple = recommended_tuple(ChannelRegime::kUnknown);
    decision.predicted_inefficiency = 1.0;
    decision.predicted_decode_probability = 1.0;
    decision.predicted_cost = decision.tuple.expansion_ratio;
    decision.n_sent = 0;
    decision.candidate_index =
        static_cast<std::uint32_t>(config_.candidates.size());
    for (std::size_t i = 0; i < config_.candidates.size(); ++i)
      if (config_.candidates[i] == decision.tuple)
        decision.candidate_index = static_cast<std::uint32_t>(i);
    return decision;
  }

  if (!have_plan_ || force_replan_ ||
      plan_distance(estimate) > config_.replan_distance) {
    replan(estimate);
    decision.replanned = true;
  }

  const double p_global = std::min(estimate.p_global, 0.99);
  const double tolerance = config_.nsent_tolerance + tolerance_boost_;
  // Asymptotic variance factor of the delivery count under the Gilbert
  // chain: Var[received out of n] ~ n * pg * (1 - pg) * (1+L)/(1-L) with
  // L = 1 - p - q (the chain's lag-1 autocorrelation).  Bursty channels
  // deliver with much higher variance than IID at the same loss rate, and
  // short objects feel that variance proportionally more — both must flow
  // into the n_sent budget and the per-object qualification.
  const double lambda =
      std::clamp(1.0 - estimate.p - estimate.q, -0.999, 0.999);
  const double var_factor = (1.0 + lambda) / (1.0 - lambda);
  const auto delivery_sigma = [&](double n) {
    return std::sqrt(std::max(n, 0.0) * p_global * (1.0 - p_global) *
                     var_factor);
  };

  std::size_t best = config_.candidates.size();
  double best_cost = std::numeric_limits<double>::infinity();
  double best_inef = std::numeric_limits<double>::infinity();
  double best_needed = 0.0;
  bool best_qualified = false;
  double best_prob = -1.0;

  for (std::size_t i = 0; i < ranking_.size(); ++i) {
    const TuplePrediction& pred = ranking_[i];
    if (!pred.feasible || pred.trials == 0) continue;
    // A tuple that failed in the field recently is distrusted until it has
    // built up enough successful uses to outvote the failure.
    const bool field_trusted =
        pred.observed_failures == 0 || pred.observed_uses >= 50;

    // Blend the planning-time inefficiency with the achieved-inefficiency
    // EWMA from the field; field evidence dominates once the tuple has
    // been used a few times.
    double inef = pred.mean_inefficiency;
    if (pred.observed_uses > 0) {
      const double w = static_cast<double>(pred.observed_uses) /
                       (pred.observed_uses + kObservedBlendHalfLife);
      inef = (1.0 - w) * inef + w * pred.observed_inefficiency;
    }
    inef = std::max(inef, 1.0);

    // Sizing uses mean + 2 sigma of the trial-to-trial inefficiency, not
    // the mean: the budget must cover a typical-bad decode, not the
    // average one.
    const double needed =
        std::max(inef, pred.mean_inefficiency +
                           2.0 * pred.inefficiency_stddev) *
        static_cast<double>(k);
    const double full_n =
        pred.tuple.expansion_ratio * static_cast<double>(k);

    // Per-object qualification: even the full schedule must deliver the
    // needed packets with sigma_margin standard deviations to spare.
    const bool length_ok =
        full_n * (1.0 - p_global) -
            config_.sigma_margin * delivery_sigma(full_n) >=
        needed;
    const bool qualified =
        field_trusted && length_ok &&
        pred.decode_probability >= config_.target_decode_probability;

    // n >= (needed + sigma_margin * sigma(n)) / (1 - pg); two fixed-point
    // iterations from the Eq. 3 seed converge for any sane channel.
    double n_plan = full_n;
    if (p_global < 0.99) {
      double n_it = needed / (1.0 - p_global);
      for (int iter = 0; iter < 2; ++iter)
        n_it = (needed + config_.sigma_margin * delivery_sigma(n_it)) /
               (1.0 - p_global);
      n_plan = std::min(n_it * (1.0 + tolerance), full_n);
    }
    const double cost = n_plan / static_cast<double>(k);

    const bool better =
        (qualified && !best_qualified) ||
        (qualified == best_qualified &&
         (qualified ? (cost < best_cost ||
                       (cost == best_cost && inef < best_inef))
                    : (pred.decode_probability > best_prob ||
                       (pred.decode_probability == best_prob &&
                        cost < best_cost))));
    if (better) {
      best = i;
      best_cost = cost;
      best_inef = inef;
      best_needed = needed;
      best_qualified = qualified;
      best_prob = pred.decode_probability;
    }
  }

  if (best == config_.candidates.size()) {
    // Nothing is even feasible at this operating point (e.g. p_global
    // beyond every ratio's Fig. 6 limit): fall back to the universal
    // scheme with a full schedule and let feedback drive recovery.
    decision.tuple = recommended_tuple(ChannelRegime::kUnknown);
    decision.predicted_inefficiency = 1.0;
    decision.predicted_decode_probability = 0.0;
    decision.predicted_cost = decision.tuple.expansion_ratio;
    decision.n_sent = 0;
    decision.candidate_index =
        static_cast<std::uint32_t>(config_.candidates.size());
    return decision;
  }

  const TuplePrediction& chosen = ranking_[best];
  decision.tuple = chosen.tuple;
  decision.candidate_index = static_cast<std::uint32_t>(best);
  decision.predicted_inefficiency = best_inef;
  decision.predicted_decode_probability = chosen.decode_probability;
  decision.predicted_cost = best_cost;
  const auto max_n = static_cast<std::uint32_t>(
      chosen.tuple.expansion_ratio * static_cast<double>(k));
  if (best_qualified) {
    // Cross-check the variance-aware budget against the plain Eq. 3
    // recommendation and keep the larger of the two.
    NsentRequest req;
    req.inefficiency = std::max(best_needed / static_cast<double>(k), 1.0);
    req.k = k;
    req.p = estimate.p;
    req.q = estimate.q;
    req.tolerance_fraction = tolerance;
    const NsentResult res = optimal_nsent(req);
    const auto planned = static_cast<std::uint32_t>(
        std::max(best_cost * static_cast<double>(k),
                 static_cast<double>(res.n_sent)));
    decision.n_sent = planned < max_n ? planned : 0;
  } else {
    decision.n_sent = 0;  // full schedule
  }
  return decision;
}

SlidingWindowConfig AdaptiveController::recommend_window(
    const ChannelEstimate& estimate, double target_overhead) const {
  if (!(target_overhead > 0.0))
    throw std::invalid_argument(
        "recommend_window: target_overhead must be positive");
  constexpr std::uint32_t kDefaultWindow = 64;
  constexpr std::uint32_t kMaxWindow = 1024;
  constexpr double kSafety = 2.0;  // variance pad on the burst estimate

  SlidingWindowConfig cfg;
  cfg.repair_interval = static_cast<std::uint32_t>(std::clamp<long long>(
      std::llround(1.0 / target_overhead), 1, std::int64_t{1} << 30));
  cfg.seed = config_.seed;
  const double overhead = 1.0 / cfg.repair_interval;

  if (estimate.confidence < config_.min_confidence) {
    cfg.window = kDefaultWindow;  // cold start: no burst evidence yet
    return cfg;
  }
  const double margin = overhead - estimate.p_global;
  if (margin <= 0.0) {
    // The loss rate eats the whole repair budget: no window sustains
    // recovery; take the defensive maximum (callers should also raise the
    // overhead, as decide() would by switching tuples).
    cfg.window = kMaxWindow;
    return cfg;
  }
  const double burst = std::max(1.0, estimate.mean_burst);
  const double w = std::ceil(kSafety * burst / margin);
  // Floor: at least two repair slots inside the window (capped so the
  // clamp bounds stay ordered at very low overheads).
  const double floor_w = std::min(static_cast<double>(2 * cfg.repair_interval),
                                  static_cast<double>(kMaxWindow));
  cfg.window = static_cast<std::uint32_t>(
      std::clamp(w, floor_w, static_cast<double>(kMaxWindow)));
  return cfg;
}

void AdaptiveController::report_outcome(const Decision& decision, bool decoded,
                                        double achieved_inefficiency) {
  if (decision.candidate_index >= ranking_.size()) {
    // A decision outside the candidate list (infeasible-channel fallback,
    // or a custom candidate set without the universal tuple) has no
    // per-tuple bookkeeping, but a failure must still widen the safety
    // margin and force a fresh plan — that is the recovery path.
    if (!decoded) {
      tolerance_boost_ =
          std::min(tolerance_boost_ + kToleranceBoostStep, kToleranceBoostCap);
      force_replan_ = true;
    }
    return;
  }
  TuplePrediction& pred = ranking_[decision.candidate_index];
  ++pred.observed_uses;
  if (decoded) {
    if (pred.observed_uses == 1 || pred.observed_inefficiency == 0.0)
      pred.observed_inefficiency = achieved_inefficiency;
    else
      pred.observed_inefficiency =
          (1.0 - kOutcomeEwmaAlpha) * pred.observed_inefficiency +
          kOutcomeEwmaAlpha * achieved_inefficiency;
  } else {
    ++pred.observed_failures;
    tolerance_boost_ =
        std::min(tolerance_boost_ + kToleranceBoostStep, kToleranceBoostCap);
    force_replan_ = true;
  }
}

}  // namespace fecsched
