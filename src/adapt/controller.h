// Closed-loop FEC parameter control — the acting half of the adaptive
// loop (src/adapt/).
//
// The paper ends with per-regime recommendations: which (FEC code;
// transmission model; expansion ratio) tuple to use once the channel is
// known, and a universal fallback (LDGM Triangle + fully random
// scheduling at a high ratio) when it is not.  The controller encodes
// those recommendations and sharpens them online: given a ChannelEstimate
// it simulates its candidate tuples at the estimated (p, q) operating
// point (structure-only trials, the same machinery as sim/), keeps the
// tuples whose predicted decode probability meets the target, and picks
// the one with the cheapest predicted transmission cost
//     n_sent/k = inefficiency / (1 - p_global)        (paper Eq. 3)
// via core/nsent.  Receiver feedback (decoded? achieved inefficiency?)
// flows back through report_outcome(), which refines the per-tuple
// inefficiency predictions and triggers re-planning after a failure, so
// the loop stays closed even when the estimate is imperfect.
//
// Re-planning is hysteretic: the candidate ranking is recomputed only
// when the estimated channel has drifted materially (log-space distance
// on (p_global, mean_burst)) since the last plan, so a stationary channel
// costs one plan, not one per object.

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "adapt/channel_estimator.h"
#include "fec/types.h"
#include "sim/experiment.h"
#include "stream/sliding_window.h"

namespace fecsched {

/// One candidate (code, scheduling, ratio) tuple the controller may pick.
struct CandidateTuple {
  CodeKind code = CodeKind::kLdgmTriangle;
  TxModel tx = TxModel::kTx4AllRandom;
  double expansion_ratio = 2.5;

  friend bool operator==(const CandidateTuple&,
                         const CandidateTuple&) = default;
};

/// Human-readable "code+tx@ratio" label (stable, used by bench/CLI output).
[[nodiscard]] std::string to_string(const CandidateTuple& tuple);

/// The default candidate space: the paper's recommended schemes at both
/// studied ratios (LDGM Staircase / Triangle with fully random scheduling,
/// blocked RSE with per-block interleaving).
[[nodiscard]] std::vector<CandidateTuple> default_candidates();

/// Channel regimes the paper's recommendations distinguish.
enum class ChannelRegime {
  kUnknown,       ///< not enough evidence: use the universal scheme
  kLowLossIid,    ///< p_global small, memoryless
  kLowLossBursty, ///< p_global small, significant bursts
  kHighLoss,      ///< p_global large (bursty or not)
};

[[nodiscard]] const char* to_string(ChannelRegime regime) noexcept;

/// How one candidate fared at the planned operating point.
struct TuplePrediction {
  CandidateTuple tuple;
  double mean_inefficiency = 0.0;     ///< over decoded planning trials
  double inefficiency_stddev = 0.0;   ///< ditto (sizing safety margin)
  double decode_probability = 0.0;    ///< decoded / trials
  std::uint32_t failures = 0;
  std::uint32_t trials = 0;
  bool feasible = false;              ///< inside the Fig. 6 analytic limit
  double predicted_cost = 0.0;        ///< n_sent/k per Eq. 3 (+tolerance)
  /// Objects this tuple was actually used for since the last reset, and
  /// the EWMA of the achieved inefficiency fed back for them.
  std::uint32_t observed_uses = 0;
  double observed_inefficiency = 0.0;
  std::uint32_t observed_failures = 0;
};

/// One per-object decision.
struct Decision {
  CandidateTuple tuple;
  ChannelRegime regime = ChannelRegime::kUnknown;
  double predicted_inefficiency = 1.0;
  double predicted_decode_probability = 0.0;
  double predicted_cost = 0.0;   ///< n_sent / k
  std::uint32_t n_sent = 0;      ///< transmission budget (0 = full schedule)
  std::uint32_t candidate_index = 0;  ///< into the controller's candidates
  ChannelEstimate channel;       ///< the estimate the decision used
  bool replanned = false;        ///< this decision recomputed the ranking
};

/// Controller tuning.
struct ControllerConfig {
  std::vector<CandidateTuple> candidates;  ///< empty = default_candidates()
  /// A tuple qualifies only when its planning-trial decode fraction
  /// reaches this value (1.0 with the default 16 trials = zero failures,
  /// the paper's reliability rule).
  double target_decode_probability = 0.99;
  std::uint32_t planning_k = 1000;     ///< object size of planning trials
  std::uint32_t planning_trials = 16;  ///< per candidate, per plan
  /// Re-plan when |log(p_global ratio)| + |log(burst ratio)| exceeds this.
  double replan_distance = 0.25;
  /// Eq. 3 relative safety margin on n_sent on top of the variance-aware
  /// sigma margin; grows after observed decode failures.
  double nsent_tolerance = 0.05;
  /// Sigma multiplier for the finite-length delivery margin: n_sent is
  /// sized so the expected deliveries minus this many standard deviations
  /// (two-state-chain asymptotic variance) still cover the predicted
  /// decoding need, and a tuple is disqualified for an object when even
  /// its full schedule misses that bar.
  double sigma_margin = 3.0;
  /// Below this estimate confidence the universal scheme is used and the
  /// full schedule is sent (cold start).
  double min_confidence = 0.02;
  /// p_global boundary between the low-loss and high-loss regimes.
  double high_loss_threshold = 0.12;
  std::uint64_t seed = 0xada47ec5ULL;
};

/// Maps channel estimates to sender configurations; learns from feedback.
class AdaptiveController {
 public:
  explicit AdaptiveController(ControllerConfig config = {});

  /// Decide the configuration for the next object of k source packets.
  [[nodiscard]] Decision decide(const ChannelEstimate& estimate,
                                std::uint32_t k);

  /// Close the loop: report how the decision's object actually went.
  /// `achieved_inefficiency` is n_needed/k (ignored when not decoded).
  void report_outcome(const Decision& decision, bool decoded,
                      double achieved_inefficiency);

  /// The candidate ranking of the most recent plan (empty before any).
  [[nodiscard]] const std::vector<TuplePrediction>& last_ranking() const
      noexcept {
    return ranking_;
  }
  [[nodiscard]] std::uint32_t replan_count() const noexcept {
    return replans_;
  }
  [[nodiscard]] const ControllerConfig& config() const noexcept {
    return config_;
  }

  /// Streaming hook (src/stream/): recommend a sliding-window configuration
  /// for the estimated channel at the given repair-overhead budget.  The
  /// pacing realises the budget (one repair every round(1/overhead)
  /// sources); the window is sized from the estimated burst length: within
  /// a window of W sources roughly W*overhead repairs arrive while
  /// W*p_global + mean_burst losses must be covered, so recovery needs
  /// W >= mean_burst / (overhead - p_global), padded by a safety factor
  /// for variance.  A channel whose loss rate reaches the overhead budget
  /// (or an estimate below min_confidence) gets the defensive maximum /
  /// default window respectively.
  [[nodiscard]] SlidingWindowConfig recommend_window(
      const ChannelEstimate& estimate, double target_overhead = 0.25) const;

  /// The paper's prior recommendation for a regime (used at cold start and
  /// as the tie-break ordering).
  [[nodiscard]] static CandidateTuple recommended_tuple(
      ChannelRegime regime) noexcept;
  /// Classify an estimate into the paper's regimes.
  [[nodiscard]] ChannelRegime classify(const ChannelEstimate& estimate) const
      noexcept;

 private:
  void replan(const ChannelEstimate& estimate);
  [[nodiscard]] double plan_distance(const ChannelEstimate& estimate) const;

  ControllerConfig config_;
  std::vector<TuplePrediction> ranking_;  ///< parallel to config_.candidates
  std::vector<std::unique_ptr<Experiment>> planning_experiments_;
  bool have_plan_ = false;
  double plan_p_global_ = 0.0;
  double plan_mean_burst_ = 1.0;
  std::uint32_t replans_ = 0;
  double tolerance_boost_ = 0.0;  ///< grows on observed decode failures
  bool force_replan_ = false;
};

}  // namespace fecsched
