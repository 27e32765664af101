#include "sim/adaptive_compare.h"

#include <algorithm>
#include <stdexcept>

#include "adapt/channel_estimator.h"
#include "channel/gilbert.h"
#include "obs/obs.h"
#include "sim/experiment.h"
#include "sim/trial.h"
#include "util/interrupt.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace fecsched {

void AdaptiveCompareConfig::validate() const {
  if (k == 0 || k > 1000000)
    throw std::invalid_argument("--k must be in [1, 1000000]");
  if (objects == 0 || objects > 100000)
    throw std::invalid_argument("--objects must be in [1, 100000]");
}

namespace {

/// The candidate tuples and their Experiments (LDGM graphs, RSE plans),
/// built once per run: they depend only on (tuple, k), not on the channel
/// point, and every point's worker reads them without locking.  The
/// first `baselines` tuples are the static baselines; the controller's
/// cold-start tuple follows when the candidate list leaves it out.
struct Candidates {
  std::vector<CandidateTuple> tuples;
  std::size_t baselines = 0;
  std::vector<Experiment> experiments;

  [[nodiscard]] const Experiment& of(const CandidateTuple& tuple) const {
    return experiments[static_cast<std::size_t>(
        std::find(tuples.begin(), tuples.end(), tuple) - tuples.begin())];
  }
};

Candidates build_candidates(const AdaptiveCompareConfig& config) {
  Candidates c;
  c.tuples = config.controller.candidates.empty()
                 ? default_candidates()
                 : config.controller.candidates;
  c.baselines = c.tuples.size();
  const CandidateTuple universal =
      AdaptiveController::recommended_tuple(ChannelRegime::kUnknown);
  if (std::find(c.tuples.begin(), c.tuples.end(), universal) == c.tuples.end())
    c.tuples.push_back(universal);
  const obs::Hook hook;
  for (const CandidateTuple& tuple : c.tuples) {
    ExperimentConfig cfg;
    cfg.code = tuple.code;
    cfg.tx = tuple.tx;
    cfg.expansion_ratio = tuple.expansion_ratio;
    cfg.k = config.k;
    c.experiments.push_back(
        hook.timed(obs::Phase::kEncode, [&] { return Experiment(cfg); }));
  }
  return c;
}

/// Object (or baseline trial) t at `point`: the schedule and tracker from
/// seed path {2, t}, cut to `n_sent` packets (0 = the whole schedule), the
/// channel from {3, t}.  The same t gives a baseline and the adaptive
/// sender the same draws.
TrialResult run_object(const Experiment& experiment, const ChannelPoint& point,
                       std::uint64_t seed, std::uint32_t t,
                       std::uint32_t n_sent, LossReport& report,
                       const obs::Hook& hook) {
  const std::uint64_t trial_seed = derive_seed(seed, {2, t});
  std::vector<PacketId> schedule = hook.timed(
      obs::Phase::kSchedule, [&] { return experiment.new_schedule(trial_seed); });
  if (n_sent > 0 && n_sent < schedule.size()) schedule.resize(n_sent);
  const auto tracker = hook.timed(
      obs::Phase::kEncode, [&] { return experiment.new_tracker(trial_seed); });
  GilbertModel channel(point.p, point.q);
  channel.reset(derive_seed(seed, {3, t}));
  return run_trial(*tracker, schedule, channel, report, hook);
}

AdaptiveComparePoint run_point(const ChannelPoint& channel,
                               const AdaptiveCompareConfig& config,
                               const Candidates& candidates) {
  AdaptiveComparePoint point;
  point.p = channel.p;
  point.q = channel.q;
  point.p_global =
      (channel.p + channel.q) > 0.0 ? channel.p / (channel.p + channel.q) : 0.0;
  point.mean_burst = mean_burst(channel.q);
  point.warmup_objects = std::min(config.warmup_objects, config.objects);

  const obs::Hook hook;
  LossReport report;

  // ------------------------------------------------- static baselines
  //
  // Common random numbers: each baseline is measured on exactly the
  // (schedule seed, channel seed) pairs the adaptive sender will use for
  // its steady-state objects below.  When the adaptive loop settles on a
  // tuple, its steady-state trials are then identical to that baseline's,
  // so the comparison measures the controller's choices, not seed noise.
  for (std::size_t b = 0; b < candidates.baselines; ++b) {
    StaticBaselineResult baseline;
    baseline.tuple = candidates.tuples[b];
    for (std::uint32_t t = point.warmup_objects; t < config.objects; ++t)
      baseline.add(run_object(candidates.experiments[b], channel, config.seed,
                              t, 0, report, hook),
                   config.k);
    point.baselines.push_back(baseline);
    if (baseline.reportable() &&
        (point.best_baseline < 0 ||
         baseline.inefficiency.mean() <
             point.baselines[static_cast<std::size_t>(point.best_baseline)]
                 .inefficiency.mean()))
      point.best_baseline = static_cast<int>(b);
  }

  // ---------------------------------------------------- adaptive loop
  ChannelEstimator estimator;
  AdaptiveController controller(config.controller);

  for (std::uint32_t t = 0; t < config.objects; ++t) {
    const Decision decision = controller.decide(estimator.estimate(), config.k);
    const TrialResult trial =
        run_object(candidates.of(decision.tuple), channel, config.seed, t,
                   decision.n_sent, report, hook);

    const double inefficiency =
        trial.decoded ? trial.inefficiency(config.k) : 0.0;
    estimator.observe_report(report);
    controller.report_outcome(decision, trial.decoded, inefficiency);

    AdaptiveTrajectoryPoint step;
    step.object_index = t;
    step.tuple = decision.tuple;
    step.regime = decision.regime;
    step.replanned = decision.replanned;
    if (decision.replanned) hook.instant("adapt.replan");
    step.decoded = trial.decoded;
    step.inefficiency = inefficiency;
    step.n_sent = trial.n_sent;
    step.estimated_p_global = decision.channel.p_global;
    step.estimated_mean_burst = decision.channel.mean_burst;
    point.trajectory.push_back(step);

    if (t < point.warmup_objects) {
      if (trial.decoded) point.adaptive_warmup.add(inefficiency);
    } else if (trial.decoded) {
      point.adaptive_steady.add(inefficiency);
    } else {
      ++point.adaptive_failures;
    }
  }
  return point;
}

}  // namespace

std::vector<AdaptiveComparePoint> run_adaptive_compare(
    std::span<const ChannelPoint> points, const AdaptiveCompareConfig& config,
    unsigned threads) {
  config.validate();
  const Candidates candidates = build_candidates(config);
  std::vector<AdaptiveComparePoint> out(points.size());
  parallel_for_index(points.size(), threads, [&](std::size_t i) {
    if (interrupt::interrupted()) return;  // drain: start no new point
    out[i] = run_point(points[i], config, candidates);
  });
  return out;
}

}  // namespace fecsched
