#include "sim/adaptive_compare.h"

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "channel/gilbert.h"
#include "obs/obs.h"
#include "sim/experiment.h"
#include "sim/stream_delay.h"
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

/// Experiment instances are expensive to build (LDGM graphs, RSE plans);
/// cache one per tuple for the whole point.
class ExperimentCache {
 public:
  explicit ExperimentCache(std::uint32_t k) : k_(k) {}

  const Experiment& get(const CandidateTuple& tuple) {
    for (std::size_t i = 0; i < tuples_.size(); ++i)
      if (tuples_[i] == tuple) return *experiments_[i];
    ExperimentConfig cfg;
    cfg.code = tuple.code;
    cfg.tx = tuple.tx;
    cfg.expansion_ratio = tuple.expansion_ratio;
    cfg.k = k_;
    tuples_.push_back(tuple);
    experiments_.push_back(std::make_unique<Experiment>(cfg));
    return *experiments_.back();
  }

 private:
  std::uint32_t k_;
  std::vector<CandidateTuple> tuples_;
  std::vector<std::unique_ptr<Experiment>> experiments_;
};

/// One reception that also records the loss trace (run_trial does not).
struct RecordedTrial {
  bool decoded = false;
  std::uint32_t n_needed = 0;
  std::uint32_t n_sent = 0;
  std::vector<bool> events;
};

RecordedTrial run_recorded_trial(const Experiment& experiment,
                                 std::vector<PacketId> schedule,
                                 GilbertModel& channel,
                                 std::uint64_t tracker_seed) {
  // Metrics and phase timings only: the adaptive engine sweeps points in
  // parallel without scenario-global trial ordinals, so it emits no
  // symbol-lifecycle trace events (src/obs/ merges those by ordinal).
  const obs::Hook hook;
  RecordedTrial out;
  const auto tracker = hook.timed(obs::Phase::kEncode, [&] {
    return experiment.new_tracker(tracker_seed);
  });
  out.events.reserve(schedule.size());
  std::uint32_t received = 0;
  for (const PacketId id : schedule) {
    const bool lost =
        hook.timed(obs::Phase::kChannelDraw, [&] { return channel.lost(); });
    out.events.push_back(lost);
    if (lost) continue;
    ++received;
    if (!tracker->complete()) {
      hook.timed(obs::Phase::kDecode, [&] { tracker->on_packet(id); });
      if (tracker->complete()) out.n_needed = received;
    }
  }
  out.decoded = tracker->complete();
  out.n_sent = static_cast<std::uint32_t>(schedule.size());
  if (hook.counting()) {
    hook.count("adaptive.trials");
    hook.count("adaptive.packets_sent", schedule.size());
    hook.count("adaptive.packets_received", received);
    if (out.decoded) hook.count("adaptive.trials_decoded");
  }
  return out;
}

}  // namespace

std::vector<std::pair<double, double>> burst_grid(
    const std::vector<double>& p_globals, const std::vector<double>& bursts) {
  std::vector<std::pair<double, double>> points;
  points.reserve(p_globals.size() * bursts.size());
  for (const double p_global : p_globals) {
    for (const double burst : bursts) {
      const ChannelPoint pt = gilbert_point(p_global, burst);
      points.emplace_back(pt.p, pt.q);
    }
  }
  return points;
}

namespace {

AdaptiveComparePoint run_point(double p, double q,
                               const AdaptiveCompareConfig& config,
                               ExperimentCache& cache) {
  if (config.objects == 0 || config.k == 0)
    throw std::invalid_argument(
        "run_adaptive_compare_point: k and objects must be > 0");

  AdaptiveComparePoint point;
  point.p = p;
  point.q = q;
  point.p_global = (p + q) > 0.0 ? p / (p + q) : 0.0;
  point.mean_burst = q > 0.0 ? 1.0 / q : 1.0;
  point.warmup_objects = std::min(config.warmup_objects, config.objects);

  std::vector<CandidateTuple> candidates =
      config.candidates.empty() ? default_candidates() : config.candidates;
  const obs::Hook hook;

  // ------------------------------------------------- static baselines
  //
  // Common random numbers: each baseline is measured on exactly the
  // (schedule seed, channel seed) pairs the adaptive sender will use for
  // its steady-state objects below.  When the adaptive loop settles on a
  // tuple, its steady-state trials are then identical to that baseline's,
  // so the comparison measures the controller's choices, not seed noise.
  for (std::size_t b = 0; b < candidates.size(); ++b) {
    StaticBaselineResult baseline;
    baseline.tuple = candidates[b];
    const Experiment& experiment =
        hook.timed(obs::Phase::kEncode,
                   [&]() -> const Experiment& { return cache.get(candidates[b]); });
    for (std::uint32_t t = point.warmup_objects; t < config.objects; ++t) {
      const std::uint64_t trial_seed = derive_seed(config.seed, {2, t});
      GilbertModel channel(p, q);
      channel.reset(derive_seed(config.seed, {3, t}));
      const RecordedTrial r = run_recorded_trial(
          experiment,
          hook.timed(obs::Phase::kSchedule,
                     [&] { return experiment.new_schedule(trial_seed); }),
          channel, trial_seed);
      if (r.decoded)
        baseline.inefficiency.add(static_cast<double>(r.n_needed) /
                                  static_cast<double>(config.k));
      else
        ++baseline.failures;
      ++baseline.trials;
    }
    point.baselines.push_back(baseline);
    if (baseline.reliable() &&
        (point.best_baseline < 0 ||
         baseline.inefficiency.mean() <
             point.baselines[static_cast<std::size_t>(point.best_baseline)]
                 .inefficiency.mean()))
      point.best_baseline = static_cast<int>(b);
  }

  // ---------------------------------------------------- adaptive loop
  ChannelEstimator estimator(config.estimator);
  ControllerConfig controller_cfg = config.controller;
  controller_cfg.candidates = candidates;
  AdaptiveController controller(controller_cfg);

  for (std::uint32_t t = 0; t < config.objects; ++t) {
    const Decision decision = controller.decide(estimator.estimate(), config.k);
    const Experiment& experiment =
        hook.timed(obs::Phase::kEncode,
                   [&]() -> const Experiment& { return cache.get(decision.tuple); });

    const std::uint64_t trial_seed = derive_seed(config.seed, {2, t});
    std::vector<PacketId> schedule = hook.timed(
        obs::Phase::kSchedule, [&] { return experiment.new_schedule(trial_seed); });
    if (config.use_nsent && decision.n_sent > 0 &&
        decision.n_sent < schedule.size())
      schedule.resize(decision.n_sent);

    GilbertModel channel(p, q);
    channel.reset(derive_seed(config.seed, {3, t}));
    const RecordedTrial trial =
        run_recorded_trial(experiment, std::move(schedule), channel, trial_seed);

    const double inefficiency =
        trial.decoded ? static_cast<double>(trial.n_needed) /
                            static_cast<double>(config.k)
                      : 0.0;
    estimator.observe_report(LossReport::from_events(trial.events));
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

AdaptiveComparePoint run_adaptive_compare_point(
    double p, double q, const AdaptiveCompareConfig& config) {
  ExperimentCache cache(config.k);
  return run_point(p, q, config, cache);
}

std::vector<AdaptiveComparePoint> run_adaptive_compare(
    const std::vector<std::pair<double, double>>& points,
    const AdaptiveCompareConfig& config) {
  // One Experiment cache for the whole sweep: the per-tuple plans/graphs
  // depend only on (tuple, k), not on the channel point.  The loop stays
  // serial (the shared cache is fill-order-sensitive) but still reports
  // per-point progress through the parallel-observer hook.
  ParallelObserver* const progress = parallel_observer();
  if (progress != nullptr) progress->on_batch(points.size());
  ExperimentCache cache(config.k);
  std::vector<AdaptiveComparePoint> out;
  out.reserve(points.size());
  for (const auto& [p, q] : points) {
    out.push_back(run_point(p, q, config, cache));
    if (progress != nullptr) progress->on_item_done();
  }
  return out;
}

}  // namespace fecsched
