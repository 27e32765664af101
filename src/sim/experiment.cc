#include "sim/experiment.h"

#include <cmath>
#include <stdexcept>

#include "channel/gilbert.h"
#include "fec/block_partition.h"
#include "fec/ldgm.h"
#include "fec/replication.h"
#include "sched/rx_model.h"
#include "util/parallel.h"
#include "sched/tx_models.h"
#include "sim/tracker.h"
#include "util/rng.h"

namespace fecsched {

namespace {

// Seed-path tags keeping the schedule, channel and graph streams apart.
constexpr std::uint64_t kTagSchedule = 1;
constexpr std::uint64_t kTagChannel = 2;
constexpr std::uint64_t kTagGraphPick = 3;

/// The experiment's graph_count LDGM graphs, graph g seeded from
/// (code_seed, g).
std::vector<std::shared_ptr<const LdgmCode>> ldgm_graphs(
    const ExperimentConfig& config) {
  if (config.graph_count == 0)
    throw std::invalid_argument("ExperimentConfig: graph_count >= 1");
  if (!(config.expansion_ratio > 1.0))
    throw std::invalid_argument("ExperimentConfig: LDGM needs ratio > 1");
  LdgmParams params;
  params.k = config.k;
  params.n = static_cast<std::uint32_t>(
      std::llround(config.expansion_ratio * config.k));
  params.variant = ldgm_variant(config.code);
  params.left_degree = config.left_degree;
  params.triangle_extra_per_row = config.triangle_extra_per_row;
  std::vector<std::shared_ptr<const LdgmCode>> graphs;
  graphs.reserve(config.graph_count);
  for (std::uint32_t g = 0; g < config.graph_count; ++g) {
    params.seed = derive_seed(config.code_seed, {g});
    graphs.push_back(std::make_shared<const LdgmCode>(params));
  }
  return graphs;
}

}  // namespace

struct Experiment::State {
  std::shared_ptr<const RsePlan> rse_plan;
  std::shared_ptr<const ReplicationPlan> repl_plan;
  std::vector<std::shared_ptr<const LdgmCode>> graphs;

  [[nodiscard]] const PacketPlan& plan_for(std::uint64_t graph_pick) const {
    if (rse_plan) return *rse_plan;
    if (repl_plan) return *repl_plan;
    return *graphs[graph_pick % graphs.size()];
  }
};

Experiment::Experiment(const ExperimentConfig& config) : config_(config) {
  auto state = std::make_shared<State>();
  switch (config.code) {
    case CodeKind::kRse:
      state->rse_plan = std::make_shared<const RsePlan>(
          config.k, config.expansion_ratio, config.max_block_n);
      n_total_ = state->rse_plan->n();
      break;
    case CodeKind::kReplication:
      state->repl_plan = std::make_shared<const ReplicationPlan>(
          config.k, config.replication_copies);
      n_total_ = state->repl_plan->n();
      break;
    default:
      state->graphs = ldgm_graphs(config);
      n_total_ = state->graphs.front()->n();
      break;
  }
  state_ = std::move(state);
}

std::vector<PacketId> Experiment::new_schedule(std::uint64_t seed) const {
  const std::uint64_t graph_pick = derive_seed(seed, {kTagGraphPick});
  const PacketPlan& plan = state_->plan_for(graph_pick);
  Rng sched_rng(derive_seed(seed, {kTagSchedule}));
  std::vector<PacketId> schedule =
      make_schedule(plan, config_.tx, sched_rng, {config_.tx6_source_fraction});
  if (config_.n_sent != 0)
    schedule = truncate_schedule(std::move(schedule), config_.n_sent);
  return schedule;
}

std::unique_ptr<ErasureTracker> Experiment::new_tracker(
    std::uint64_t seed) const {
  if (state_->rse_plan)
    return std::make_unique<RseTracker>(state_->rse_plan);
  if (state_->repl_plan)
    return std::make_unique<ReplicationTracker>(state_->repl_plan);
  const std::uint64_t graph_pick = derive_seed(seed, {kTagGraphPick});
  return std::make_unique<LdgmTracker>(
      state_->graphs[graph_pick % state_->graphs.size()], config_.ge_fallback);
}

TrialResult Experiment::run_once(double p, double q, std::uint64_t seed) const {
  // Per-worker-thread trial workspace: the schedule buffer and the
  // trackers are reused across trials of the same experiment state
  // (trackers are reset(), schedules rebuilt in place), so grid sweeps
  // stop allocating per trial.  LDGM experiments rotate across
  // graph_count distinct graphs, so one tracker is cached per graph
  // index — otherwise rotation would evict the cache almost every trial.
  // Holding a shared_ptr to the state pins its address, so the cache key
  // can never alias a different experiment's plan.
  struct RunWorkspace {
    std::shared_ptr<const void> state;
    std::vector<std::unique_ptr<ErasureTracker>> trackers;  // by graph index
    std::vector<PacketId> schedule;
  };
  thread_local RunWorkspace ws;

  // Per-trial observability hook (src/obs/): dormant unless a session is
  // armed, in which case the schedule/encode work is phase-timed and the
  // replay runs through the instrumented run_trial overload.
  const obs::Hook hook;

  const std::uint64_t graph_pick = derive_seed(seed, {kTagGraphPick});
  const PacketPlan& plan = state_->plan_for(graph_pick);
  Rng sched_rng(derive_seed(seed, {kTagSchedule}));
  hook.timed(obs::Phase::kSchedule, [&] {
    make_schedule(plan, config_.tx, sched_rng, ws.schedule,
                  {config_.tx6_source_fraction});
  });
  if (config_.n_sent != 0 && config_.n_sent < ws.schedule.size())
    ws.schedule.resize(config_.n_sent);

  if (ws.state.get() != state_.get()) {
    ws.trackers.clear();
    ws.state = state_;
  }
  const std::size_t graph_index =
      state_->graphs.empty()
          ? 0
          : static_cast<std::size_t>(graph_pick % state_->graphs.size());
  if (ws.trackers.size() <= graph_index) ws.trackers.resize(graph_index + 1);
  std::unique_ptr<ErasureTracker>& tracker = ws.trackers[graph_index];
  if (tracker == nullptr)
    tracker = hook.timed(obs::Phase::kEncode, [&] { return new_tracker(seed); });
  else
    hook.timed(obs::Phase::kEncode, [&] { tracker->reset(); });

  GilbertModel channel(p, q);
  channel.reset(derive_seed(seed, {kTagChannel}));
  if (hook.engaged())
    return run_trial(*tracker, ws.schedule, channel, config_.k, hook);
  return run_trial(*tracker, ws.schedule, channel);
}

TrialFn Experiment::trial_fn() const {
  // Copy `this`'s shared state into the closure so the Experiment object
  // itself need not outlive the returned function.
  Experiment self = *this;
  return [self](double p, double q, std::uint64_t seed) {
    return self.run_once(p, q, seed);
  };
}

GridResult Experiment::run(const GridSpec& spec,
                           const GridRunOptions& options) const {
  return run_grid(spec, config_.k, trial_fn(), options);
}

std::vector<RxModelPoint> run_rx_model1_series(
    const ExperimentConfig& config,
    const std::vector<std::uint32_t>& source_counts, std::uint32_t trials,
    std::uint64_t master_seed, unsigned threads) {
  const std::vector<std::shared_ptr<const LdgmCode>> graphs =
      ldgm_graphs(config);

  std::vector<RxModelPoint> series(source_counts.size());
  // Per-point seeds are (master_seed, point, trial), and each point is
  // processed whole by one worker, so the series is bit-identical for any
  // thread count (the run_grid contract).
  const auto run_point = [&](std::size_t i) {
    RxModelPoint& point = series[i];
    point.source_count = source_counts[i];
    for (std::uint32_t t = 0; t < trials; ++t) {
      const std::uint64_t seed = derive_seed(master_seed, {i, t});
      const auto& code = graphs[t % graphs.size()];
      Rng rng(derive_seed(seed, {kTagSchedule}));
      const std::vector<PacketId> seq =
          make_rx_model1_sequence(*code, point.source_count, rng);
      PerfectChannel channel;
      LdgmTracker tracker(code, config.ge_fallback);
      point.add(run_trial(tracker, seq, channel), config.k);
    }
  };
  parallel_for_index(source_counts.size(), threads, run_point);
  return series;
}

}  // namespace fecsched
