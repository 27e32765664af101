// run_scenario / run_scenario_sweep: the registry-driven dispatch from a
// declarative ScenarioSpec onto the grid, stream, net, mpath and adaptive
// engines.
//
// Bit-identity is the design constraint: each engine loop below consumes
// the exact Rng streams and seed derivations the legacy surface it
// replaced used (fecsched_cli subcommand loops, run_stream_delay_grid,
// run_mpath_sweep, Experiment::run), so a spec that mirrors a legacy call
// reproduces its result exactly.  Both entry points run the same engine
// code where they can: the adaptive engine is run_adaptive_compare over
// sweep_channel_points, and the grid engine is run_grid, with or without
// checkpoint shards.  Oracle tests and golden rows in tests/api_test.cc
// and the pinned-output gate in tools/ci.sh hold this line.

#include "api/scenario.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <thread>

#include "adapt/controller.h"
#include "api/json.h"
#include "gf/gf256_kernels.h"
#include "mpath/path_adapt.h"
#include "obs/memwatch.h"
#include "obs/timeline.h"
#include "util/durable_io.h"
#include "util/interrupt.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/watchdog.h"

namespace fecsched::api {

namespace {

// -------------------------------------------------------- observability

obs::RunManifest make_manifest(const ScenarioSpec& spec, double wall_seconds,
                               const std::string& started_at) {
  obs::RunManifest m;
  m.fingerprint = scenario_fingerprint(spec);
  m.version = std::string(kVersion);
  m.gf_backend = std::string(gf::to_string(gf::current_backend()));
  m.engine = spec.engine;
  m.threads = spec.run.threads;
  m.hardware_threads = std::thread::hardware_concurrency();
  m.wall_seconds = wall_seconds;
  m.started_at = started_at;
  m.hostname = obs::local_hostname();
  m.max_rss_kb = obs::max_rss_kb();
  // A drained run (SIGINT/SIGTERM arrived, engines wound down cleanly) is
  // marked so ledger readers never mistake its partial result for a
  // completed baseline.
  if (interrupt::interrupted()) m.status = "interrupted";
  return m;
}

/// Reject RunControl combinations an engine cannot honour faithfully —
/// better a loud error than a knob that silently changes semantics.
void validate_control(const ScenarioSpec& spec, const RunControl& control,
                      bool sweeping) {
  if (control.checkpoint.enabled() && spec.engine != "grid")
    throw std::invalid_argument(
        "checkpoint: only the grid engine persists per-cell shards (engine "
        "'" +
        spec.engine + "' has no cell decomposition to checkpoint)");
  if (control.trial_timeout_ms != 0) {
    if (spec.engine == "adaptive")
      throw std::invalid_argument(
          "trial-timeout: the adaptive engine runs closed-loop object "
          "sequences, not independent trials — a per-trial watchdog is "
          "unsupported");
    if (sweeping && spec.engine != "grid")
      throw std::invalid_argument(
          "trial-timeout: the " + spec.engine +
          " axis sweep has no per-cell timeout status — dropping a trial "
          "would silently corrupt its aggregates (grid sweeps and "
          "single-point runs only)");
  }
}

/// Fill the manifest, merge the session's observations (when armed) and
/// write the trace file.  Called after the engine joined its workers.
void finish_observability(const ScenarioSpec& spec, obs::Session& session,
                          std::chrono::steady_clock::time_point t0,
                          const std::string& started_at,
                          obs::RunManifest& manifest,
                          std::optional<obs::Report>& out) {
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  manifest = make_manifest(spec, wall, started_at);
  if (!session.active()) return;
  obs::Report report = session.finish();
  if (!spec.obs.trace.empty())
    obs::write_trace_file(
        spec.obs.trace,
        obs::manifest_to_trace_line(manifest, spec.obs.trace_sample),
        report.events, report.metrics);
  if (!spec.obs.timeline.empty())
    obs::write_timeline_file(spec.obs.timeline, manifest, report);
  out = std::move(report);
}

GridRunOptions to_grid_options(const ScenarioSpec& spec,
                               const RunControl& control) {
  GridRunOptions opt;
  opt.trials_per_cell = spec.run.trials;
  opt.master_seed = spec.run.seed;
  opt.threads = spec.run.threads;
  opt.trial_timeout_ms = control.trial_timeout_ms;
  return opt;
}

/// The resolved channel point and run shape every engine's result starts
/// from.
ScenarioResult result_header(const ScenarioSpec& spec) {
  ScenarioResult result;
  result.engine = spec.engine;
  const ChannelPoint pt = spec.channel.point();
  result.p = pt.p;
  result.q = pt.q;
  result.trials = spec.run.trials;
  result.seed = spec.run.seed;
  return result;
}

// ---------------------------------------------------------------- grid

/// The grid engines' one sweep call, with the shard hooks armed when a
/// checkpoint directory is configured: restored cells are skipped, the
/// rest keep run_grid's seeds, so resuming never changes a digit.
GridResult run_grid_result(const ScenarioSpec& spec, const RunControl& control,
                           const Experiment& experiment) {
  GridRunOptions options = to_grid_options(spec, control);
  if (control.checkpoint.enabled())
    attach_checkpoint(options, control.checkpoint, scenario_fingerprint(spec));
  return experiment.run(to_grid_spec(spec), options);
}

ScenarioResult run_grid_engine(const ScenarioSpec& spec,
                               const RunControl& control) {
  ScenarioResult result = result_header(spec);
  const ExperimentConfig cfg = to_experiment_config(spec);
  result.grid_config = cfg;
  result.grid = run_grid_result(spec, control, Experiment(cfg));
  return result;
}

// ------------------------------------------------------ serial engines

/// The serial engines' one trial loop: `count` trials under the trial
/// ordinals first, first + 1, ..., each bounded by the watchdog deadline
/// and counted by one progress tick.  An interrupt drains it before the
/// next trial.  The caller announces its total up front so the progress
/// ETA has a denominator.
template <typename Trial>
void run_serial_trials(std::uint32_t count, std::uint64_t first,
                       const RunControl& control, Trial&& trial) {
  ParallelObserver* const progress = parallel_observer();
  for (std::uint32_t t = 0; t < count; ++t) {
    if (interrupt::interrupted()) break;
    const obs::TrialScope trial_scope(first + t);
    const watchdog::TrialGuard deadline(control.trial_timeout_ms);
    trial(t);
    if (progress != nullptr) progress->on_item_done();
  }
}

/// One merged outcome per variant, variant after variant: trial t of
/// variant v runs under ordinal v * trials + t, and `trial(v, t)` returns
/// what Outcome::add folds in.  An interrupt keeps the variants begun.
template <typename Outcome, typename Variant, typename Trial>
std::vector<Outcome> run_variants(const std::vector<Variant>& variants,
                                  std::uint32_t trials,
                                  const RunControl& control, Trial&& trial) {
  std::vector<Outcome> outcomes;
  for (std::size_t v = 0; v < variants.size(); ++v) {
    if (interrupt::interrupted()) break;
    Outcome& outcome = outcomes.emplace_back();
    outcome.variant = variants[v];
    run_serial_trials(trials, std::uint64_t{v} * trials, control,
                      [&](std::uint32_t t) { outcome.add(trial(v, t)); });
    outcome.finish();
  }
  return outcomes;
}

void announce_trials(std::uint64_t total) {
  if (ParallelObserver* const progress = parallel_observer())
    progress->on_batch(total);
}

/// The single-point stream/mpath engines merge every trial's full delay
/// distribution (the CLI's histogram output), so they carry the CLI's
/// historical memory guard — and they cannot honour axis sweep lists, so
/// a populated sweep section is an error here, not a silent no-op.
void check_single_point_spec(const ScenarioSpec& spec) {
  if (!spec.sweep.empty())
    throw std::invalid_argument(
        "spec: sweep axes are set but engine '" + spec.engine +
        "' runs a single point under run_scenario — use "
        "run_scenario_sweep (there is no CLI sweep surface for this "
        "engine yet; drop the \"sweep\" section to run one point)");
  if (static_cast<std::uint64_t>(spec.run.sources) * spec.run.trials >
      20000000)
    throw std::invalid_argument(
        "--sources x --trials must not exceed 20000000 (the full delay "
        "distribution is held in memory)");
}

// -------------------------------------------------------------- stream

std::vector<StreamVariant> stream_variants(const ScenarioSpec& spec) {
  if (spec.code.name.empty()) return StreamGridConfig::default_variants();
  const StreamScheme scheme = registry().stream_scheme(spec.code.name);
  const StreamScheduling sched = registry().stream_scheduling(spec.tx.stream);
  return {{std::string(to_string(scheme)), scheme, sched}};
}

ScenarioResult run_stream_engine(const ScenarioSpec& spec,
                                 const RunControl& control) {
  check_single_point_spec(spec);
  ScenarioResult result = result_header(spec);
  const StreamTrialConfig base = to_stream_config(spec);
  result.stream_base = base;
  const std::vector<StreamVariant> variants = stream_variants(spec);
  // Validate every variant before running any trial.
  std::vector<StreamTrialConfig> configs;
  for (const StreamVariant& v : variants) {
    StreamTrialConfig& cfg = configs.emplace_back(base);
    cfg.scheme = v.scheme;
    cfg.scheduling = v.scheduling;
    cfg.validate();
  }

  announce_trials(variants.size() * spec.run.trials);
  result.stream = run_variants<StreamOutcome>(
      variants, spec.run.trials, control, [&](std::size_t v, std::uint32_t t) {
        const auto channel =
            registry().make_channel(spec.channel.model, {result.p, result.q});
        return run_stream_trial(configs[v], *channel,
                                derive_seed(spec.run.seed, {v, t}));
      });
  return result;
}

// ----------------------------------------------------------------- net

/// The wire twin of run_stream_engine: the same serial trial loop, but
/// every trial crosses a real transport via run_net_trial.  When
/// spec.net.parity is on (the default), each trial is re-run through
/// run_stream_trial with the same seed and a fresh channel, and any
/// divergence in the delivered-delay distribution is counted — the
/// sim-vs-wire parity contract is tolerance ZERO.
ScenarioResult run_net_engine(const ScenarioSpec& spec,
                              const RunControl& control) {
  check_single_point_spec(spec);
  ScenarioResult result = result_header(spec);
  const net::NetTrialConfig base = to_net_config(spec);
  base.validate();
  result.net_base = base;
  result.stream_base = base.stream;
  NetRunStats stats;
  Json dump_trials = Json::array();

  announce_trials(spec.run.trials);
  StreamOutcome& outcome = result.stream.emplace_back();
  outcome.variant = {std::string(to_string(base.stream.scheme)),
                     base.stream.scheme, base.stream.scheduling};
  run_serial_trials(spec.run.trials, 0, control, [&](std::uint32_t t) {
    const std::uint64_t seed = derive_seed(spec.run.seed, {0, t});
    const auto channel =
        registry().make_channel(spec.channel.model, {result.p, result.q});
    const net::NetTrialResult r =
        net::run_net_trial(base, *channel, seed, /*object_id=*/t);
    const StreamTrialResult& sr = r.stream;
    outcome.add(sr);

    stats.datagrams_sent += r.datagrams_sent;
    stats.datagrams_dropped += r.datagrams_dropped;
    stats.bytes_sent += r.bytes_sent;
    stats.sources_verified += r.sources_verified;
    stats.payload_mismatches += r.payload_mismatches;
    stats.frames_rejected += r.frames_rejected;
    stats.reports_received += r.reports_received;
    stats.estimate = r.estimate;

    if (spec.net.parity) {
      // The twin consumes the exact channel substream the wire run drew
      // (fresh model, same seed), so every field must match exactly.
      const auto twin =
          registry().make_channel(spec.channel.model, {result.p, result.q});
      const StreamTrialResult sim =
          run_stream_trial(base.stream, *twin, seed);
      ++stats.parity_trials;
      const bool equal = sim.delays == sr.delays &&
                         sim.delay.delivered == sr.delay.delivered &&
                         sim.residual.lost == sr.residual.lost &&
                         sim.packets_sent == sr.packets_sent &&
                         sim.packets_received == sr.packets_received &&
                         sim.all_delivered == sr.all_delivered;
      if (!equal) ++stats.parity_failures;
    }

    if (!spec.net.dump.empty()) {
      Json entry = Json::object();
      entry.set("trial", Json::integer(t));
      entry.set("seed", Json::integer(seed));
      entry.set("datagrams_sent", Json::integer(r.datagrams_sent));
      entry.set("datagrams_dropped", Json::integer(r.datagrams_dropped));
      entry.set("bytes_sent", Json::integer(r.bytes_sent));
      entry.set("sources_verified", Json::integer(r.sources_verified));
      entry.set("payload_mismatches", Json::integer(r.payload_mismatches));
      entry.set("frames_rejected", Json::integer(r.frames_rejected));
      entry.set("reports_received", Json::integer(r.reports_received));
      entry.set("residual_lost", Json::integer(sr.residual.lost));
      entry.set("all_delivered", Json(sr.all_delivered));
      dump_trials.push_back(std::move(entry));
    }
  });
  outcome.finish();
  result.net = stats;

  if (!spec.net.dump.empty()) {
    // Through durable::write_file, so the artifact rides the same
    // atomic-rename discipline (and "durable.write" fault point) as every
    // other whole-file artifact.
    Json root = Json::object();
    root.set("engine", Json(std::string("net")));
    root.set("transport", Json(base.transport));
    root.set("fingerprint", Json(scenario_fingerprint(spec)));
    root.set("trials", std::move(dump_trials));
    durable::write_file(spec.net.dump, root.dump(2));
  }
  return result;
}

// --------------------------------------------------------------- mpath

std::vector<MpathVariant> mpath_variants(const ScenarioSpec& spec) {
  if (spec.paths.scheduler.empty()) return MpathSweepConfig::default_variants();
  const PathScheduling mode = registry().path_scheduler(spec.paths.scheduler);
  return {{std::string(to_string(mode)), mode}};
}

ScenarioResult run_mpath_engine(const ScenarioSpec& spec,
                                const RunControl& control) {
  check_single_point_spec(spec);
  ScenarioResult result = result_header(spec);
  MpathTrialConfig base = to_mpath_config(spec);
  if (base.paths.empty())
    throw std::invalid_argument("mpath scenario needs at least one path");
  const std::vector<MpathVariant> variants = mpath_variants(spec);
  for (const MpathVariant& v : variants) {
    MpathTrialConfig cfg = base;
    cfg.scheduler = v.scheduler;
    cfg.validate();
  }

  // Warm-up probes count as trials too.
  const std::uint64_t measured =
      std::uint64_t{variants.size()} * spec.run.trials;
  announce_trials(measured + (spec.adapt.enabled ? spec.adapt.warmup : 0));
  // Every probe and measured trial runs in one workspace (the trials are
  // serial; reuse saves allocations and changes no output).
  MpathTrialWorkspace ws;

  if (spec.adapt.enabled) {
    // Warm up a PathAdapter on round-robin probe trials (every path sees
    // traffic), then let src/adapt/ pick repair weights and the window.
    // Probe ordinals continue past the measured trials so their trace
    // events are distinguishable.
    PathAdapter adapter(base.paths.size());
    MpathTrialConfig probe = base;
    probe.scheduler = PathScheduling::kRoundRobin;
    run_serial_trials(spec.adapt.warmup, measured, control,
                      [&](std::uint32_t t) {
                        adapter.observe(run_mpath_trial(
                            probe, derive_seed(spec.run.seed, {99, t}), ws));
                      });
    AdaptiveController controller;
    adapter.apply(base, controller);
    if (obs::Observer* o = obs::current(); o != nullptr)
      o->instant("adapt.apply");
    result.mpath_estimates = adapter.estimates();
    result.mpath_warmup = spec.adapt.warmup;
  }

  std::vector<MpathTrialConfig> configs;
  for (const MpathVariant& v : variants)
    configs.emplace_back(base).scheduler = v.scheduler;
  result.mpath = run_variants<MpathOutcome>(
      variants, spec.run.trials, control, [&](std::size_t v, std::uint32_t t) {
        return run_mpath_trial(configs[v], derive_seed(spec.run.seed, {v, t}),
                               ws);
      });
  result.mpath_base = std::move(base);
  return result;
}

// ------------------------------------------------------------ adaptive

/// Every channel point of the spec (sweep_channel_points), run in
/// parallel over spec.run.threads.
ScenarioResult run_adaptive_engine(const ScenarioSpec& spec) {
  ScenarioResult result = result_header(spec);
  result.adaptive_config = to_adaptive_config(spec);
  result.adaptive = run_adaptive_compare(
      sweep_channel_points(spec), *result.adaptive_config, spec.run.threads);
  return result;
}

ScenarioSweepResult run_scenario_sweep_engines(const ScenarioSpec& spec,
                                               const RunControl& control);

}  // namespace

void DelayOutcome::add(const StreamTrialResult& r) {
  delays.insert(delays.end(), r.delays.begin(), r.delays.end());
  delivered += r.delay.delivered;
  lost += r.residual.lost;
  residual_runs += r.residual.runs;
  residual_max_run = std::max(residual_max_run, r.residual.max_run_length);
  const auto weight = static_cast<double>(r.delay.delivered);
  delay_sum += r.delay.mean * weight;
  transport_sum += r.delay.mean_transport * weight;
  hol_sum += r.delay.mean_hol * weight;
  overhead_actual_sum += r.overhead_actual;
  packets_sent += r.packets_sent;
  packets_received += r.packets_received;
  ++trials;
}

void DelayOutcome::finish() { sort_doubles(delays); }

void MpathOutcome::add(const MpathTrialResult& r) {
  DelayOutcome::add(r.stream);
  reordered_fraction_sum += r.reordered_fraction;
  if (paths.empty()) {
    paths = r.paths;
    return;
  }
  for (std::size_t i = 0; i < r.paths.size(); ++i) {
    paths[i].sent += r.paths[i].sent;
    paths[i].lost += r.paths[i].lost;
    paths[i].mean_queue_wait += r.paths[i].mean_queue_wait;
    paths[i].mean_transit += r.paths[i].mean_transit;
  }
}

void MpathOutcome::finish() {
  DelayOutcome::finish();
  for (PathStats& path : paths) {
    path.mean_queue_wait /= static_cast<double>(trials);
    path.mean_transit /= static_cast<double>(trials);
  }
}

std::string scenario_fingerprint(const ScenarioSpec& spec) {
  // Hash the spec with the obs section reset to defaults so
  // --metrics/--trace/--ledger never change which baseline a run compares
  // against in the cross-run ledger (or which shards a resume loads).
  ScenarioSpec identity = spec;
  identity.obs = ObsSpec{};
  return obs::spec_fingerprint(identity.to_json());
}

ScenarioResult run_scenario(const ScenarioSpec& spec) {
  return run_scenario(spec, RunControl{});
}

ScenarioResult run_scenario(const ScenarioSpec& spec,
                            const RunControl& control) {
  spec.validate();
  validate_control(spec, control, /*sweeping=*/false);
  const auto t0 = std::chrono::steady_clock::now();
  const std::string started_at =
      obs::iso8601_utc(std::chrono::system_clock::now());
  obs::Session session(spec.obs.config());
  ScenarioResult result = [&] {
    if (spec.engine == "grid") return run_grid_engine(spec, control);
    if (spec.engine == "stream") return run_stream_engine(spec, control);
    if (spec.engine == "mpath") return run_mpath_engine(spec, control);
    if (spec.engine == "adaptive") return run_adaptive_engine(spec);
    if (spec.engine == "net") return run_net_engine(spec, control);
    throw std::invalid_argument("spec: unknown engine '" + spec.engine + "'");
  }();
  finish_observability(spec, session, t0, started_at, result.manifest,
                       result.obs);
  return result;
}

ScenarioSweepResult run_scenario_sweep(const ScenarioSpec& spec) {
  return run_scenario_sweep(spec, RunControl{});
}

ScenarioSweepResult run_scenario_sweep(const ScenarioSpec& spec,
                                       const RunControl& control) {
  spec.validate();
  validate_control(spec, control, /*sweeping=*/true);
  const auto t0 = std::chrono::steady_clock::now();
  const std::string started_at =
      obs::iso8601_utc(std::chrono::system_clock::now());
  obs::Session session(spec.obs.config());
  ScenarioSweepResult result = run_scenario_sweep_engines(spec, control);
  finish_observability(spec, session, t0, started_at, result.manifest,
                       result.obs);
  return result;
}

namespace {

ScenarioSweepResult run_scenario_sweep_engines(const ScenarioSpec& spec,
                                               const RunControl& control) {
  ScenarioSweepResult result;
  result.engine = spec.engine;

  if (spec.engine == "grid") {
    const ExperimentConfig cfg = to_experiment_config(spec);
    const Experiment experiment(cfg);
    result.grid = run_grid_result(spec, control, experiment);
    result.points = grid_points(result.grid->spec);
    return result;
  }

  if (spec.engine == "net")
    throw std::invalid_argument(
        "spec: the net engine runs single loopback points only — axis "
        "sweeps would re-bind sockets per cell for no measurement gain "
        "(drop the sweep section, or sweep the 'stream' twin)");

  // Every axis sweep draws its points from GilbertModel.
  if (spec.channel.model != "gilbert")
    throw std::invalid_argument(
        "spec: the " + spec.engine + " axis sweep draws Gilbert channels "
        "only — channel.model '" + spec.channel.model +
        "' would be ignored (drop the sweep section to run one point)");

  result.points = sweep_channel_points(spec);
  const std::vector<double> overheads = spec.sweep.overheads.empty()
                                            ? std::vector<double>{spec.code.overhead}
                                            : spec.sweep.overheads;

  if (spec.engine == "stream") {
    StreamGridConfig cfg;
    cfg.base = to_stream_config(spec);
    cfg.overheads = overheads;
    if (!spec.code.name.empty()) cfg.variants = stream_variants(spec);
    result.stream = run_stream_delay_grid(result.points, cfg,
                                          to_grid_options(spec, control));
    return result;
  }

  if (spec.engine == "mpath") {
    // The axis sweep generates its path topology (count/base_delay +
    // the delay_spread axis) and has no warm-up phase; honouring only
    // part of an explicit-paths or adapt-enabled spec would silently
    // change its semantics, so reject those outright.
    if (spec.adapt.enabled)
      throw std::invalid_argument(
          "spec: adapt.enabled is not supported by the mpath axis sweep "
          "(warm-up adaptation is a single-point feature — drop the sweep "
          "section or adapt.enabled)");
    if (!spec.paths.list.empty())
      throw std::invalid_argument(
          "spec: the mpath axis sweep generates its paths from "
          "paths.count/base_delay/capacity and the delay_spread axis — "
          "explicit paths.list entries would be ignored");
    MpathSweepConfig cfg;
    cfg.base = to_stream_config(spec);
    cfg.overheads = overheads;
    if (!spec.sweep.delay_spreads.empty())
      cfg.delay_spreads = spec.sweep.delay_spreads;
    cfg.base_delay = spec.paths.base_delay;
    cfg.path_count = spec.paths.count;
    cfg.path_capacity = spec.paths.capacity;
    if (!spec.paths.scheduler.empty()) cfg.variants = mpath_variants(spec);
    result.mpath =
        run_mpath_sweep(result.points, cfg, to_grid_options(spec, control));
    return result;
  }

  if (spec.engine == "adaptive") {
    result.adaptive = run_adaptive_compare(
        result.points, to_adaptive_config(spec), spec.run.threads);
    return result;
  }

  throw std::invalid_argument("spec: unknown engine '" + spec.engine + "'");
}

}  // namespace

}  // namespace fecsched::api
