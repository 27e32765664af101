// The unified scenario API (src/api/): one declarative spec and one
// runner in front of every experiment engine in the tree.
//
// The paper's core claim is that FEC performance is a *joint* function of
// code, scheduling and loss distribution.  PRs 1-4 grew four parallel
// entry points into that space — ExperimentConfig/run_trial (grid),
// StreamTrialConfig/run_stream_trial, MpathTrialConfig/run_mpath_trial,
// and the adaptive compare loop — each with its own config struct and
// hand-rolled driver.  A ScenarioSpec expresses any point (or axis sweep)
// of the joint space as data; run_scenario() resolves the names through
// api::registry() and dispatches to the right engine; every surface (CLI
// subcommands, sweeps, benches, examples) is a thin spec builder.
//
// Correctness contract: a spec that mirrors a legacy call produces the
// *bit-identical* result — same Rng streams, same seed derivations, same
// accumulation order.  tests/api_test.cc pins one oracle per engine and
// tools/ci.sh compares refactored CLI output byte-for-byte against
// tools/pinned/.
//
// Specs round-trip through JSON (to_json/from_json is a fixed point;
// unknown keys are rejected with the offending key path) so experiments
// are storable, diffable artifacts: `fecsched_cli run --spec=file.json`,
// `--dump-spec` on every engine subcommand.

#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "api/checkpoint.h"
#include "api/registry.h"
#include "mpath/mpath_trial.h"
#include "net/net_trial.h"
#include "obs/obs.h"
#include "sim/adaptive_compare.h"
#include "sim/experiment.h"
#include "sim/grid.h"
#include "sim/mpath_sweep.h"
#include "sim/stream_delay.h"

namespace fecsched::api {

// --------------------------------------------------------------- spec

/// Which FEC protection the scenario applies.  `name` resolves through
/// registry(): block codes for the grid/adaptive engines, streaming
/// schemes for stream/mpath; empty selects every default variant of the
/// engine (the CLI's "compare them all" mode).
struct CodeSpec {
  std::string name;
  double ratio = 2.5;          ///< FEC expansion ratio n/k (block engines)
  std::uint32_t k = 4000;      ///< object size in source packets
  double overhead = 0.25;      ///< streaming repair overhead (n-k)/k
  std::uint32_t window = 64;   ///< sliding window W / replication span
  std::uint32_t block_k = 64;  ///< sources per streaming RSE block
};

/// The loss process.  Either (p, q) directly or the recommendation-space
/// (p_global, mean_burst) coordinates; point() resolves to Gilbert (p, q).
struct ChannelSpec {
  std::string model = "gilbert";
  double p = 0.01;
  double q = 0.5;
  std::optional<double> p_global;
  std::optional<double> mean_burst;

  /// The resolved operating point ((p_global, mean_burst) wins when set).
  [[nodiscard]] ChannelPoint point() const;
};

/// Packet transmission order: a paper Tx model for the block engines and
/// a streaming schedule for the stream/mpath engines.
struct TxSpec {
  std::string model = "tx4";
  std::string stream = "sequential";
};

/// One path of a multipath topology.
struct PathEntry {
  double delay = 0.0;
  double capacity = 1.0;
};

/// Path topology + packet-to-path mapping.  Single runs list explicit
/// paths; sweeps generate `count` paths around base_delay (the
/// delay_spread sweep axis supplies the asymmetry).
struct PathsSpec {
  std::string scheduler;          ///< empty = compare all schedulers
  std::vector<PathEntry> list;    ///< explicit paths (single runs)
  std::uint32_t count = 2;        ///< generated paths (sweeps)
  double base_delay = 25.0;
  double capacity = 1.0;
  std::vector<double> repair_weights;  ///< kWeighted repair bias (optional)
};

/// Closed-loop adaptation knobs (adaptive engine; mpath warm-up loop).
struct AdaptSpec {
  bool enabled = false;
  std::uint32_t objects = 40;  ///< adaptive objects per point
  std::uint32_t warmup = 10;   ///< warm-up objects / probe trials
};

/// Execution shape shared by every engine.
struct RunSpec {
  std::uint32_t sources = 2000;  ///< stream length (stream/mpath)
  std::uint32_t trials = 8;
  std::uint64_t seed = 0;
  unsigned threads = 0;          ///< sweep workers; 0 = one per hw thread
};

/// Observability knobs (src/obs/): what run_scenario collects beyond the
/// engine result.  All off by default — and when off, results (text and
/// JSON) are byte-identical to a pre-obs build.  `trace` names a JSONL
/// output file; `trace_sample` keeps every Nth trial ordinal (1 = all).
/// `timeline` names a Chrome trace_event JSON output file; `counters`
/// reads hardware counters (perf_event_open) around each phase.
struct ObsSpec {
  bool metrics = false;
  bool profile = false;
  std::string trace;
  std::uint32_t trace_sample = 1;
  std::string timeline;
  bool counters = false;

  [[nodiscard]] bool enabled() const noexcept {
    return metrics || profile || !trace.empty() || !timeline.empty() ||
           counters;
  }
  /// The obs::Session config: profiling and tracing imply metrics (the
  /// profile report and the trace summary line both embed them), and the
  /// timeline/counter collectors ride on the profiling phase hooks.
  [[nodiscard]] obs::Config config() const noexcept {
    return {metrics, profile || !timeline.empty() || counters,
            !trace.empty(), trace_sample, !timeline.empty(), counters};
  }
  [[nodiscard]] bool operator==(const ObsSpec&) const = default;
};

/// Wire-replay knobs (net engine; src/net/).  The stream sub-specs still
/// define the FEC geometry — this section only shapes the transport.
struct NetSpec {
  std::string transport = "udp";     ///< registry transports: udp | memory
  std::uint32_t payload_bytes = 64;  ///< source symbol size on the wire
  std::uint32_t report_interval = 0; ///< reverse-path LossReport cadence
  std::uint32_t recv_timeout_ms = 2000;
  /// Cross-check every trial against its run_stream_trial twin (same
  /// seed, fresh channel) and count mismatching delay distributions.
  bool parity = true;
  /// Durable JSON dump of per-trial wire stats ("" = off).
  std::string dump;

  [[nodiscard]] bool operator==(const NetSpec&) const = default;
};

/// Per-axis sweep lists.  Empty = single-point run.  grid names a
/// built-in (p, q) grid ("paper", "fig7"); p/q give explicit axes.
struct SweepSpec {
  std::string grid;
  std::vector<double> p_values;
  std::vector<double> q_values;
  std::vector<double> p_globals;
  std::vector<double> bursts;
  std::vector<double> overheads;
  std::vector<double> delay_spreads;

  [[nodiscard]] bool empty() const noexcept {
    return grid.empty() && p_values.empty() && q_values.empty() &&
           p_globals.empty() && bursts.empty() && overheads.empty() &&
           delay_spreads.empty();
  }
};

/// One declarative scenario: engine + nested sub-specs + sweep axes.
struct ScenarioSpec {
  std::string engine = "grid";  ///< grid | stream | mpath | adaptive | net
  CodeSpec code;
  ChannelSpec channel;
  TxSpec tx;
  PathsSpec paths;
  AdaptSpec adapt;
  RunSpec run;
  SweepSpec sweep;
  ObsSpec obs;
  NetSpec net;

  /// Structural validation (names resolve, ranges hold).  Engine-level
  /// config validation still runs inside run_scenario.  Throws
  /// std::invalid_argument.
  void validate() const;

  /// Canonical JSON (2-space pretty form, fixed key order).  Serializing
  /// the parse of a serialized spec reproduces it byte-for-byte.
  [[nodiscard]] std::string to_json() const;

  /// Parse a spec document.  Unknown keys are rejected with the full key
  /// path; missing keys keep their defaults.  Throws std::invalid_argument.
  [[nodiscard]] static ScenarioSpec from_json(std::string_view text);
};

// ------------------------------------------------------------- result

/// Merged outcome of a streaming engine's trials for one variant:
/// in-order delivery delay and post-FEC residual-loss runs.  Transport/HOL
/// sums are weighted by each trial's delivered count so the documented
/// identity mean == mean_transport + mean_hol survives merging.
struct DelayOutcome {
  std::vector<double> delays;  ///< all delivered delays, sorted ascending
  std::uint64_t delivered = 0;
  std::uint64_t lost = 0;
  std::uint64_t residual_runs = 0;
  std::uint64_t residual_max_run = 0;
  double delay_sum = 0.0;
  double transport_sum = 0.0;  ///< per-trial mean x delivered, summed
  double hol_sum = 0.0;
  double overhead_actual_sum = 0.0;
  std::uint64_t packets_sent = 0;
  std::uint64_t packets_received = 0;
  std::uint32_t trials = 0;

  /// Fold one trial in.
  void add(const StreamTrialResult& r);
  /// Close the fold once every trial is in: sort `delays`.
  void finish();

  [[nodiscard]] double mean() const {
    return delays.empty() ? 0.0
                          : delay_sum / static_cast<double>(delays.size());
  }
  [[nodiscard]] double mean_transport() const {
    return delivered ? transport_sum / static_cast<double>(delivered) : 0.0;
  }
  [[nodiscard]] double mean_hol() const {
    return delivered ? hol_sum / static_cast<double>(delivered) : 0.0;
  }
  [[nodiscard]] double mean_residual_run() const {
    return residual_runs ? static_cast<double>(lost) /
                               static_cast<double>(residual_runs)
                         : 0.0;
  }
};

/// Merged per-variant outcome of a streaming scenario over all trials.
struct StreamOutcome : DelayOutcome {
  StreamVariant variant;
};

/// Merged per-scheduler outcome of a multipath scenario: the delay
/// outcome plus reordering and per-path aggregates.
struct MpathOutcome : DelayOutcome {
  MpathVariant variant;
  double reordered_fraction_sum = 0.0;
  std::vector<PathStats> paths;  ///< counters summed, means averaged

  /// Fold one trial in (per-path means are summed until finish()).
  void add(const MpathTrialResult& r);
  /// DelayOutcome::finish, and divide the summed per-path means by trials.
  void finish();
};

/// Aggregated wire-side counters of a net scenario (all trials), plus
/// the sim-vs-wire parity verdict the ci.sh net gate pins.
struct NetRunStats {
  std::uint64_t datagrams_sent = 0;
  std::uint64_t datagrams_dropped = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t sources_verified = 0;
  std::uint64_t payload_mismatches = 0;
  std::uint64_t frames_rejected = 0;
  std::uint64_t reports_received = 0;
  std::uint32_t parity_trials = 0;    ///< trials cross-checked vs the sim twin
  std::uint32_t parity_failures = 0;  ///< delay distributions that differed
  ChannelEstimate estimate;           ///< last trial's wire-fed estimate
};

/// What one scenario produced: the resolved point and run shape plus the
/// engine's full payload (exactly one engine section is populated).
struct ScenarioResult {
  std::string engine;
  double p = 0.0;  ///< resolved channel point
  double q = 1.0;
  std::uint32_t trials = 0;
  std::uint64_t seed = 0;

  // engine == "grid"
  std::optional<GridResult> grid;
  std::optional<ExperimentConfig> grid_config;

  // engine == "stream"
  std::vector<StreamOutcome> stream;
  std::optional<StreamTrialConfig> stream_base;

  // engine == "net" (stream outcomes reuse the `stream` vector — the net
  // engine produces the same per-variant delay aggregates, replayed over
  // real sockets)
  std::optional<NetRunStats> net;
  std::optional<fecsched::net::NetTrialConfig> net_base;

  // engine == "mpath"
  std::vector<MpathOutcome> mpath;
  std::optional<MpathTrialConfig> mpath_base;  ///< post-adaptation config
  std::vector<ChannelEstimate> mpath_estimates;  ///< adapt warm-up learning
  std::uint32_t mpath_warmup = 0;

  // engine == "adaptive"
  std::vector<AdaptiveComparePoint> adaptive;
  std::optional<AdaptiveCompareConfig> adaptive_config;

  /// Run provenance (always filled by run_scenario).
  obs::RunManifest manifest;
  /// Collected observations; engaged only when spec.obs.enabled().
  std::optional<obs::Report> obs;
};

/// Axis-sweep payloads: the engines' native sweep results, produced by
/// the existing sweep_points machinery so thread counts never change a
/// digit.
struct ScenarioSweepResult {
  std::string engine;
  std::vector<ChannelPoint> points;
  std::optional<GridResult> grid;
  std::optional<StreamGridResult> stream;
  std::optional<MpathSweepResult> mpath;
  std::vector<AdaptiveComparePoint> adaptive;

  obs::RunManifest manifest;         ///< run provenance (always filled)
  std::optional<obs::Report> obs;    ///< engaged only when spec.obs.enabled()
};

// ------------------------------------------------------------- runner

/// Execution controls orthogonal to scenario identity: they change *how*
/// a run executes (crash safety, hang protection), never *what* it
/// computes, so they live outside ScenarioSpec and do not participate in
/// the spec fingerprint — a checkpointed run and a plain run of the same
/// spec share a ledger baseline and produce byte-identical results.
struct RunControl {
  /// Grid engine only: persist per-cell shards / resume from them
  /// (api/checkpoint.h).  Any other engine rejects an enabled checkpoint
  /// with std::invalid_argument.
  CheckpointSpec checkpoint;
  /// Per-trial watchdog deadline in milliseconds (0 = off).  Grid cells
  /// that hit it count the trial as a failure and carry timed_out=true;
  /// the serial stream/mpath engines raise watchdog::TrialTimeout.  The
  /// adaptive engine and the stream/mpath axis sweeps reject a non-zero
  /// deadline (a silently dropped trial would corrupt their aggregates).
  std::uint32_t trial_timeout_ms = 0;
};

/// The obs-excluded spec fingerprint ("fnv1a:<16 hex>"): the identity the
/// run ledger, the regression sentinel and checkpoint shards all key by.
[[nodiscard]] std::string scenario_fingerprint(const ScenarioSpec& spec);

/// Run one scenario (single channel point for stream/mpath; the adaptive
/// engine's point grid and the grid engine's (p, q) grid count as one
/// scenario).  Dispatches on spec.engine after validate().  Throws
/// std::invalid_argument on an invalid spec.
[[nodiscard]] ScenarioResult run_scenario(const ScenarioSpec& spec);
[[nodiscard]] ScenarioResult run_scenario(const ScenarioSpec& spec,
                                          const RunControl& control);

/// Expand the spec's sweep axes over the parallel sweep machinery
/// (sweep_points, one worker per channel point): stream -> one cell per
/// (point, variant, overhead), mpath -> one per (point, delay spread,
/// scheduler, overhead), adaptive -> run_adaptive_compare, grid ->
/// Experiment::run.  Channel points are the cartesian product
/// p_globals x bursts (gilbert_point), in that nesting order.  An empty
/// sweep.overhead runs code.overhead, an empty sweep.delay_spread runs
/// spread 40.
[[nodiscard]] ScenarioSweepResult run_scenario_sweep(const ScenarioSpec& spec);
[[nodiscard]] ScenarioSweepResult run_scenario_sweep(
    const ScenarioSpec& spec, const RunControl& control);

/// The spec's resolved channel-point list (cartesian p_globals x bursts,
/// else the single channel point) — what run_scenario_sweep iterates.
[[nodiscard]] std::vector<ChannelPoint> sweep_channel_points(
    const ScenarioSpec& spec);

// Resolution helpers shared by the runner, the CLI and the benches; each
// throws std::invalid_argument on names that do not resolve.
[[nodiscard]] ExperimentConfig to_experiment_config(const ScenarioSpec& spec);
[[nodiscard]] StreamTrialConfig to_stream_config(const ScenarioSpec& spec);
[[nodiscard]] net::NetTrialConfig to_net_config(const ScenarioSpec& spec);
[[nodiscard]] MpathTrialConfig to_mpath_config(const ScenarioSpec& spec);
[[nodiscard]] AdaptiveCompareConfig to_adaptive_config(
    const ScenarioSpec& spec);
[[nodiscard]] GridSpec to_grid_spec(const ScenarioSpec& spec);

}  // namespace fecsched::api
