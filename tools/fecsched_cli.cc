// fecsched command-line interface: run the paper's experiments and the
// Sec. 6 planning machinery without writing code.
//
// Every experiment subcommand is a thin builder of an api::ScenarioSpec
// (src/api/): flags map onto the declarative spec, api::run_scenario()
// dispatches to the right engine, and the printers below render the
// unified ScenarioResult.  Any subcommand invocation can therefore be
// captured as a JSON document (--dump-spec) and replayed byte-for-byte
// with `fecsched_cli run --spec=file.json`.
//
//   fecsched_cli sweep     --code=ldgm-triangle --tx=4 --ratio=2.5
//                          [--k=4000 --trials=30 --seed=N]
//       Sweep the paper's 14x14 (p, q) grid and print the appendix-style
//       inefficiency table for one (code, scheduling, ratio) tuple.
//
//   fecsched_cli plan      --p=0.0109 --q=0.7915 [--bytes=50000000]
//                          [--payload=1024 --k=4000 --trials=20]
//       Evaluate every candidate tuple at a known channel point, pick the
//       best one, and compute the optimal n_sent (Eq. 3) for an object.
//
//   fecsched_cli universal [--k=4000 --trials=10]
//       Rank candidate tuples over the whole grid by worst-case behaviour
//       (the Sec. 6.2.2 unknown-channel recommendation, computed).
//
//   fecsched_cli limits    [--ratio=1.5 --ratio=2.5]
//       Print the Fig. 6 fundamental decoding limits.
//
//   fecsched_cli fit       --trace=<file>
//       Fit Gilbert (p, q) to a loss trace ('0'/'.' ok, '1'/'x'/'X' lost,
//       whitespace ignored); any other character exits 2 naming it.
//
//   fecsched_cli adapt     [--pglobal=0.05 --pglobal=0.1 ... --burst=1 ...]
//                          [--p=P --q=Q] [--k=2000 --objects=40 --warmup=10]
//                          [--seed=N] [--json]
//       Run the adaptive controller against every static candidate tuple
//       on a Gilbert grid (src/adapt/ closed loop).  --p/--q select a
//       single channel point instead of the (p_global x burst) grid.
//       --json emits the full machine-readable trajectory so benchmark
//       runs can be diffed across PRs.
//
//   fecsched_cli stream    [--p=P --q=Q | --pglobal=PG --burst=B]
//                          [--scheme=sliding|rse|ldgm|replication]
//                          [--sched=seq|interleaved|carousel]
//                          [--overhead=0.25 --window=64 --blockk=64]
//                          [--sources=2000 --trials=8 --seed=N] [--json]
//       Streaming workload (src/stream/): in-order delivery-delay and
//       residual-loss-burstiness comparison at one Gilbert channel point.
//       Without --scheme every default variant runs; --json emits the
//       full merged delay distribution (integer-slot histogram) per
//       variant.
//
//   fecsched_cli net       [--p=P --q=Q | --pglobal=PG --burst=B]
//                          [--scheme=... --sched=...] [--transport=udp|memory]
//                          [--payload-bytes=64] [--report-interval=N]
//                          [--no-parity] [--net-dump=<file.json>]
//                          [--overhead=0.25 --window=64 --blockk=64]
//                          [--sources=2000 --trials=4 --seed=N] [--json]
//       One streaming variant replayed over a real datagram transport
//       (src/net/): every surviving symbol is packed into a versioned
//       wire frame, crosses a loopback socket, and is parsed back before
//       decoding.  Losses come from the same channel model substream the
//       simulation would draw, so the delivered-delay distribution
//       matches `stream` EXACTLY — the parity cross-check re-runs every
//       trial through the simulator and counts divergences (exit 1 on
//       any).  Payloads are byte-verified against ground truth;
//       receiver-side LossReports return over the wire into a live
//       ChannelEstimator (the src/adapt/ loop, closed for real).
//
//   fecsched_cli mpath     [--p=P --q=Q | --pglobal=PG --burst=B]
//                          [--delay=D ...] [--capacity=C ...]
//                          [--scheduler=rr|weighted|split|earliest]
//                          [--scheme=sliding|rse|ldgm|replication]
//                          [--sched=seq|interleaved] [--adapt --warmup=5]
//                          [--overhead=0.25 --window=64 --blockk=64]
//                          [--sources=2000 --trials=8 --seed=N] [--json]
//       Multipath workload (src/mpath/): the stream spread over one path
//       per --delay (default 5 and 45 slots; --capacity repeats
//       per-path, default 1.0), every path running an independent copy
//       of the Gilbert point.  Without --scheduler every packet-to-path
//       mapping runs.  --adapt closes the per-path loop: a PathAdapter
//       learns each path from warm-up trials, then repair weights and
//       the window come from src/adapt/.  --json emits per-scheduler
//       delay histograms, per-path stats and reordering.
//
//   fecsched_cli run       --spec=<file.json | -> [--json] [--dump-spec]
//       Execute a stored scenario spec (the document --dump-spec emits).
//       --spec=- reads the document from stdin; parse errors then report
//       "<stdin>:line:col".
//
//   fecsched_cli history   --ledger=<file.jsonl> [--ledger=... ...]
//                          [--spec=<fingerprint-prefix>] [--engine=E]
//                          [--gf=B] [--kind=run|bench] [--compact]
//       List run-ledger records (obs/ledger.h) merged from every shard
//       given, in canonical compacted order.  --compact prints the
//       canonical JSONL instead of the table — shard merging is
//       `history --ledger=a --ledger=b --compact > merged.jsonl`.
//
//   fecsched_cli compare   --ledger=<file.jsonl> [filters as history]
//                          [--threshold=2.0] [--min-phase-ms=50]
//                          [--min-wall=0.2]
//       Cross-run regression sentinel (obs/regress.h): deterministic
//       metric values for a fingerprint must be bit-identical (ANY drift
//       is a regression); wall/phase timings compare within (gf, threads,
//       host) subgroups against the configurable slowdown threshold.
//       Exit 0 clean, 1 regression, 2 usage/IO error.
//
//   fecsched_cli list      [--describe=<name>]
//       Print every registered code / channel / tx-model / path-scheduler
//       with a one-line description (api::registry()).
//
//   fecsched_cli --version
//       Print the library version.
//
// Every experiment subcommand also accepts --dump-spec (print the
// equivalent scenario JSON instead of running).  Unknown flags fail with
// exit status 2 naming the flag.
//
// Observability (src/obs/): every engine subcommand (sweep, adapt,
// stream, mpath, run) accepts
//   --metrics              collect engine counters/gauges/histograms
//   --profile              time engine phases (encode, channel draw,
//                          schedule, decode, matrix inversion,
//                          resequencing)
//   --trace=<file.jsonl>   write sampled symbol-lifecycle events
//   --trace-sample=N       trace every Nth trial only (default 1)
// Results appear as an "-- observability --" text section, an "obs"
// object under --json, and the JSONL trace file (see tools/trace_stats).
// With none of these flags the engines run their uninstrumented hot
// paths and all output is byte-identical to an obs-free build.
//
// Cross-run outputs (PR 7), same subcommands:
//   --ledger=<file.jsonl>  append this run (manifest + metrics + phase
//                          timings) to the run ledger; FECSCHED_LEDGER
//                          is the flagless default.  Implies --metrics
//                          --profile so the record carries data.
//   --progress             live heartbeat on stderr (TTY single-line
//                          rewrite; whole lines when piped).  stdout is
//                          byte-identical to a non-progress run.
//   --profile-out=<file>   collapsed-stack phase profile (flamegraph.pl/
//                          speedscope); implies --profile.
//   --metrics-out=<file>   Prometheus text exposition of the metrics
//                          registry; implies --metrics.
//
// Crash safety (PR 9):
//   --checkpoint=<dir>     (sweep, run with a grid spec) persist every
//                          completed grid cell as a durable JSON shard;
//   --resume               skip cells whose shard validates — a killed
//                          sweep resumed this way reproduces the
//                          uninterrupted output byte-for-byte.
//   --trial-timeout-ms=N   per-trial watchdog: a stuck grid trial counts
//                          as a failure and marks its cell timed_out
//                          instead of hanging the sweep.
//   --strict               (history, compare) reject a torn trailing
//                          ledger line instead of skipping it.
// SIGINT/SIGTERM drain a run cleanly: durable outputs flush, the ledger
// record is marked "interrupted", partial results are not printed, exit
// code 40.  FECSCHED_FAULT=<point>:<nth>[:throw|exit|short] arms the
// deterministic fault-injection harness (src/util/faultpoint.h); a
// fault-killed process exits 41.

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>

#include "api/json.h"
#include "api/scenario.h"
#include "channel/gilbert.h"
#include "obs/export.h"
#include "obs/ledger.h"
#include "obs/obs.h"
#include "obs/progress.h"
#include "obs/regress.h"
#include "channel/trace.h"
#include "core/nsent.h"
#include "core/planner.h"
#include "sim/analytic.h"
#include "sim/table_io.h"
#include "util/interrupt.h"
#include "util/stats.h"

namespace {

using namespace fecsched;

struct Args {
  std::string cmd;
  std::vector<std::pair<std::string, std::string>> kv;

  [[nodiscard]] std::optional<std::string> get(const std::string& key) const {
    std::optional<std::string> last;
    for (const auto& [k, v] : kv)
      if (k == key) last = v;
    return last;
  }
  [[nodiscard]] std::vector<std::string> get_all(const std::string& key) const {
    std::vector<std::string> out;
    for (const auto& [k, v] : kv)
      if (k == key) out.push_back(v);
    return out;
  }
  /// The whole value of --key as a finite number (std::from_chars):
  /// trailing characters, inf or nan exit 2 naming the flag, never run
  /// with a truncated value.  Range checks stay with the field.
  [[nodiscard]] double number(const std::string& key, double fallback) const {
    const auto v = get(key);
    return v ? to_number(key, *v) : fallback;
  }
  /// Every value of a repeated --key, each parsed as number() does.
  [[nodiscard]] std::vector<double> numbers(const std::string& key) const {
    std::vector<double> out;
    for (const std::string& v : get_all(key)) out.push_back(to_number(key, v));
    return out;
  }
  /// The whole value of --key as an unsigned integer that fits T (the
  /// bench::parse_uint_flag rule); a sign, trailing characters or a value
  /// too wide for T exits 2 naming the flag, never runs truncated.
  template <typename T>
  [[nodiscard]] T integer(const std::string& key,
                          std::type_identity_t<T> fallback) const {
    const auto v = get(key);
    if (!v) return fallback;
    T out{};
    if (!parse_whole(*v, out))
      reject(key,
             "an unsigned integer up to " +
                 std::to_string(std::numeric_limits<T>::max()),
             *v);
    return out;
  }

 private:
  [[nodiscard]] double to_number(const std::string& key,
                                 const std::string& v) const {
    double out = 0.0;
    if (!parse_whole(v, out) || !std::isfinite(out))
      reject(key, "a finite number", v);
    return out;
  }
  template <typename T>
  [[nodiscard]] static bool parse_whole(const std::string& v, T& out) {
    const char* last = v.data() + v.size();
    const auto [end, ec] = std::from_chars(v.data(), last, out);
    return ec == std::errc() && end == last;
  }
  [[noreturn]] void reject(const std::string& key, const std::string& expected,
                           const std::string& v) const {
    std::fprintf(stderr, "fecsched_cli %s: --%s: expected %s, got '%s'\n",
                 cmd.c_str(), key.c_str(), expected.c_str(), v.c_str());
    std::exit(2);
  }
};

/// Parse --key=value flags and reject anything the subcommand does not
/// know: a typo must fail loudly (exit 2, naming the flag) on *every*
/// subcommand, not silently run the default experiment.
Args parse_args(int argc, char** argv, int first, const std::string& cmd,
                const std::set<std::string>& allowed) {
  Args args;
  args.cmd = cmd;
  for (int i = first; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      std::fprintf(stderr, "unexpected argument '%s'\n", arg.c_str());
      std::exit(2);
    }
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    const std::string key = eq == std::string::npos ? arg : arg.substr(0, eq);
    if (allowed.find(key) == allowed.end()) {
      std::fprintf(stderr,
                   "fecsched_cli %s: unknown flag '--%s' (see "
                   "'fecsched_cli --help')\n",
                   cmd.c_str(), key.c_str());
      std::exit(2);
    }
    if (eq == std::string::npos)
      args.kv.emplace_back(key, "1");
    else
      args.kv.emplace_back(key, arg.substr(eq + 1));
  }
  return args;
}

/// Print the spec and stop when --dump-spec was given.  Validates first:
/// a document this emits must be replayable, so inputs the runner would
/// reject fail here too (exit 2) instead of dumping an unrunnable spec.
bool maybe_dump_spec(const Args& args, const api::ScenarioSpec& spec) {
  if (!args.get("dump-spec")) return false;
  spec.validate();
  std::cout << spec.to_json() << "\n";
  return true;
}

// ------------------------------------------------- spec builders

/// Observability flags shared by every engine subcommand (and `run`,
/// where they override the stored spec's obs section): --metrics,
/// --profile, --trace=<file.jsonl>, --trace-sample=N, --counters.
void apply_obs_flags(const Args& args, api::ObsSpec& obs) {
  if (args.get("metrics")) obs.metrics = true;
  if (args.get("profile")) obs.profile = true;
  if (const auto t = args.get("trace")) obs.trace = *t;
  obs.trace_sample =
      args.integer<std::uint32_t>("trace-sample", obs.trace_sample);
  if (args.get("counters")) obs.counters = true;
}

// ------------------------------------------ cross-run output plumbing

/// Where a run's observations go after the engines finish: the run
/// ledger (--ledger= / FECSCHED_LEDGER), a collapsed-stack profile
/// (--profile-out=), a Prometheus metrics file (--metrics-out=), and the
/// live --progress heartbeat on stderr.  None of these change stdout:
/// the ledger/export flags force the collection they need, but the
/// "-- observability --" / "obs" result section still appears only when
/// the user asked for it directly (--metrics / --profile / --trace).
struct ObsOutputs {
  std::string ledger;
  std::string profile_out;
  std::string metrics_out;
  std::string timeline_out;
  bool progress = false;
};

ObsOutputs parse_obs_outputs(const Args& args) {
  ObsOutputs outputs;
  if (const auto l = args.get("ledger")) {
    outputs.ledger = *l;
  } else if (const char* env = std::getenv(std::string(obs::kLedgerEnv).c_str())) {
    outputs.ledger = env;
  }
  if (const auto p = args.get("profile-out")) outputs.profile_out = *p;
  if (const auto m = args.get("metrics-out")) outputs.metrics_out = *m;
  if (const auto t = args.get("timeline-out")) outputs.timeline_out = *t;
  outputs.progress = args.get("progress").has_value();
  return outputs;
}

/// A ledger record without metrics+timings would be an empty baseline, a
/// profile export without the profiler an empty file — the output flags
/// imply the collection they consume.
void force_obs_collection(const ObsOutputs& outputs, api::ObsSpec& obs) {
  if (!outputs.ledger.empty()) {
    obs.metrics = true;
    obs.profile = true;
  }
  if (!outputs.profile_out.empty()) obs.profile = true;
  if (!outputs.metrics_out.empty()) obs.metrics = true;
  // run_scenario writes the timeline file itself (the path rides in the
  // spec's obs section), but like --ledger the flag never turns the
  // stdout obs report on — run_scenario_with_outputs drops the report
  // when the user did not ask for one.
  if (!outputs.timeline_out.empty()) obs.timeline = outputs.timeline_out;
}

/// Crash-safety flags shared by the engine subcommands:
/// --checkpoint=<dir> / --resume (grid sweeps; api/checkpoint.h) and
/// --trial-timeout-ms=N (per-trial watchdog).  None of them is part of
/// the scenario spec — they change how a run executes, never what it
/// computes, so --dump-spec documents stay identical with or without
/// them.
api::RunControl parse_run_control(const Args& args) {
  api::RunControl control;
  if (const auto dir = args.get("checkpoint")) control.checkpoint.dir = *dir;
  control.checkpoint.resume = args.get("resume").has_value();
  if (control.checkpoint.resume && !control.checkpoint.enabled())
    throw std::invalid_argument("--resume requires --checkpoint=<dir>");
  control.trial_timeout_ms = args.integer<std::uint32_t>("trial-timeout-ms", 0);
  return control;
}

/// SIGINT/SIGTERM arrived while the engines ran: everything durable
/// (ledger record, checkpoint shards) is already flushed, the manifest is
/// marked "interrupted", and partial results are NOT printed — a reader
/// of the pinned output formats must never mistake a drained run for a
/// complete one.  Exit interrupt::kExitCode (40), distinct from domain
/// failures (1) and usage errors (2).
int finish_interrupted(const char* cmd) {
  std::fprintf(stderr,
               "%s: interrupted — durable outputs flushed, partial results "
               "not printed\n",
               cmd);
  return interrupt::kExitCode;
}

std::string progress_unit(const std::string& engine) {
  if (engine == "grid") return "cells";
  if (engine == "adaptive") return "points";
  return "trials";
}

void write_obs_outputs(const ObsOutputs& outputs,
                       const obs::RunManifest& manifest,
                       const std::optional<obs::Report>& report) {
  if (!report) return;
  if (!outputs.ledger.empty())
    obs::append_record(outputs.ledger,
                       obs::make_run_record(manifest, *report));
  if (!outputs.profile_out.empty())
    obs::write_text_file(outputs.profile_out,
                         obs::folded_profile(manifest, *report));
  if (!outputs.metrics_out.empty())
    obs::write_text_file(outputs.metrics_out,
                         obs::prometheus_metrics(manifest, *report));
}

/// run_scenario with the heartbeat armed for the duration of the engines
/// and every cross-run output written before the caller prints results.
/// `user_obs` is whether the spec requested observation BEFORE the output
/// flags forced any collection: when false, the report was collected only
/// to feed the files above, and it is dropped from the result afterwards
/// so stdout/JSON stay byte-identical to a run without the new flags.
api::ScenarioResult run_scenario_with_outputs(
    const api::ScenarioSpec& spec, const ObsOutputs& outputs, bool user_obs,
    const api::RunControl& control) {
  std::optional<obs::ProgressMeter> meter;
  if (outputs.progress) {
    obs::ProgressOptions popt;
    popt.label = spec.engine;
    popt.unit = progress_unit(spec.engine);
    meter.emplace(std::move(popt));
  }
  // SIGINT/SIGTERM drain the engines instead of killing the process: the
  // run winds down at the next cell/trial boundary, the ledger record and
  // any checkpoint shards still flush below (manifest status
  // "interrupted"), and the caller exits interrupt::kExitCode without
  // printing partial results.  A second signal kills immediately.
  const interrupt::InterruptGuard signals;
  api::ScenarioResult result = api::run_scenario(spec, control);
  if (meter) meter->finish();
  write_obs_outputs(outputs, result.manifest, result.obs);
  if (!user_obs) result.obs.reset();
  return result;
}

api::ScenarioSpec build_sweep_spec(const Args& args) {
  api::ScenarioSpec spec;
  spec.engine = "grid";
  spec.code.name = args.get("code").value_or("ldgm-triangle");
  const auto tx = args.integer<std::uint32_t>("tx", 4);
  if (tx < 1 || tx > 6) throw std::invalid_argument("--tx must be 1..6");
  spec.tx.model = "tx" + std::to_string(tx);
  spec.code.ratio = args.number("ratio", 2.5);
  spec.code.k = args.integer<std::uint32_t>("k", 4000);
  spec.run.trials = args.integer<std::uint32_t>("trials", 30);
  spec.run.seed = args.integer<std::uint64_t>("seed", 0x5eedf00dULL);
  spec.sweep.grid = "paper";
  return spec;
}

/// The flags stream, net and mpath share: the channel point, either
/// explicit (p, q) or the recommendation-space (p_global, burst), and the
/// stream code and run shape.  `trials`, `seed` and `burst` are each
/// subcommand's historical defaults.
api::ScenarioSpec build_streaming_spec(const Args& args, std::string engine,
                                       std::uint32_t trials,
                                       std::uint64_t seed, double burst) {
  api::ScenarioSpec spec;
  spec.engine = std::move(engine);
  if (args.get("pglobal") || args.get("burst")) {
    spec.channel.p_global = args.number("pglobal", 0.02);
    spec.channel.mean_burst = args.number("burst", burst);
  } else {
    spec.channel.p = args.number("p", 0.01);
    spec.channel.q = args.number("q", 0.5);
  }
  spec.run.sources = args.integer<std::uint32_t>("sources", 2000);
  spec.code.overhead = args.number("overhead", 0.25);
  spec.code.window = args.integer<std::uint32_t>("window", 64);
  spec.code.block_k = args.integer<std::uint32_t>("blockk", 64);
  spec.run.trials = args.integer<std::uint32_t>("trials", trials);
  spec.run.seed = args.integer<std::uint64_t>("seed", seed);
  if (const auto s = args.get("sched")) spec.tx.stream = *s;
  if (const auto s = args.get("scheme")) spec.code.name = *s;
  return spec;
}

api::ScenarioSpec build_stream_spec(const Args& args) {
  return build_streaming_spec(args, "stream", 8, 0x57e4a9edULL, 1.0);
}

api::ScenarioSpec build_net_spec(const Args& args) {
  api::ScenarioSpec spec =
      build_streaming_spec(args, "net", 4, 0x0e7f10adULL, 1.0);
  if (const auto s = args.get("transport")) spec.net.transport = *s;
  spec.net.payload_bytes = args.integer<std::uint32_t>("payload-bytes", 64);
  spec.net.report_interval = args.integer<std::uint32_t>("report-interval", 0);
  if (args.get("no-parity")) spec.net.parity = false;
  if (const auto s = args.get("net-dump")) spec.net.dump = *s;
  return spec;
}

api::ScenarioSpec build_mpath_spec(const Args& args) {
  api::ScenarioSpec spec =
      build_streaming_spec(args, "mpath", 8, 0x3147a7b5ULL, 2.0);
  spec.adapt.enabled = args.get("adapt").has_value();
  spec.adapt.warmup = args.integer<std::uint32_t>("warmup", 5);
  if (const auto s = args.get("scheduler")) spec.paths.scheduler = *s;

  std::vector<double> delays = args.numbers("delay");
  if (delays.empty()) delays = {5.0, 45.0};
  const std::vector<double> capacities = args.numbers("capacity");
  for (std::size_t i = 0; i < delays.size(); ++i) {
    const double capacity =
        i < capacities.size()
            ? capacities[i]
            : (capacities.empty() ? 1.0 : capacities.back());
    spec.paths.list.push_back({delays[i], capacity});
  }
  return spec;
}

api::ScenarioSpec build_adapt_spec(const Args& args) {
  api::ScenarioSpec spec;
  spec.engine = "adaptive";
  spec.code.k = args.integer<std::uint32_t>("k", 2000);
  spec.adapt.enabled = true;
  spec.adapt.objects = args.integer<std::uint32_t>("objects", 40);
  spec.adapt.warmup = args.integer<std::uint32_t>("warmup", 10);
  spec.run.seed = args.integer<std::uint64_t>("seed", 0xada2c0deULL);
  if (args.get("p") || args.get("q")) {
    spec.channel.p = args.number("p", 0.0);
    spec.channel.q = args.number("q", 1.0);
  } else {
    spec.sweep.p_globals = args.numbers("pglobal");
    spec.sweep.bursts = args.numbers("burst");
    if (spec.sweep.p_globals.empty()) spec.sweep.p_globals = {0.05, 0.1, 0.2};
    if (spec.sweep.bursts.empty()) spec.sweep.bursts = {1.0, 4.0, 10.0};
  }
  return spec;
}

// --------------------------------------------- observability printing

/// Append `,"obs":{...}` to a hand-written JSON document.  Emitted only
/// when observation ran, so pinned outputs stay byte-identical with obs
/// disabled.
void write_obs_json(std::ostream& os, const api::ScenarioResult& result) {
  if (!result.obs) return;
  os << ",\"obs\":"
     << obs::observability_json(result.manifest, *result.obs).dump(0);
}

/// Text-mode counterpart of write_obs_json for the engine subcommands.
void print_observability(const api::ScenarioResult& result) {
  if (!result.obs) return;
  const obs::Report& report = *result.obs;
  const obs::RunManifest& m = result.manifest;
  std::printf("\n-- observability --\n");
  std::printf("manifest: spec %s, api %s, gf %s, engine %s, threads %u/%u, "
              "wall %.3fs\n",
              m.fingerprint.c_str(), m.version.c_str(), m.gf_backend.c_str(),
              m.engine.c_str(), m.threads, m.hardware_threads, m.wall_seconds);
  if (report.config.profile) {
    std::printf("%-14s %12s %12s %10s\n", "phase", "calls", "total_ms",
                "ns/call");
    for (std::size_t i = 0; i < obs::kPhaseCount; ++i) {
      const obs::PhaseStats& s = report.phases[i];
      if (s.calls == 0) continue;
      std::printf("%-14s %12llu %12.3f %10.0f\n",
                  std::string(obs::to_string(static_cast<obs::Phase>(i)))
                      .c_str(),
                  static_cast<unsigned long long>(s.calls),
                  static_cast<double>(s.ns) / 1e6,
                  static_cast<double>(s.ns) / static_cast<double>(s.calls));
    }
  }
  for (const auto& [name, v] : report.metrics.counters)
    std::printf("counter %-28s %llu\n", name.c_str(),
                static_cast<unsigned long long>(v));
  for (const auto& [name, v] : report.metrics.gauges)
    std::printf("gauge   %-28s %llu\n", name.c_str(),
                static_cast<unsigned long long>(v));
  for (const auto& h : report.metrics.histograms) {
    std::uint64_t total = 0;
    for (std::uint64_t c : h.counts) total += c;
    std::printf("hist    %-28s %llu observations, %zu buckets\n",
                h.name.c_str(), static_cast<unsigned long long>(total),
                h.counts.size());
  }
  if (report.config.trace)
    std::printf("trace: %zu events (1-in-%u trial sampling)\n",
                report.events.size(), report.config.trace_sample);
  if (report.config.counters) {
    const obs::PerfReport& perf = report.perf;
    if (!perf.available) {
      std::printf("perf counters: unavailable (%s)\n", perf.status.c_str());
    } else {
      std::printf("perf counters: per-phase hardware counters "
                  "(perf_event_open, user space)\n");
      std::printf("%-14s %12s %14s %14s %6s %7s %12s\n", "phase", "reads",
                  "cycles", "instructions", "ipc", "miss%", "branch_miss");
      for (std::size_t i = 0; i < obs::kPhaseCount; ++i) {
        const obs::PerfPhase& s = perf.phases[i];
        if (s.reads == 0) continue;
        const auto value = [&](obs::PerfCounter c) {
          return s.values[static_cast<std::size_t>(c)];
        };
        const std::uint64_t cycles = value(obs::PerfCounter::kCycles);
        const std::uint64_t instructions =
            value(obs::PerfCounter::kInstructions);
        const std::uint64_t refs = value(obs::PerfCounter::kCacheReferences);
        const std::uint64_t misses = value(obs::PerfCounter::kCacheMisses);
        std::printf(
            "%-14s %12llu %14llu %14llu %6.2f %7.2f %12llu\n",
            std::string(obs::to_string(static_cast<obs::Phase>(i))).c_str(),
            static_cast<unsigned long long>(s.reads),
            static_cast<unsigned long long>(cycles),
            static_cast<unsigned long long>(instructions),
            cycles > 0 ? static_cast<double>(instructions) /
                             static_cast<double>(cycles)
                       : 0.0,
            refs > 0 ? 100.0 * static_cast<double>(misses) /
                           static_cast<double>(refs)
                     : 0.0,
            static_cast<unsigned long long>(
                value(obs::PerfCounter::kBranchMisses)));
      }
    }
  }
  if (report.config.timeline)
    std::printf("timeline: %zu spans on %u lanes (%llu dropped)\n",
                report.spans.size(), report.lanes,
                static_cast<unsigned long long>(report.spans_dropped));
}

// ------------------------------------------------------ grid printing

int print_grid_result(const Args& args, const api::ScenarioResult& result) {
  const ExperimentConfig& cfg = *result.grid_config;
  TableOptions topt;
  topt.caption = std::string(to_string(cfg.code)) + " + " +
                 std::string(to_string(cfg.tx)) + ", ratio " +
                 format_fixed(cfg.expansion_ratio, 2) + ", k=" +
                 std::to_string(cfg.k) + " (mean inefficiency; '-' = some "
                 "trial failed)";
  write_paper_table(std::cout, *result.grid, topt);
  if (args.get("gnuplot")) {
    std::cout << "\n# gnuplot surface (p q inefficiency)\n";
    write_gnuplot_surface(std::cout, *result.grid);
  }
  print_observability(result);
  return 0;
}

// ------------------------------------------- planning subcommands

int cmd_plan(const Args& args) {
  const double p = args.number("p", 0.0);
  const double q = args.number("q", 1.0);
  PlannerConfig cfg;
  cfg.k = args.integer<std::uint32_t>("k", 4000);
  cfg.trials = args.integer<std::uint32_t>("trials", 20);
  const Planner planner(cfg);

  std::printf("channel: p=%.4f q=%.4f (p_global=%.4f, mean burst %.2f)\n\n",
              p, q, global_loss_probability(p, q), mean_burst(q));
  std::printf("%-16s %-10s %6s %14s %10s\n", "code", "tx_model", "ratio",
              "inefficiency", "reliable");
  for (const auto& e : planner.evaluate(p, q))
    std::printf("%-16s %-10s %6.1f %14s %10s\n",
                std::string(to_string(e.code)).c_str(),
                std::string(to_string(e.tx)).c_str(), e.expansion_ratio,
                e.reportable() ? format_fixed(e.inefficiency.mean(), 4).c_str()
                               : "-",
                e.reportable() ? "yes" : "NO");

  const auto best = planner.best(p, q);
  if (!best) {
    std::printf("\nno reliable tuple at this point — use a carousel or a "
                "higher expansion ratio\n");
    return 1;
  }
  std::printf("\nbest: %s + %s @ ratio %.1f (inefficiency %.4f)\n",
              std::string(to_string(best->code)).c_str(),
              std::string(to_string(best->tx)).c_str(), best->expansion_ratio,
              best->inefficiency.mean());

  const auto bytes = args.integer<std::uint64_t>("bytes", 0);
  if (bytes > 0) {
    ByteNsentRequest req;
    req.inefficiency = best->inefficiency.mean();
    req.object_bytes = bytes;
    req.packet_payload_bytes = args.integer<std::uint32_t>("payload", 1024);
    req.p = p;
    req.q = q;
    req.tolerance_fraction = args.number("tolerance", 0.10);
    const NsentResult res = optimal_nsent_bytes(req);
    std::printf("object %llu bytes @ %llu B/packet: send n_sent=%u packets "
                "(Eq. 3: %.0f, +%.0f%% tolerance)\n",
                static_cast<unsigned long long>(bytes),
                static_cast<unsigned long long>(req.packet_payload_bytes),
                res.n_sent, res.exact, req.tolerance_fraction * 100.0);
  }
  return 0;
}

int cmd_universal(const Args& args) {
  PlannerConfig cfg;
  cfg.k = args.integer<std::uint32_t>("k", 4000);
  cfg.trials = args.integer<std::uint32_t>("trials", 10);
  const Planner planner(cfg);
  std::printf("ranking candidate tuples over the %zu-cell paper grid "
              "(k=%u, %u trials/cell)...\n\n",
              GridSpec::paper().cell_count(), cfg.k, cfg.trials);
  std::printf("%-16s %-10s %6s %9s %8s %8s %8s\n", "code", "tx_model",
              "ratio", "coverage", "worst", "mean", "spread");
  for (const auto& r : planner.rank_universal(GridSpec::paper()))
    std::printf("%-16s %-10s %6.1f %8.1f%% %8s %8s %8s\n",
                std::string(to_string(r.code)).c_str(),
                std::string(to_string(r.tx)).c_str(), r.expansion_ratio,
                r.coverage() * 100.0,
                r.cells_reliable ? format_fixed(r.worst_inefficiency, 3).c_str() : "-",
                r.cells_reliable ? format_fixed(r.mean_inefficiency, 3).c_str() : "-",
                r.cells_reliable ? format_fixed(r.spread, 3).c_str() : "-");
  return 0;
}

int cmd_limits(const Args& args) {
  std::vector<double> ratios = args.numbers("ratio");
  if (ratios.empty()) ratios = {1.5, 2.5};
  for (const double ratio : ratios) {
    std::printf("# FEC expansion ratio %.2f: q_limit(p) — decoding "
                "impossible below\n# p q_limit\n",
                ratio);
    for (const LimitPoint& pt : fig6_boundary(ratio, 21))
      std::printf("%.2f %s\n", pt.p,
                  pt.q_limit > 1.0 ? "infeasible"
                                   : format_fixed(pt.q_limit, 4).c_str());
  }
  return 0;
}

int cmd_fit(const Args& args) {
  const auto path = args.get("trace");
  if (!path) {
    std::fprintf(stderr, "fit requires --trace=<file>\n");
    return 2;
  }
  std::ifstream in(*path);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", path->c_str());
    return 1;
  }
  try {
    const TraceModel trace = TraceModel::load(in, false);
    const GilbertFit fit = fit_gilbert(trace.events());
    std::printf("trace: %zu packets, loss rate %.4f\n", trace.length(),
                trace.loss_rate());
    std::printf(
        "Gilbert fit: p=%.4f q=%.4f (p_global=%.4f, mean burst %.2f)\n",
        fit.p, fit.q, global_loss_probability(fit.p, fit.q),
        mean_burst(fit.q));
    return 0;
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "fit: %s\n", e.what());
    return 2;
  }
}

// ------------------------------------------------------------- adapt

/// Minimal JSON string escaping (labels only contain printable ASCII, but
/// stay correct anyway).
std::string json_escape(std::string_view s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else {
      out += c;
    }
  }
  return out;
}

/// `value` with `precision` decimals, or null where it is not finite
/// (format_fixed would write `inf`, which is not a JSON token).
std::string json_fixed(double value, int precision) {
  return std::isfinite(value) ? format_fixed(value, precision) : "null";
}

void json_tuple(std::ostream& os, const CandidateTuple& tuple) {
  os << "{\"code\":\"" << json_escape(spec_name(tuple.code))
     << "\",\"tx\":" << static_cast<int>(tuple.tx) << ",\"ratio\":"
     << format_fixed(tuple.expansion_ratio, 2) << "}";
}

void write_adapt_json(std::ostream& os, const api::ScenarioResult& result) {
  const AdaptiveCompareConfig& cfg = *result.adaptive_config;
  os << "{\"k\":" << cfg.k << ",\"objects\":" << cfg.objects
     << ",\"warmup\":" << cfg.warmup_objects << ",\"seed\":" << cfg.seed
     << ",\"points\":[";
  bool first_point = true;
  for (const auto& r : result.adaptive) {
    if (!first_point) os << ",";
    first_point = false;
    os << "\n{\"p\":" << format_fixed(r.p, 6) << ",\"q\":"
       << format_fixed(r.q, 6) << ",\"p_global\":"
       << format_fixed(r.p_global, 4) << ",\"mean_burst\":"
       << json_fixed(r.mean_burst, 2) << ",";
    os << "\"best_static\":";
    if (r.best_baseline >= 0) {
      const auto& best = r.baselines[static_cast<std::size_t>(r.best_baseline)];
      os << "{\"tuple\":";
      json_tuple(os, best.tuple);
      os << ",\"inefficiency\":" << format_fixed(best.inefficiency.mean(), 6)
         << "}";
    } else {
      os << "null";
    }
    os << ",\"adaptive\":{\"steady_inefficiency\":"
       << format_fixed(r.adaptive_steady.mean(), 6)
       << ",\"warmup_inefficiency\":"
       << format_fixed(r.adaptive_warmup.mean(), 6)
       << ",\"failures\":" << r.adaptive_failures << "},";
    os << "\"baselines\":[";
    for (std::size_t b = 0; b < r.baselines.size(); ++b) {
      if (b) os << ",";
      const auto& base = r.baselines[b];
      os << "{\"tuple\":";
      json_tuple(os, base.tuple);
      os << ",\"inefficiency\":"
         << (base.reportable() ? format_fixed(base.inefficiency.mean(), 6)
                               : std::string("null"))
         << ",\"failures\":" << base.failures << ",\"trials\":" << base.trials
         << "}";
    }
    os << "],\"trajectory\":[";
    for (std::size_t t = 0; t < r.trajectory.size(); ++t) {
      if (t) os << ",";
      const auto& step = r.trajectory[t];
      os << "{\"object\":" << step.object_index << ",\"tuple\":";
      json_tuple(os, step.tuple);
      os << ",\"regime\":\"" << to_string(step.regime) << "\",\"decoded\":"
         << (step.decoded ? "true" : "false") << ",\"inefficiency\":"
         << format_fixed(step.inefficiency, 6) << ",\"n_sent\":" << step.n_sent
         << ",\"replanned\":" << (step.replanned ? "true" : "false")
         << ",\"est_p_global\":" << format_fixed(step.estimated_p_global, 4)
         << ",\"est_mean_burst\":"
         << format_fixed(step.estimated_mean_burst, 2) << "}";
    }
    os << "]}";
  }
  os << "\n]";
  write_obs_json(os, result);
  os << "}\n";
}

int print_adapt_result(const Args& args, const api::ScenarioResult& result) {
  if (args.get("json")) {
    write_adapt_json(std::cout, result);
    return 0;
  }

  const AdaptiveCompareConfig& cfg = *result.adaptive_config;
  std::printf("adaptive vs static, k=%u, %u objects (%u warm-up) per point\n\n",
              cfg.k, cfg.objects, cfg.warmup_objects);
  std::printf("%-8s %-8s %-26s %10s %10s %6s\n", "p_glob", "burst",
              "best static tuple", "static", "adaptive", "fails");
  for (const auto& r : result.adaptive) {
    const std::string label =
        r.best_baseline >= 0
            ? to_string(
                  r.baselines[static_cast<std::size_t>(r.best_baseline)].tuple)
            : "-";
    std::printf("%-8.3f %-8.1f %-26s %10s %10.4f %6u\n", r.p_global,
                r.mean_burst, label.c_str(),
                r.best_baseline >= 0
                    ? format_fixed(r.best_static_inefficiency(), 4).c_str()
                    : "-",
                r.adaptive_steady.mean(), r.adaptive_failures);
    const auto& last = r.trajectory.back();
    std::printf("  -> settled on %s (regime %s, est p_global %.3f, "
                "burst %.1f)\n",
                to_string(last.tuple).c_str(), to_string(last.regime),
                last.estimated_p_global, last.estimated_mean_burst);
  }
  print_observability(result);
  return 0;
}

// ------------------------------------------------------------- stream

void write_histogram(std::ostream& os, const std::vector<double>& delays) {
  std::map<long long, std::uint64_t> histogram;
  for (double d : delays) ++histogram[std::llround(d)];
  os << ",\"histogram\":[";
  bool first_bin = true;
  for (const auto& [delay, count] : histogram) {
    if (!first_bin) os << ",";
    first_bin = false;
    os << "{\"delay\":" << delay << ",\"count\":" << count << "}";
  }
  os << "]}";
}

/// `{"sources":S,"trials":T,"seed":X,"p":P,"q":Q,"p_global":G`, the head
/// every streaming --json document opens with.
void write_point_head(std::ostream& os, std::uint32_t sources,
                      const api::ScenarioResult& result) {
  const double p = result.p, q = result.q;
  os << "{\"sources\":" << sources << ",\"trials\":" << result.trials
     << ",\"seed\":" << result.seed << ",\"p\":" << format_fixed(p, 6)
     << ",\"q\":" << format_fixed(q, 6) << ",\"p_global\":"
     << format_fixed(global_loss_probability(p, q), 4);
}

/// A figure of `o`'s delay distribution to 4 decimals, or null where `o`
/// delivered no source: an empty distribution has no mean or percentile.
std::string delay_json(const api::DelayOutcome& o, double figure) {
  return o.delays.empty() ? "null" : format_fixed(figure, 4);
}

/// `"delay":{"delivered":...,"max":M`, left open for the engine's means.
void write_delay_head(std::ostream& os, const api::DelayOutcome& o) {
  os << "\"delay\":{\"delivered\":" << o.delivered << ",\"lost\":" << o.lost
     << ",\"mean\":" << delay_json(o, o.mean()) << ",\"p50\":"
     << delay_json(o, sorted_percentile(o.delays, 0.50)) << ",\"p95\":"
     << delay_json(o, sorted_percentile(o.delays, 0.95)) << ",\"p99\":"
     << delay_json(o, sorted_percentile(o.delays, 0.99)) << ",\"max\":"
     << delay_json(o, o.delays.empty() ? 0.0 : o.delays.back());
}

/// The mean, p95, p99 and max columns of a delay table row, `-` where
/// the variant delivered no source.
std::string delay_columns(const api::DelayOutcome& o) {
  char row[64];
  if (o.delays.empty())
    std::snprintf(row, sizeof row, "%9s %9s %9s %9s", "-", "-", "-", "-");
  else
    std::snprintf(row, sizeof row, "%9.2f %9.2f %9.2f %9.2f", o.mean(),
                  sorted_percentile(o.delays, 0.95),
                  sorted_percentile(o.delays, 0.99), o.delays.back());
  return row;
}

/// A per-path mean to `decimals` places, or `none` for a path that
/// carried no packet: it has no queue wait or transit to average.
std::string path_mean(const PathStats& path, double mean, int decimals,
                      const char* none) {
  return path.sent == 0 ? none : format_fixed(mean, decimals);
}

/// `,"residual":{...}`: the post-FEC loss runs.
void write_residual(std::ostream& os, const api::DelayOutcome& o) {
  os << ",\"residual\":{\"lost\":" << o.lost << ",\"runs\":"
     << o.residual_runs << ",\"mean_run_length\":"
     << format_fixed(o.mean_residual_run(), 2) << ",\"max_run_length\":"
     << o.residual_max_run << "}";
}

void write_stream_json(std::ostream& os, const api::ScenarioResult& result) {
  const StreamTrialConfig& base = *result.stream_base;
  write_point_head(os, base.source_count, result);
  os << ",\"mean_burst\":" << json_fixed(mean_burst(result.q), 2)
     << ",\"overhead\":" << format_fixed(base.overhead, 4) << ",\"window\":"
     << base.window << ",\"block_k\":" << base.block_k << ",\"variants\":[";
  bool first = true;
  for (const api::StreamOutcome& o : result.stream) {
    if (!first) os << ",";
    first = false;
    const double t = o.trials ? static_cast<double>(o.trials) : 1.0;
    os << "\n{\"scheme\":\"" << json_escape(to_string(o.variant.scheme))
       << "\",\"scheduling\":\"" << json_escape(to_string(o.variant.scheduling))
       << "\",\"overhead_actual\":" << format_fixed(o.overhead_actual_sum / t, 4)
       << ",";
    write_delay_head(os, o);
    os << ",\"mean_transport\":" << delay_json(o, o.mean_transport())
       << ",\"mean_hol\":" << delay_json(o, o.mean_hol()) << "}";
    write_residual(os, o);
    // The full merged delay distribution, binned to integer slots.
    write_histogram(os, o.delays);
  }
  os << "\n]";
  write_obs_json(os, result);
  os << "}\n";
}

/// The stream and net engines' delay table: one row per variant.
void print_delay_table(const std::vector<api::StreamOutcome>& outcomes) {
  std::printf("%-26s %9s %9s %9s %9s %10s %8s\n", "scheme+scheduling", "mean",
              "p95", "p99", "max", "resid-run", "lost%");
  for (const api::StreamOutcome& o : outcomes) {
    const std::string label = std::string(to_string(o.variant.scheme)) + "/" +
                              std::string(to_string(o.variant.scheduling));
    std::printf("%-26s %s %10.2f %7.3f%%\n", label.c_str(),
                delay_columns(o).c_str(), o.mean_residual_run(),
                100.0 * static_cast<double>(o.lost) /
                    (static_cast<double>(o.delivered + o.lost)));
  }
}

int print_stream_result(const Args& args, const api::ScenarioResult& result) {
  if (args.get("json")) {
    write_stream_json(std::cout, result);
    return 0;
  }

  const StreamTrialConfig& base = *result.stream_base;
  const double p = result.p, q = result.q;
  std::printf("streaming: %u sources, overhead %.3f, window %u, block_k %u, "
              "%u trials\n",
              base.source_count, base.overhead, base.window, base.block_k,
              result.trials);
  std::printf("channel: p=%.4f q=%.4f (p_global=%.4f, mean burst %.2f)\n\n",
              p, q, global_loss_probability(p, q), mean_burst(q));
  print_delay_table(result.stream);
  std::printf("\n(delays in channel packet slots; in-order release; "
              "resid-run = mean post-FEC loss burst)\n");
  print_observability(result);
  return 0;
}

// ---------------------------------------------------------------- net

void write_net_json(std::ostream& os, const api::ScenarioResult& result) {
  const net::NetTrialConfig& base = *result.net_base;
  const api::NetRunStats& stats = *result.net;
  const api::StreamOutcome& o = result.stream.front();
  const double t = o.trials ? static_cast<double>(o.trials) : 1.0;
  write_point_head(os, base.stream.source_count, result);
  os << ",\"overhead\":" << format_fixed(base.stream.overhead, 4)
     << ",\"window\":" << base.stream.window << ",\"block_k\":"
     << base.stream.block_k << ",\"scheme\":\""
     << json_escape(to_string(base.stream.scheme)) << "\",\"scheduling\":\""
     << json_escape(to_string(base.stream.scheduling)) << "\",\"transport\":\""
     << json_escape(base.transport) << "\",\"payload_bytes\":"
     << base.payload_bytes << ",\"wire\":{\"datagrams_sent\":"
     << stats.datagrams_sent << ",\"datagrams_dropped\":"
     << stats.datagrams_dropped << ",\"bytes_sent\":" << stats.bytes_sent
     << ",\"sources_verified\":" << stats.sources_verified
     << ",\"payload_mismatches\":" << stats.payload_mismatches
     << ",\"frames_rejected\":" << stats.frames_rejected
     << ",\"reports_received\":" << stats.reports_received
     << ",\"parity_trials\":" << stats.parity_trials
     << ",\"parity_failures\":" << stats.parity_failures << "}"
     << ",\"estimate\":{\"p_global\":"
     << format_fixed(stats.estimate.p_global, 6) << ",\"mean_burst\":"
     << format_fixed(stats.estimate.mean_burst, 4) << ",\"observations\":"
     << stats.estimate.observations << "}"
     << ",\"overhead_actual\":" << format_fixed(o.overhead_actual_sum / t, 4)
     << ",";
  write_delay_head(os, o);
  os << "}";
  write_residual(os, o);
  write_obs_json(os, result);
  // write_histogram's trailing '}' closes the root object.
  write_histogram(os, o.delays);
  os << "\n";
}

int print_net_result(const Args& args, const api::ScenarioResult& result) {
  const net::NetTrialConfig& base = *result.net_base;
  const api::NetRunStats& stats = *result.net;
  const api::StreamOutcome& o = result.stream.front();
  if (args.get("json")) {
    write_net_json(std::cout, result);
    return 0;
  }
  const double p = result.p, q = result.q;
  std::printf("net: %u sources over %s loopback, scheme %s/%s, overhead "
              "%.3f, window %u, block_k %u, payload %zu B, %u trials\n",
              base.stream.source_count, base.transport.c_str(),
              std::string(to_string(base.stream.scheme)).c_str(),
              std::string(to_string(base.stream.scheduling)).c_str(),
              base.stream.overhead, base.stream.window, base.stream.block_k,
              base.payload_bytes, result.trials);
  std::printf("channel (emulated at the sender): p=%.4f q=%.4f "
              "(p_global=%.4f, mean burst %.2f)\n\n",
              p, q, global_loss_probability(p, q), mean_burst(q));
  print_delay_table(result.stream);
  std::printf("\nwire: %llu datagrams sent, %llu dropped by the impairment "
              "shim, %llu bytes framed\n",
              static_cast<unsigned long long>(stats.datagrams_sent),
              static_cast<unsigned long long>(stats.datagrams_dropped),
              static_cast<unsigned long long>(stats.bytes_sent));
  std::printf("byte-verified payloads: %llu/%llu delivered sources match "
              "ground truth (%llu mismatches, %llu frames rejected)\n",
              static_cast<unsigned long long>(stats.sources_verified),
              static_cast<unsigned long long>(o.delivered),
              static_cast<unsigned long long>(stats.payload_mismatches),
              static_cast<unsigned long long>(stats.frames_rejected));
  if (stats.parity_trials > 0)
    std::printf("parity: %u/%u trials match the simulation twin exactly\n",
                stats.parity_trials - stats.parity_failures,
                stats.parity_trials);
  else
    std::printf("parity: skipped (--no-parity)\n");
  if (stats.estimate.observations > 0)
    std::printf("estimator (wire LossReports, %llu received): "
                "p_global=%.4f mean_burst=%.2f over %llu observed slots\n",
                static_cast<unsigned long long>(stats.reports_received),
                stats.estimate.p_global, stats.estimate.mean_burst,
                static_cast<unsigned long long>(stats.estimate.observations));
  std::printf("\n(delays in channel packet slots; impairment above a "
              "lossless transport => sim-exact distributions)\n");
  print_observability(result);
  return stats.payload_mismatches == 0 && stats.parity_failures == 0 ? 0 : 1;
}

// -------------------------------------------------------------- mpath

void write_mpath_json(std::ostream& os, const api::ScenarioResult& result) {
  const MpathTrialConfig& base = *result.mpath_base;
  write_point_head(os, base.stream.source_count, result);
  os << ",\"mean_burst\":" << json_fixed(mean_burst(result.q), 2)
     << ",\"overhead\":" << format_fixed(base.stream.overhead, 4)
     << ",\"window\":" << base.stream.window << ",\"scheme\":\""
     << json_escape(to_string(base.stream.scheme)) << "\",\"paths\":[";
  for (std::size_t i = 0; i < base.paths.size(); ++i) {
    if (i) os << ",";
    os << "{\"delay\":" << format_fixed(base.paths[i].delay, 2)
       << ",\"capacity\":" << format_fixed(base.paths[i].capacity, 2) << "}";
  }
  os << "]";
  if (!base.repair_weights.empty()) {
    os << ",\"repair_weights\":[";
    for (std::size_t i = 0; i < base.repair_weights.size(); ++i) {
      if (i) os << ",";
      os << format_fixed(base.repair_weights[i], 4);
    }
    os << "]";
  }
  os << ",\"schedulers\":[";
  bool first = true;
  for (const api::MpathOutcome& o : result.mpath) {
    if (!first) os << ",";
    first = false;
    const double t = o.trials ? static_cast<double>(o.trials) : 1.0;
    os << "\n{\"scheduler\":\"" << json_escape(o.variant.label)
       << "\",\"overhead_actual\":"
       << format_fixed(o.overhead_actual_sum / t, 4)
       << ",\"reordered_fraction\":"
       << format_fixed(o.reordered_fraction_sum / t, 4) << ",";
    write_delay_head(os, o);
    os << ",\"mean_hol\":" << delay_json(o, o.mean_hol()) << "}";
    write_residual(os, o);
    os << ",\"per_path\":[";
    for (std::size_t i = 0; i < o.paths.size(); ++i) {
      const PathStats& path = o.paths[i];
      if (i) os << ",";
      os << "{\"label\":\"" << json_escape(path.label) << "\",\"sent\":"
         << path.sent << ",\"lost\":" << path.lost << ",\"mean_queue_wait\":"
         << path_mean(path, path.mean_queue_wait, 4, "null")
         << ",\"mean_transit\":"
         << path_mean(path, path.mean_transit, 4, "null") << "}";
    }
    os << "]";
    write_histogram(os, o.delays);
  }
  os << "\n]";
  write_obs_json(os, result);
  os << "}\n";
}

int print_mpath_result(const Args& args, const api::ScenarioResult& result) {
  const MpathTrialConfig& base = *result.mpath_base;
  const double p = result.p, q = result.q;

  // Keep stdout pure JSON under --json; the learned weights/window appear
  // in the document itself ("repair_weights", "window").
  if (!result.mpath_estimates.empty() && !args.get("json")) {
    std::printf("per-path estimates after %u warm-up trials "
                "(src/adapt/ closed loop):\n",
                result.mpath_warmup);
    const auto& estimates = result.mpath_estimates;
    for (std::size_t i = 0; i < estimates.size(); ++i) {
      const std::string label = base.paths[i].label.empty()
                                    ? "path" + std::to_string(i)
                                    : base.paths[i].label;
      std::printf("  %s: p_global=%.4f mean_burst=%.2f%s -> repair "
                  "weight %.2f\n",
                  label.c_str(), estimates[i].p_global,
                  estimates[i].mean_burst,
                  estimates[i].bursty ? " (bursty)" : "",
                  base.repair_weights[i]);
    }
    std::printf("  window <- %u\n\n", base.stream.window);
  }

  if (args.get("json")) {
    write_mpath_json(std::cout, result);
    return 0;
  }

  std::printf("multipath: %u sources over %zu paths, scheme %s, overhead "
              "%.3f, window %u, %u trials\n",
              base.stream.source_count, base.paths.size(),
              std::string(to_string(base.stream.scheme)).c_str(),
              base.stream.overhead, base.stream.window, result.trials);
  std::printf("channel/path: p=%.4f q=%.4f (p_global=%.4f, mean burst "
              "%.2f); delays:",
              p, q, global_loss_probability(p, q), mean_burst(q));
  for (const PathSpec& path : base.paths)
    std::printf(" %.0f", path.delay);
  std::printf(" slots\n\n");
  std::printf("%-18s %9s %9s %9s %9s %9s %8s\n", "scheduler", "mean", "p95",
              "p99", "max", "reorder%", "lost%");
  for (const api::MpathOutcome& o : result.mpath) {
    const double t = o.trials ? static_cast<double>(o.trials) : 1.0;
    std::printf("%-18s %s %8.2f%% %7.3f%%\n", o.variant.label.c_str(),
                delay_columns(o).c_str(), o.reordered_fraction_sum / t * 100.0,
                100.0 * static_cast<double>(o.lost) /
                    static_cast<double>(o.delivered + o.lost));
    for (const auto& path : o.paths)
      std::printf("    %-14s sent %8llu  lost %6llu  queue %7s  "
                  "transit %7s\n",
                  path.label.c_str(),
                  static_cast<unsigned long long>(path.sent),
                  static_cast<unsigned long long>(path.lost),
                  path_mean(path, path.mean_queue_wait, 2, "-").c_str(),
                  path_mean(path, path.mean_transit, 2, "-").c_str());
  }
  std::printf("\n(delays in sender slots; in-order release; reorder%% = "
              "received packets overtaken by a later emission)\n");
  print_observability(result);
  return 0;
}

// ------------------------------------------- the engine subcommands

/// `run`'s spec: the stored document --spec names ('-' = stdin).
api::ScenarioSpec load_spec(const Args& args) {
  const auto path = args.get("spec");
  if (!path)
    throw std::invalid_argument("run requires --spec=<file.json> ('-' = stdin)");
  // --spec=- reads the document from stdin, so generators pipe straight
  // into runs; parse errors then point at "<stdin>:line:col".
  const bool from_stdin = *path == "-";
  const std::string source = from_stdin ? "<stdin>" : *path;
  const std::string text = [&] {
    if (from_stdin)
      return std::string(std::istreambuf_iterator<char>(std::cin),
                         std::istreambuf_iterator<char>());
    std::ifstream in(*path);
    if (!in) throw std::invalid_argument("cannot open " + *path);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  }();
  try {
    return api::ScenarioSpec::from_json(text);
  } catch (const api::JsonParseError& e) {
    // The parser reports a byte offset; name the spot in the file the
    // way a compiler would.
    const auto [line, col] = api::json_line_col(text, e.offset());
    throw std::invalid_argument(source + ":" + std::to_string(line) + ":" +
                                std::to_string(col) + ": " + e.what());
  }
}

/// sweep, adapt, stream, net, mpath and run: build the spec (`run` loads
/// it), apply the obs flags, then dump it, or run it with the cross-run
/// outputs and crash-safety controls and print the result by engine.
template <api::ScenarioSpec (*Build)(const Args&)>
int cmd_engine(const Args& args) {
  api::ScenarioResult result;
  try {
    api::ScenarioSpec spec = Build(args);
    apply_obs_flags(args, spec.obs);
    if (maybe_dump_spec(args, spec)) return 0;
    if (args.get("json") && spec.engine == "grid")
      throw std::invalid_argument(
          "--json is not supported for the grid engine (the paper table is "
          "the output)");
    const ObsOutputs outputs = parse_obs_outputs(args);
    const api::RunControl control = parse_run_control(args);
    const bool user_obs = spec.obs.enabled();
    force_obs_collection(outputs, spec.obs);
    result = run_scenario_with_outputs(spec, outputs, user_obs, control);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", args.cmd.c_str(), e.what());
    return 2;
  }
  if (interrupt::interrupted()) return finish_interrupted(args.cmd.c_str());
  if (result.engine == "grid") return print_grid_result(args, result);
  if (result.engine == "stream") return print_stream_result(args, result);
  if (result.engine == "net") return print_net_result(args, result);
  if (result.engine == "mpath") return print_mpath_result(args, result);
  return print_adapt_result(args, result);
}

// --------------------------------------------- history / compare

/// Every --ledger= shard, or the FECSCHED_LEDGER fallback; errors out
/// (exit 2 via the caller's catch) when neither names a file.
std::vector<obs::LedgerRecord> load_ledgers(const Args& args) {
  std::vector<std::string> paths = args.get_all("ledger");
  if (paths.empty()) {
    if (const char* env =
            std::getenv(std::string(obs::kLedgerEnv).c_str()))
      paths.emplace_back(env);
  }
  if (paths.empty())
    throw std::invalid_argument(
        "no ledger: pass --ledger=<file.jsonl> (repeatable) or set "
        "FECSCHED_LEDGER");
  // By default a torn trailing line (a crash mid-append) is skipped with
  // a warning so history/compare keep working right after a crash;
  // --strict turns any malformed line into a hard error.
  const bool strict = args.get("strict").has_value();
  std::vector<obs::LedgerRecord> records;
  for (const std::string& path : paths) {
    std::vector<obs::LedgerRecord> shard = obs::load_ledger(path, strict);
    records.insert(records.end(),
                   std::make_move_iterator(shard.begin()),
                   std::make_move_iterator(shard.end()));
  }
  return records;
}

obs::LedgerFilter parse_ledger_filter(const Args& args) {
  obs::LedgerFilter filter;
  filter.fingerprint = args.get("spec").value_or("");
  filter.engine = args.get("engine").value_or("");
  filter.gf = args.get("gf").value_or("");
  filter.kind = args.get("kind").value_or("");
  return filter;
}

int cmd_history(const Args& args) {
  try {
    const std::vector<obs::LedgerRecord> records = obs::filter_records(
        obs::compact_records(load_ledgers(args)), parse_ledger_filter(args));
    if (args.get("compact")) {
      // Canonical compacted JSONL on stdout: `history --compact > merged`
      // is the shard-merge operation.
      for (const obs::LedgerRecord& r : records)
        std::cout << obs::ledger_line(r) << '\n';
      return 0;
    }
    std::printf("%-22s %-8s %-9s %7s %9s %-20s %s\n", "spec", "engine", "gf",
                "threads", "wall_s", "started_at", "kind");
    for (const obs::LedgerRecord& r : records) {
      const obs::RunManifest& m = r.manifest;
      std::string kind = r.kind;
      if (!r.label.empty()) kind += "/" + r.label;
      std::printf("%-22s %-8s %-9s %7u %9.3f %-20s %s\n",
                  m.fingerprint.c_str(), m.engine.c_str(),
                  m.gf_backend.c_str(), m.threads, m.wall_seconds,
                  m.started_at.empty() ? "-" : m.started_at.c_str(),
                  kind.c_str());
    }
    std::printf("%zu record%s\n", records.size(),
                records.size() == 1 ? "" : "s");
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "history: %s\n", e.what());
    return 2;
  }
}

int cmd_compare(const Args& args) {
  try {
    const std::vector<obs::LedgerRecord> records = obs::filter_records(
        obs::compact_records(load_ledgers(args)), parse_ledger_filter(args));
    obs::CompareOptions options;
    options.threshold = args.number("threshold", options.threshold);
    options.min_phase_ms = args.number("min-phase-ms", options.min_phase_ms);
    options.min_wall_seconds =
        args.number("min-wall", options.min_wall_seconds);
    const obs::CompareReport report =
        obs::compare_records(records, options);
    for (const std::string& drift : report.drifts)
      std::printf("REGRESSION %s\n", drift.c_str());
    for (const std::string& slow : report.slowdowns)
      std::printf("REGRESSION %s\n", slow.c_str());
    std::printf("compared %zu record%s across %zu fingerprint%s: %s\n",
                report.records, report.records == 1 ? "" : "s", report.groups,
                report.groups == 1 ? "" : "s",
                report.clean()
                    ? "clean"
                    : (std::to_string(report.drifts.size()) + " drift(s), " +
                       std::to_string(report.slowdowns.size()) +
                       " slowdown(s)")
                          .c_str());
    return report.clean() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "compare: %s\n", e.what());
    return 2;
  }
}

// --------------------------------------------------------------- list

int cmd_list(const Args& args) {
  const api::Registry& reg = api::registry();
  const api::RegistrySection sections[] = {
      api::RegistrySection::kCodes, api::RegistrySection::kChannels,
      api::RegistrySection::kTxModels, api::RegistrySection::kPathSchedulers,
      api::RegistrySection::kTransports};

  if (const auto name = args.get("describe")) {
    for (const api::RegistrySection section : sections) {
      if (const auto entry = reg.describe(section, *name)) {
        std::printf("%s '%s': %s\n",
                    std::string(to_string(section)).c_str(),
                    entry->name.c_str(), entry->description.c_str());
        if (!entry->aliases.empty()) {
          std::printf("  aliases:");
          for (const auto& a : entry->aliases) std::printf(" %s", a.c_str());
          std::printf("\n");
        }
        std::printf("  engines:");
        for (const auto& e : entry->engines) std::printf(" %s", e.c_str());
        std::printf("\n");
        return 0;
      }
    }
    std::fprintf(stderr, "list: unknown name '%s'\n", name->c_str());
    return 2;
  }

  std::printf("scenario registry (spec names; engines: grid, stream, mpath, "
              "adaptive, net)\n");
  for (const api::RegistrySection section : sections) {
    std::printf("\n%s:\n", std::string(to_string(section)).c_str());
    for (const api::RegistryEntry& listed : reg.list(section)) {
      // Round-trip through describe() — the discoverability API the
      // spec layer and external tools use.
      const auto entry = *reg.describe(section, listed.name);
      std::string name = entry.name;
      for (const auto& a : entry.aliases) name += "|" + a;
      std::string engines;
      for (const auto& e : entry.engines)
        engines += (engines.empty() ? "" : ",") + e;
      std::printf("  %-24s %-26s %s\n", name.c_str(),
                  ("[" + engines + "]").c_str(), entry.description.c_str());
    }
  }
  std::printf("\n(use --describe=<name> for one entry; specs reference "
              "these names — see 'fecsched_cli run --spec')\n");
  return 0;
}

void usage(std::FILE* out) {
  std::fprintf(out,
               "usage: fecsched_cli "
               "<sweep|plan|universal|limits|fit|adapt|stream|net|mpath|run|"
               "history|compare|list> [--key=value ...]\n"
               "\n"
               "  sweep      paper 14x14 (p, q) inefficiency table for one "
               "(code, tx, ratio)\n"
               "  plan       evaluate candidate tuples at a known channel "
               "point + optimal n_sent\n"
               "  universal  rank tuples over the whole grid "
               "(unknown-channel recommendation)\n"
               "  limits     Fig. 6 fundamental decoding limits\n"
               "  fit        fit Gilbert (p, q) to a loss trace file\n"
               "  adapt      closed-loop adaptive FEC vs static tuples "
               "(src/adapt/)\n"
               "  stream     streaming delay / residual-loss comparison "
               "(src/stream/)\n"
               "  net        one streaming variant replayed over a real "
               "loopback transport (src/net/);\n"
               "             channel-model impairment at the sender, "
               "byte-verified payloads,\n"
               "             sim-vs-wire parity cross-check "
               "(--transport=udp|memory --payload-bytes=N\n"
               "             --report-interval=N --no-parity "
               "--net-dump=<file.json>)\n"
               "  mpath      multipath packet-to-path scheduling comparison "
               "(src/mpath/)\n"
               "  run        execute a scenario spec JSON "
               "(--spec=file.json, '-' = stdin; see --dump-spec)\n"
               "  history    list ledger records "
               "(--ledger=file.jsonl [--spec=fp --engine=E --gf=B "
               "--kind=K --compact])\n"
               "  compare    cross-run regression check over a ledger "
               "(exit 1 on drift/slowdown;\n"
               "             --threshold=R --min-phase-ms=M --min-wall=S "
               "+ history's filters)\n"
               "  list       print the scenario registry (codes, channels, "
               "tx models, path schedulers,\n"
               "             transports)\n"
               "\n"
               "  --version  print the library version\n"
               "  every experiment subcommand accepts --dump-spec (print "
               "the scenario JSON and exit)\n"
               "  engine subcommands accept --metrics --profile "
               "--trace=<file.jsonl> --trace-sample=N\n"
               "  --counters (per-phase hardware counters; src/obs/)\n"
               "  ...and the cross-run outputs --ledger=<file.jsonl> "
               "(or FECSCHED_LEDGER), --progress,\n"
               "  --profile-out=<file.folded>, --metrics-out=<file.prom>, "
               "--timeline-out=<file.json>\n"
               "  (Chrome trace_event timeline; load in "
               "ui.perfetto.dev or chrome://tracing)\n"
               "  crash safety: --checkpoint=<dir> [--resume] (grid "
               "sweeps), --trial-timeout-ms=N,\n"
               "  --strict (history/compare); SIGINT/SIGTERM drain cleanly "
               "(exit 40);\n"
               "  FECSCHED_FAULT=<point>:<nth>[:kind] injects faults "
               "(exit 41)\n"
               "\n"
               "run 'fecsched_cli --help' or see the header of "
               "tools/fecsched_cli.cc for per-command flags\n");
}

struct Command {
  const char* name;
  int (*handler)(const Args&);
  std::set<std::string> allowed;
};

// Observability flags shared by the engine subcommands (`fit` keeps its
// historical --trace=<loss file> INPUT flag and takes no obs flags).
// FECSCHED_OBS_OUT_FLAGS are the cross-run outputs: the run ledger, the
// live heartbeat, the profile/metrics export files and the Chrome-trace
// timeline — none of them changes stdout.  --counters is a user obs flag
// (its report prints), --timeline-out an output flag (stdout untouched).
#define FECSCHED_OBS_FLAGS \
  "metrics", "profile", "trace", "trace-sample", "counters"
#define FECSCHED_OBS_OUT_FLAGS \
  "ledger", "progress", "profile-out", "metrics-out", "timeline-out"

const Command kCommands[] = {
    {"sweep", cmd_engine<build_sweep_spec>,
     {"code", "tx", "ratio", "k", "trials", "seed", "gnuplot", "dump-spec",
      "checkpoint", "resume", "trial-timeout-ms", FECSCHED_OBS_FLAGS,
      FECSCHED_OBS_OUT_FLAGS}},
    {"plan", cmd_plan, {"p", "q", "k", "trials", "bytes", "payload",
                        "tolerance"}},
    {"universal", cmd_universal, {"k", "trials"}},
    {"limits", cmd_limits, {"ratio"}},
    {"fit", cmd_fit, {"trace"}},
    {"adapt", cmd_engine<build_adapt_spec>,
     {"p", "q", "pglobal", "burst", "k", "objects", "warmup", "seed", "json",
      "dump-spec", FECSCHED_OBS_FLAGS, FECSCHED_OBS_OUT_FLAGS}},
    {"stream", cmd_engine<build_stream_spec>,
     {"p", "q", "pglobal", "burst", "scheme", "sched", "overhead", "window",
      "blockk", "sources", "trials", "seed", "json", "dump-spec",
      "trial-timeout-ms", FECSCHED_OBS_FLAGS, FECSCHED_OBS_OUT_FLAGS}},
    {"net", cmd_engine<build_net_spec>,
     {"p", "q", "pglobal", "burst", "scheme", "sched", "overhead", "window",
      "blockk", "sources", "trials", "seed", "payload-bytes", "transport",
      "report-interval", "no-parity", "net-dump", "json", "dump-spec",
      "trial-timeout-ms", FECSCHED_OBS_FLAGS, FECSCHED_OBS_OUT_FLAGS}},
    {"mpath", cmd_engine<build_mpath_spec>,
     {"p", "q", "pglobal", "burst", "delay", "capacity", "scheduler",
      "scheme", "sched", "adapt", "warmup", "overhead", "window", "blockk",
      "sources", "trials", "seed", "json", "dump-spec", "trial-timeout-ms",
      FECSCHED_OBS_FLAGS, FECSCHED_OBS_OUT_FLAGS}},
    {"run", cmd_engine<load_spec>,
     {"spec", "json", "gnuplot", "dump-spec", "checkpoint", "resume",
      "trial-timeout-ms", FECSCHED_OBS_FLAGS, FECSCHED_OBS_OUT_FLAGS}},
    {"history", cmd_history,
     {"ledger", "spec", "engine", "gf", "kind", "compact", "strict"}},
    {"compare", cmd_compare,
     {"ledger", "spec", "engine", "gf", "kind", "threshold", "min-phase-ms",
      "min-wall", "strict"}},
    {"list", cmd_list, {"describe"}},
};

#undef FECSCHED_OBS_OUT_FLAGS
#undef FECSCHED_OBS_FLAGS

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage(stderr);
    return 2;
  }
  const std::string cmd = argv[1];
  if (cmd == "--help" || cmd == "-h" || cmd == "help") {
    usage(stdout);
    return 0;
  }
  if (cmd == "--version" || cmd == "version") {
    std::printf("fecsched_cli %s\n", std::string(api::kVersion).c_str());
    return 0;
  }
  for (const Command& command : kCommands) {
    if (cmd == command.name) {
      const Args args = parse_args(argc, argv, 2, cmd, command.allowed);
      return command.handler(args);
    }
  }
  usage(stderr);
  return 2;
}
