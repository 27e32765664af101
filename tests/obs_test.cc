// Tests for the observability layer (src/obs/) and its Scenario-API
// integration: deterministic metrics, thread-count-independent reports,
// observation-never-changes-results, trace JSONL round trips, and the
// trace-vs-engine residual cross-check tools/trace_stats automates.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "api/json.h"
#include "api/registry.h"
#include "api/scenario.h"
#include "obs/ledger.h"
#include "obs/manifest.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/trace.h"

namespace fecsched {
namespace {

using api::ScenarioResult;
using api::ScenarioSpec;

std::string tmp_path(const std::string& name) {
  return ::testing::TempDir() + "obs_test_" + name;
}

// ------------------------------------------------------------- metrics

TEST(ObsMetrics, CounterGaugeHistogramSemantics) {
  obs::MetricsRegistry reg;
  reg.counter("a").add();
  reg.counter("a").add(41);
  reg.gauge("g").update_max(7);
  reg.gauge("g").update_max(3);  // max-merge: lower value is ignored
  const std::uint64_t bounds[] = {1, 2, 4};
  reg.histogram("h", bounds).observe(0);
  reg.histogram("h", bounds).observe(2);
  reg.histogram("h", bounds).observe(100);  // overflow bucket

  const obs::MetricsSnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters[0].first, "a");
  EXPECT_EQ(snap.counters[0].second, 42u);
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.gauges[0].second, 7u);
  ASSERT_EQ(snap.histograms.size(), 1u);
  const std::vector<std::uint64_t> want_counts = {1, 1, 0, 1};
  EXPECT_EQ(snap.histograms[0].counts, want_counts);
}

TEST(ObsMetrics, MergeIsExactAndPartitionIndependent) {
  // Split the same updates across two registries; the merge must equal
  // a single registry that saw everything (the thread-merge guarantee).
  const std::uint64_t bounds[] = {10, 20};
  obs::MetricsRegistry whole, part_a, part_b;
  for (std::uint64_t v : {3u, 15u, 99u, 7u, 20u}) {
    whole.counter("n").add(v);
    whole.gauge("peak").update_max(v);
    whole.histogram("d", bounds).observe(v);
  }
  for (std::uint64_t v : {3u, 15u, 99u}) {
    part_a.counter("n").add(v);
    part_a.gauge("peak").update_max(v);
    part_a.histogram("d", bounds).observe(v);
  }
  for (std::uint64_t v : {7u, 20u}) {
    part_b.counter("n").add(v);
    part_b.gauge("peak").update_max(v);
    part_b.histogram("d", bounds).observe(v);
  }
  part_a.merge_from(part_b);

  const obs::MetricsSnapshot a = whole.snapshot();
  const obs::MetricsSnapshot b = part_a.snapshot();
  EXPECT_EQ(a.counters, b.counters);
  EXPECT_EQ(a.gauges, b.gauges);
  ASSERT_EQ(a.histograms.size(), b.histograms.size());
  EXPECT_EQ(a.histograms[0].counts, b.histograms[0].counts);
}

// ------------------------------------------------------------- session

TEST(ObsSession, DormantByDefault) {
  EXPECT_EQ(obs::current(), nullptr);
  const obs::Hook hook;
  EXPECT_FALSE(hook.engaged());
  // All emitters are no-ops on a dormant hook (must not crash).
  hook.count("x");
  hook.sent(0.0, 0, false);
  int calls = 0;
  EXPECT_EQ(hook.timed(obs::Phase::kDecode, [&] { return ++calls; }), 1);
}

TEST(ObsSession, CollectsAndDisarms) {
  {
    obs::Session session(obs::Config{.metrics = true, .profile = true});
    ASSERT_TRUE(session.active());
    {
      const obs::TrialScope scope(0);
      const obs::Hook hook;
      ASSERT_TRUE(hook.engaged());
      hook.count("unit.packets", 5);
      hook.timed(obs::Phase::kEncode, [] {});
    }
    const obs::Report report = session.finish();
    ASSERT_EQ(report.metrics.counters.size(), 1u);
    EXPECT_EQ(report.metrics.counters[0].first, "unit.packets");
    EXPECT_EQ(report.metrics.counters[0].second, 5u);
    EXPECT_EQ(report.phases[static_cast<std::size_t>(obs::Phase::kEncode)].calls,
              1u);
  }
  EXPECT_EQ(obs::current(), nullptr);  // finish() disarmed the global
}

// Busy-waits `us` microseconds: a phase body with a known floor.
void spin_us(int us) {
  const auto until = obs::ObsClock::now() + std::chrono::microseconds(us);
  while (obs::ObsClock::now() < until) {
  }
}

// Plain --profile times a per-packet phase on call ordinals 0, 64, 128,
// ... and scales its ns up to every call; coarse phases and timeline
// sessions time every call.  Each check is a lower bound, so host load
// cannot make it fail.
TEST(ObsSession, PlainProfileSamplesPerPacketPhasesAndScalesNs) {
  const auto decode = static_cast<std::size_t>(obs::Phase::kDecode);
  const auto encode = static_cast<std::size_t>(obs::Phase::kEncode);
  {
    obs::Session session(obs::Config{.metrics = true, .profile = true});
    {
      const obs::TrialScope scope(0);
      const obs::Hook hook;
      // 130 decode calls, three of them timed, and only those spin: the
      // scaled total stands for 130 spins, not 3.
      for (int i = 0; i < 130; ++i)
        hook.timed(obs::Phase::kDecode, [&] {
          if (i % 64 == 0) spin_us(200);
        });
      // Ordinal 1 of a coarse phase is timed like every other call.
      for (int i = 0; i < 5; ++i)
        hook.timed(obs::Phase::kEncode, [&] {
          if (i == 1) spin_us(200);
        });
    }
    const obs::Report report = session.finish();
    EXPECT_EQ(report.phases[decode].calls, 130u);
    EXPECT_GE(report.phases[decode].ns, 130u / 3 * 200'000u);
    EXPECT_EQ(report.phases[encode].calls, 5u);
    EXPECT_GE(report.phases[encode].ns, 200'000u);
  }
  {
    // A timeline session times every call: ordinal 1 is seen.
    obs::Session session(obs::Config{.profile = true, .timeline = true});
    {
      const obs::TrialScope scope(0);
      const obs::Hook hook;
      for (int i = 0; i < 3; ++i)
        hook.timed(obs::Phase::kDecode, [&] {
          if (i == 1) spin_us(200);
        });
    }
    const obs::Report report = session.finish();
    EXPECT_EQ(report.phases[decode].calls, 3u);
    EXPECT_GE(report.phases[decode].ns, 200'000u);
  }
}

// The multipath engine picks a path (schedule) and the sliding-window
// decoder eliminates (matrix_invert, a PhaseScope inside the decoder)
// once per packet, so plain --profile samples both like decode.
TEST(ObsSession, PlainProfileSamplesScheduleAndMatrixInvert) {
  const auto schedule = static_cast<std::size_t>(obs::Phase::kSchedule);
  const auto invert = static_cast<std::size_t>(obs::Phase::kMatrixInvert);
  obs::Session session(obs::Config{.metrics = true, .profile = true});
  {
    const obs::TrialScope scope(0);
    const obs::Hook hook;
    // Only ordinals 0, 64 and 128 spin: the scaled totals stand for 130
    // spins each, which per-call timing would report as 3.
    for (int i = 0; i < 130; ++i) {
      hook.timed(obs::Phase::kSchedule, [&] {
        if (i % 64 == 0) spin_us(200);
      });
      const obs::PhaseScope phase(obs::current(), obs::Phase::kMatrixInvert);
      if (i % 64 == 0) spin_us(200);
    }
  }
  const obs::Report report = session.finish();
  EXPECT_EQ(report.phases[schedule].calls, 130u);
  EXPECT_GE(report.phases[schedule].ns, 130u * 200'000u);
  EXPECT_EQ(report.phases[invert].calls, 130u);
  EXPECT_GE(report.phases[invert].ns, 130u * 200'000u);
}

// Hook::timed_pass runs body(i) until it returns false or `max` calls
// have run, and counts every call.  Plain --profile times the pass whole
// (exact calls, unscaled ns); timeline and counters sessions time each
// call, one span and one counter read apiece.
TEST(ObsSession, TimedPassWithoutSessionRunsBodyOnly) {
  ASSERT_EQ(obs::current(), nullptr);
  const obs::Hook hook;
  std::vector<std::uint64_t> seen;
  const std::uint64_t n = hook.timed_pass(obs::Phase::kDecode, 10, [&](std::uint64_t i) {
    seen.push_back(i);
    return i < 3;
  });
  EXPECT_EQ(n, 4u);
  EXPECT_EQ(seen, (std::vector<std::uint64_t>{0, 1, 2, 3}));
  EXPECT_EQ(hook.timed_pass(obs::Phase::kDecode, 0, [](std::uint64_t) { return true; }),
            0u);
}

TEST(ObsSession, TimedPassUnderPlainProfileIsExactAndUnscaled) {
  const auto decode = static_cast<std::size_t>(obs::Phase::kDecode);
  obs::Session session(obs::Config{.metrics = true, .profile = true});
  std::uint64_t n = 0;
  {
    const obs::TrialScope scope(0);
    const obs::Hook hook;
    // Only call 1 spins: a sampler timing ordinals 0, 64, 128 would miss
    // it, the pass's one clock pair cannot.
    n = hook.timed_pass(obs::Phase::kDecode, 200, [&](std::uint64_t i) {
      if (i == 1) spin_us(200);
      return i + 1 < 130;
    });
  }
  const obs::Report report = session.finish();
  EXPECT_EQ(n, 130u);
  EXPECT_EQ(report.phases[decode].calls, 130u);
  EXPECT_GE(report.phases[decode].ns, 200'000u);
}

TEST(ObsSession, TimedPassUnderTimelineAndCountersTimesEachCall) {
  const auto decode = static_cast<std::size_t>(obs::Phase::kDecode);
  const auto run = [](const obs::Config& cfg) {
    obs::Session session(cfg);
    {
      const obs::TrialScope scope(0);
      const obs::Hook hook;
      EXPECT_EQ(hook.timed_pass(obs::Phase::kDecode, 10,
                                [](std::uint64_t i) { return i < 6; }),
                7u);
    }
    return session.finish();
  };
  const obs::Report timeline = run(obs::Config{.profile = true, .timeline = true});
  EXPECT_EQ(timeline.phases[decode].calls, 7u);
  std::uint64_t spans = 0;
  for (const obs::TimelineSpan& s : timeline.spans)
    spans += s.kind == obs::SpanKind::kPhase && s.phase == obs::Phase::kDecode ? 1 : 0;
  EXPECT_EQ(spans, 7u);

  const obs::Report counters = run(obs::Config{.profile = true, .counters = true});
  EXPECT_EQ(counters.phases[decode].calls, 7u);
  EXPECT_EQ(counters.perf.phases[decode].reads, 7u);
}

// One observer holding both kinds of call of one phase: the pass-timed
// ns add as they are, and only the sampled part scales (130 calls, three
// of them timed at 7 ns each: 7 * 3 * 130 / 3 = 910).
TEST(ObsSession, PassTimedCallsAreNotScaledWithSampledOnes) {
  const auto decode = static_cast<std::size_t>(obs::Phase::kDecode);
  obs::Session session(obs::Config{.profile = true});
  obs::Observer* o = obs::current();
  ASSERT_NE(o, nullptr);
  o->pass_time(obs::Phase::kDecode, 1000, 5000);
  for (int i = 0; i < 130; ++i)
    if (o->phase_call(obs::Phase::kDecode)) o->phase_time(obs::Phase::kDecode, 7);
  const obs::Report report = session.finish();
  EXPECT_EQ(report.phases[decode].calls, 1130u);
  EXPECT_EQ(report.phases[decode].ns, 5000u + 910u);
}

TEST(ObsSession, TraceSamplingKeepsEveryNthTrial) {
  obs::Session session(obs::Config{.trace = true, .trace_sample = 2});
  for (std::uint64_t t = 0; t < 4; ++t) {
    const obs::TrialScope scope(t);
    const obs::Hook hook;
    EXPECT_EQ(hook.tracing(), t % 2 == 0);
    hook.sent(static_cast<double>(t), t, false);
  }
  const obs::Report report = session.finish();
  ASSERT_EQ(report.events.size(), 2u);
  EXPECT_EQ(report.events[0].trial, 0u);
  EXPECT_EQ(report.events[1].trial, 2u);
}

// ------------------------------------------- scenario-level guarantees

ScenarioSpec small_grid_spec() {
  ScenarioSpec spec;
  spec.engine = "grid";
  spec.code.name = "rse";
  spec.code.ratio = 1.5;
  spec.code.k = 200;
  spec.tx.model = "tx2";
  spec.run.trials = 4;
  spec.run.seed = 0x5eedf00dULL;
  spec.sweep.p_values = {0.05, 0.4};
  spec.sweep.q_values = {0.25};
  return spec;
}

ScenarioSpec small_stream_spec() {
  ScenarioSpec spec;
  spec.engine = "stream";
  spec.code.name = "sliding-window";
  spec.channel.p = 0.05;
  spec.channel.q = 0.25;
  spec.run.sources = 300;
  spec.run.trials = 4;
  spec.run.seed = 0x57e4a9edULL;
  return spec;
}

void expect_same_cells(const GridResult& a, const GridResult& b) {
  ASSERT_EQ(a.cells.size(), b.cells.size());
  for (std::size_t c = 0; c < a.cells.size(); ++c) {
    EXPECT_EQ(a.cells[c].trials, b.cells[c].trials);
    EXPECT_EQ(a.cells[c].failures, b.cells[c].failures);
    EXPECT_EQ(a.cells[c].peak_memory_symbols, b.cells[c].peak_memory_symbols);
    EXPECT_EQ(a.cells[c].inefficiency.mean(), b.cells[c].inefficiency.mean());
    EXPECT_EQ(a.cells[c].inefficiency.variance(),
              b.cells[c].inefficiency.variance());
  }
}

TEST(ObsScenario, ObservationNeverChangesGridResult) {
  const ScenarioSpec off = small_grid_spec();
  ScenarioSpec on = off;
  on.obs.metrics = true;
  on.obs.profile = true;

  const ScenarioResult r_off = api::run_scenario(off);
  const ScenarioResult r_on = api::run_scenario(on);
  ASSERT_TRUE(r_off.grid && r_on.grid);
  expect_same_cells(*r_off.grid, *r_on.grid);
  EXPECT_FALSE(r_off.obs.has_value());
  ASSERT_TRUE(r_on.obs.has_value());
  EXPECT_FALSE(r_on.obs->metrics.empty());
}

TEST(ObsScenario, ObservationNeverChangesStreamResult) {
  const ScenarioSpec off = small_stream_spec();
  ScenarioSpec on = off;
  on.obs.metrics = true;
  on.obs.trace = tmp_path("stream_identity.jsonl");

  const ScenarioResult r_off = api::run_scenario(off);
  const ScenarioResult r_on = api::run_scenario(on);
  ASSERT_EQ(r_off.stream.size(), 1u);
  ASSERT_EQ(r_on.stream.size(), 1u);
  EXPECT_EQ(r_off.stream[0].delays, r_on.stream[0].delays);
  EXPECT_EQ(r_off.stream[0].delivered, r_on.stream[0].delivered);
  EXPECT_EQ(r_off.stream[0].lost, r_on.stream[0].lost);
  std::remove(on.obs.trace.c_str());
}

TEST(ObsScenario, ReportIsThreadCountIndependent) {
  // Same spec, 1 vs 4 workers: every deterministic part of the merged
  // report (metric values, phase call counts, trace events) must match.
  for (const char* engine : {"grid", "stream"}) {
    ScenarioSpec spec = std::string(engine) == "grid" ? small_grid_spec()
                                                      : small_stream_spec();
    spec.obs.metrics = true;
    spec.obs.profile = true;
    spec.obs.trace = tmp_path(std::string(engine) + "_t1.jsonl");
    spec.run.threads = 1;
    const ScenarioResult one = api::run_scenario(spec);
    spec.obs.trace = tmp_path(std::string(engine) + "_t4.jsonl");
    spec.run.threads = 4;
    const ScenarioResult four = api::run_scenario(spec);
    ASSERT_TRUE(one.obs && four.obs) << engine;
    EXPECT_EQ(one.obs->deterministic_signature(),
              four.obs->deterministic_signature())
        << engine;
    EXPECT_EQ(one.obs->events, four.obs->events) << engine;
    std::remove(tmp_path(std::string(engine) + "_t1.jsonl").c_str());
    std::remove(tmp_path(std::string(engine) + "_t4.jsonl").c_str());
  }
}

// The engines fill the release-delay histogram once per trial from the
// tracker's delays: one count for every delivered source of every trial.
TEST(ObsScenario, ReleaseDelayHistogramCountsEveryDeliveredSource) {
  for (const std::string engine : {"stream", "mpath"}) {
    ScenarioSpec spec = small_stream_spec();
    spec.engine = engine;
    if (engine == "mpath") spec.paths.list = {{5.0, 1.0}, {45.0, 1.0}};
    spec.obs.metrics = true;
    const ScenarioResult r = api::run_scenario(spec);
    ASSERT_TRUE(r.obs) << engine;
    std::uint64_t delivered = 0, counted = 0;
    for (const auto& [name, value] : r.obs->metrics.counters)
      if (name == engine + ".sources_delivered") delivered = value;
    for (const obs::MetricsSnapshot::Hist& h : r.obs->metrics.histograms)
      if (h.name == "delay.release_slots")
        for (std::uint64_t c : h.counts) counted += c;
    EXPECT_GT(delivered, 0u) << engine;
    EXPECT_EQ(counted, delivered) << engine;
  }
}

TEST(ObsScenario, ManifestCarriesRunProvenance) {
  const ScenarioResult result = api::run_scenario(small_grid_spec());
  const obs::RunManifest& m = result.manifest;  // filled even with obs off
  EXPECT_EQ(m.engine, "grid");
  EXPECT_EQ(m.version, std::string(api::kVersion));
  EXPECT_EQ(m.fingerprint,
            obs::spec_fingerprint(small_grid_spec().to_json()));
  EXPECT_EQ(m.fingerprint.rfind("fnv1a:", 0), 0u);
  EXPECT_FALSE(m.gf_backend.empty());
  EXPECT_GE(m.wall_seconds, 0.0);
  EXPECT_GT(m.hardware_threads, 0u);
}

// --------------------------------------------------------------- trace

TEST(ObsTrace, EventJsonRoundTrip) {
  std::vector<obs::TraceEvent> events;
  obs::TraceEvent ev;
  ev.kind = obs::EventKind::kSent;
  ev.trial = 3;
  ev.slot = 12.5;
  ev.id = 41;
  ev.repair = true;
  ev.path = 1;
  ev.obj = 7;
  events.push_back(ev);
  ev = obs::TraceEvent{};
  ev.kind = obs::EventKind::kDecoded;
  ev.slot = 9.0;
  ev.id = 8;
  events.push_back(ev);
  ev = obs::TraceEvent{};
  ev.kind = obs::EventKind::kReleased;
  ev.trial = 1;
  ev.slot = 20.0;
  ev.id = 5;
  ev.ok = true;
  ev.delay = 4.5;
  events.push_back(ev);

  for (const obs::TraceEvent& e : events) {
    const api::Json j = obs::event_to_json(e);
    obs::validate_trace_line(j);
    EXPECT_EQ(obs::event_from_json(j), e);
    // The JSONL text form parses back to the same object too.
    EXPECT_EQ(obs::event_from_json(api::Json::parse(j.dump(0))), e);
  }
}

TEST(ObsTrace, EventJsonRejectsSchemaViolations) {
  api::Json j = obs::event_to_json(obs::TraceEvent{});
  j.set("bogus", api::Json::integer(1));
  EXPECT_THROW((void)obs::event_from_json(j), std::invalid_argument);
  api::Json unknown = api::Json::object();
  unknown.set("ev", api::Json("teleported"));
  EXPECT_THROW((void)obs::event_from_json(unknown), std::invalid_argument);
}

TEST(ObsTrace, FileRoundTrip) {
  obs::RunManifest m;
  m.fingerprint = "fnv1a:0000000000000000";
  m.version = "0.0.0";
  m.gf_backend = "scalar";
  m.engine = "stream";
  m.threads = 1;
  m.hardware_threads = 8;

  std::vector<obs::TraceEvent> events;
  for (std::uint64_t t = 0; t < 3; ++t) {
    obs::TraceEvent ev;
    ev.kind = obs::EventKind::kReleased;
    ev.trial = t;
    ev.slot = static_cast<double>(10 * t);
    ev.id = t;
    ev.ok = t != 1;
    ev.delay = ev.ok ? 2.0 : 0.0;
    events.push_back(ev);
  }
  obs::MetricsRegistry reg;
  reg.counter("stream.sources").add(3);

  const std::string path = tmp_path("roundtrip.jsonl");
  obs::write_trace_file(path, obs::manifest_to_trace_line(m, 1), events,
                        reg.snapshot());
  const obs::TraceFile file = obs::read_trace_file(path);
  EXPECT_EQ(file.events, events);
  EXPECT_EQ(file.manifest.find("engine")->as_string("engine"), "stream");
  EXPECT_EQ(file.summary.find("counters")
                ->find("stream.sources")
                ->as_uint64("sources"),
            3u);
  std::remove(path.c_str());
}

TEST(ObsTrace, ResidualMatchesStreamEngine) {
  // The cross-check tools/trace_stats automates: residual-loss run
  // lengths recomputed from `released` events alone must equal the
  // stream engine's own residual accounting on a bursty Gilbert point.
  ScenarioSpec spec = small_stream_spec();
  spec.obs.trace = tmp_path("residual.jsonl");
  const ScenarioResult result = api::run_scenario(spec);
  ASSERT_EQ(result.stream.size(), 1u);
  const api::StreamOutcome& engine = result.stream[0];
  ASSERT_GT(engine.lost, 0u) << "point too mild to exercise residual runs";

  const obs::TraceFile file = obs::read_trace_file(spec.obs.trace);
  const obs::TraceResidual trace = obs::residual_from_trace(file.events);
  EXPECT_EQ(trace.lost, engine.lost);
  EXPECT_EQ(trace.runs, engine.residual_runs);
  EXPECT_EQ(trace.max_run, engine.residual_max_run);
  EXPECT_EQ(trace.released, engine.delivered + engine.lost);
  EXPECT_EQ(trace.trials, spec.run.trials);
  std::remove(spec.obs.trace.c_str());
}

// ------------------------------------------------------------ spec JSON

TEST(ObsSpecJson, DefaultSpecOmitsObsSection) {
  // Pre-obs spec documents must stay byte-identical: the obs section
  // only appears when something is enabled, and round-trips exactly.
  const ScenarioSpec def;
  EXPECT_EQ(def.to_json().find("\"obs\""), std::string::npos);

  ScenarioSpec spec;
  spec.obs.profile = true;
  spec.obs.trace = "out.jsonl";
  spec.obs.trace_sample = 8;
  const std::string once = spec.to_json();
  EXPECT_NE(once.find("\"obs\""), std::string::npos);
  const ScenarioSpec back = ScenarioSpec::from_json(once);
  EXPECT_EQ(back.obs, spec.obs);
  EXPECT_EQ(back.to_json(), once);
}

TEST(ObsSpecJson, UnknownObsKeyRejected) {
  EXPECT_THROW(ScenarioSpec::from_json(R"({"obs": {"verbose": true}})"),
               std::invalid_argument);
}

TEST(ObsSpecJson, TraceSampleZeroRejected) {
  ScenarioSpec spec = small_grid_spec();
  spec.obs.trace = "out.jsonl";
  spec.obs.trace_sample = 0;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
}

// ------------------------------------------------------------- formats

// The three files that carry observations (the ledger line, the --json
// obs section and the trace file) pinned byte for byte, so old ledgers
// keep loading and `compare` keeps seeing the same lines.
TEST(ObsFormats, LedgerLineJsonSectionAndTraceFileArePinned) {
  obs::RunManifest m;
  m.fingerprint = "fnv1a:00112233aabbccdd";
  m.version = "9.9.9";
  m.gf_backend = "avx2";
  m.engine = "stream";
  m.threads = 4;
  m.hardware_threads = 8;
  m.wall_seconds = 1.5;
  m.started_at = "2026-08-07T10:00:00Z";
  m.hostname = "hostA";
  m.max_rss_kb = 4321;
  m.status = "interrupted";

  obs::MetricsSnapshot metrics;
  metrics.counters = {{"stream.residual_runs", 3}, {"stream.sources", 12}};
  metrics.gauges = {{"stream.residual_max_run", 2}};
  metrics.histograms.push_back({"delay.release_slots", {1, 2, 4}, {3, 4, 5, 0}});

  obs::PerfReport perf;
  perf.available = true;
  perf.status = "ok";
  const auto at = [](obs::PerfCounter c) { return static_cast<std::size_t>(c); };
  obs::PerfPhase& decode = perf.phases[static_cast<std::size_t>(obs::Phase::kDecode)];
  decode.reads = 7;
  decode.values[at(obs::PerfCounter::kCycles)] = 1000;
  decode.values[at(obs::PerfCounter::kInstructions)] = 2500;
  decode.values[at(obs::PerfCounter::kCacheMisses)] = 3;
  perf.phases[static_cast<std::size_t>(obs::Phase::kEncode)].reads = 2;

  obs::LedgerRecord record;
  record.label = "smoke";
  record.manifest = m;
  record.phases[0] = {10, 5'000'000};
  record.phases[3] = {7, 250'000'000};
  record.metrics = metrics;
  record.perf = perf;
  record.extra = api::Json::object();
  record.extra.set("note", api::Json("payload"));
  EXPECT_EQ(
      obs::ledger_line(record),
      R"({"kind":"run","label":"smoke","manifest":{"spec":"fnv1a:00112233aabbccdd","api":"9.9.9","gf":"avx2","engine":"stream","threads":4,"hardware_threads":8,"wall_seconds":1.5,"started_at":"2026-08-07T10:00:00Z","hostname":"hostA","max_rss_kb":4321,"status":"interrupted"},"phases":{"encode":{"calls":10,"ns":5000000},"decode":{"calls":7,"ns":250000000}},"counters":{"stream.residual_runs":3,"stream.sources":12},"gauges":{"stream.residual_max_run":2},"histograms":{"delay.release_slots":{"bounds":[1,2,4],"counts":[3,4,5,0]}},"perf":{"available":true,"status":"ok","phases":{"encode":{"reads":2,"cycles":0,"instructions":0,"cache_references":0,"cache_misses":0,"branch_misses":0},"decode":{"reads":7,"cycles":1000,"instructions":2500,"cache_references":0,"cache_misses":3,"branch_misses":0}}},"extra":{"note":"payload"}})");

  obs::Report report;
  report.config = {.metrics = true, .profile = true, .trace = true,
                   .trace_sample = 4, .timeline = true, .counters = true};
  report.phases[0] = {10, 5'000'000};
  report.phases[3] = {7, 250'000'000};
  report.metrics = metrics;
  report.events.resize(3);
  report.spans.resize(2);
  report.lanes = 2;
  report.spans_dropped = 1;
  report.perf = perf;
  EXPECT_EQ(
      obs::observability_json(m, report).dump(0),
      R"({"manifest":{"spec":"fnv1a:00112233aabbccdd","api":"9.9.9","gf":"avx2","engine":"stream","threads":4,"hardware_threads":8,"wall_seconds":1.5,"started_at":"2026-08-07T10:00:00Z","hostname":"hostA","max_rss_kb":4321,"status":"interrupted"},"profile":[{"phase":"encode","calls":10,"ns":5000000},{"phase":"channel_draw","calls":0,"ns":0},{"phase":"schedule","calls":0,"ns":0},{"phase":"decode","calls":7,"ns":250000000},{"phase":"matrix_invert","calls":0,"ns":0},{"phase":"resequence","calls":0,"ns":0},{"phase":"net.pack","calls":0,"ns":0},{"phase":"net.send","calls":0,"ns":0},{"phase":"net.recv","calls":0,"ns":0},{"phase":"net.unpack","calls":0,"ns":0}],"metrics":{"counters":{"stream.residual_runs":3,"stream.sources":12},"gauges":{"stream.residual_max_run":2},"histograms":{"delay.release_slots":{"bounds":[1,2,4],"counts":[3,4,5,0]}}},"trace":{"events":3,"sample":4},"timeline":{"lanes":2,"spans":2,"dropped":1},"perf":{"available":true,"status":"ok","phases":{"encode":{"reads":2,"cycles":0,"instructions":0,"cache_references":0,"cache_misses":0,"branch_misses":0},"decode":{"reads":7,"cycles":1000,"instructions":2500,"cache_references":0,"cache_misses":3,"branch_misses":0,"ipc":2.5}}}})");

  std::vector<obs::TraceEvent> events(5);
  events[0] = {.kind = obs::EventKind::kSent, .slot = 1.0, .id = 4,
               .path = 1, .obj = 0};
  events[1] = {.kind = obs::EventKind::kLost, .slot = 2.0, .id = 70,
               .repair = true};
  events[2] = {.kind = obs::EventKind::kReceived, .slot = 3.5, .id = 5};
  events[3] = {.kind = obs::EventKind::kDecoded, .trial = 1, .slot = 4.0,
               .id = 6};
  events[4] = {.kind = obs::EventKind::kReleased, .trial = 1, .slot = 9.0,
               .id = 4, .ok = true, .delay = 8.0};
  const std::string path = tmp_path("pinned.jsonl");
  obs::write_trace_file(path, obs::manifest_to_trace_line(m, 4), events,
                        metrics);
  std::ifstream in(path);
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  EXPECT_EQ(text,
            R"({"ev":"manifest","spec":"fnv1a:00112233aabbccdd","api":"9.9.9","gf":"avx2","engine":"stream","threads":4,"hardware_threads":8,"wall_seconds":1.5,"started_at":"2026-08-07T10:00:00Z","hostname":"hostA","max_rss_kb":4321,"status":"interrupted","trace_sample":4}
{"ev":"sent","trial":0,"slot":1,"id":4,"repair":false,"path":1,"obj":0}
{"ev":"lost","trial":0,"slot":2,"id":70,"repair":true}
{"ev":"received","trial":0,"slot":3.5,"id":5,"repair":false}
{"ev":"decoded","trial":1,"slot":4,"id":6}
{"ev":"released","trial":1,"slot":9,"id":4,"ok":true,"delay":8}
{"ev":"summary","counters":{"stream.residual_runs":3,"stream.sources":12},"gauges":{"stream.residual_max_run":2}}
)");
  std::remove(path.c_str());
}

// One observed stream run carries the same counters and gauges objects
// in its ledger record, its --json obs section and its trace summary.
TEST(ObsFormats, LedgerJsonSectionAndTraceSummaryCarryEqualMetrics) {
  ScenarioSpec spec = small_stream_spec();
  spec.obs.metrics = true;
  spec.obs.profile = true;
  spec.obs.trace = tmp_path("cross_format.jsonl");
  const ScenarioResult result = api::run_scenario(spec);
  ASSERT_TRUE(result.obs);

  const api::Json ledger =
      obs::record_to_json(obs::make_run_record(result.manifest, *result.obs));
  const api::Json section = obs::observability_json(result.manifest, *result.obs);
  const api::Json summary = obs::read_trace_file(spec.obs.trace).summary;
  for (const char* key : {"counters", "gauges"}) {
    ASSERT_NE(ledger.find(key), nullptr) << key;
    const std::string want = ledger.find(key)->dump(0);
    EXPECT_NE(want, "{}") << key;
    EXPECT_EQ(section.find("metrics")->find(key)->dump(0), want) << key;
    EXPECT_EQ(summary.find(key)->dump(0), want) << key;
  }
  std::remove(spec.obs.trace.c_str());
}

// --------------------------------------------------- JSON parse errors

TEST(ObsJson, ParseErrorCarriesOffsetAndLineCol) {
  const std::string text = "{\n  \"a\": 1,\n  \"b\": oops\n}";
  try {
    (void)api::Json::parse(text);
    FAIL() << "expected JsonParseError";
  } catch (const api::JsonParseError& e) {
    const auto [line, col] = api::json_line_col(text, e.offset());
    EXPECT_EQ(line, 3u);
    EXPECT_GT(col, 1u);
  }
}

}  // namespace
}  // namespace fecsched
